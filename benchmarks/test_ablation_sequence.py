"""Ablation: adding the DeepLog-style sequence aspect (paper §VI-B1).

The paper's enterprise case study uses count features but notes that
predictable aspects could instead leverage sequence models.  This bench
runs the Zeus case study twice at small scale -- count features only vs
count + Markov sequence-surprise aspects -- and compares when the victim
first reaches rank 1.
"""

import pytest

from benchmarks.conftest import save_result
from repro.core.critic import investigation_from_arrays
from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.eval.experiments import (
    ModelRun,
    build_case_study,
    case_study_config,
    run_case_study,
)
from repro.eval.reporting import format_table
from repro.features.measurements import concat_cubes
from repro.features.sequence import extract_sequence_surprise


@pytest.fixture(scope="module")
def case_bench():
    return build_case_study(case_study_config("zeus", scale="small"))


def run_with_cube(benchmark_data, cube):
    cfg = benchmark_data.config
    model = CompoundBehaviorModel(
        ModelConfig(
            name="ACOBE+seq",
            window=cfg.window,
            matrix_days=cfg.matrix_days,
            critic_n=cfg.critic_n,
            train_stride=cfg.train_stride,
            autoencoder=cfg.autoencoder,
        )
    )
    model.fit(cube, None, benchmark_data.train_days)
    anchors = model.valid_anchor_days(benchmark_data.test_days)
    scores = model.score(anchors)
    users = model.users
    daily_rank = {}
    for j, day in enumerate(anchors):
        day_scores = {aspect: arr[:, j] for aspect, arr in scores.items()}
        inv = investigation_from_arrays(day_scores, users, cfg.critic_n)
        daily_rank[day] = inv.position_of(benchmark_data.victim)
    return daily_rank


def test_sequence_aspect_ablation(benchmark, case_bench):
    base_result = run_case_study(case_bench)
    base_rank = base_result.daily_rank

    sequence_cube = extract_sequence_surprise(
        case_bench.dataset.store,
        case_bench.cube.users,
        case_bench.cube.days,
        train_days=case_bench.train_days,
    )
    merged = concat_cubes([case_bench.cube, sequence_cube])
    seq_rank = run_with_cube(case_bench, merged)

    attack_day = case_bench.config.attack_day
    rows = []
    results = {}
    for name, ranks in (("counts only", base_rank), ("counts + sequence", seq_rank)):
        rank_one = sorted(d for d, r in ranks.items() if r == 1 and d >= attack_day)
        first = rank_one[0] if rank_one else None
        best_post = min(r for d, r in ranks.items() if d >= attack_day)
        results[name] = best_post
        rows.append(
            (
                name,
                str(first) if first else "never",
                best_post,
                min(r for d, r in ranks.items() if d < attack_day),
            )
        )
    save_result(
        "ablation_sequence",
        format_table(
            ["features", "first rank-1 day", "best post-attack rank", "best pre-attack rank"],
            rows,
        ),
    )

    # Both variants must surface the victim near the top after the attack.
    assert results["counts only"] <= 3
    assert results["counts + sequence"] <= 3

    benchmark(
        extract_sequence_surprise,
        case_bench.dataset.store,
        case_bench.cube.users[:4],
        case_bench.cube.days,
        case_bench.train_days,
    )
