"""Arena-kernel training throughput vs the plain-numpy oracle.

Trains the paper's 512/256/128/64 autoencoder architecture twice -- once
through :meth:`repro.nn.network.Sequential.fit` (the ``out=`` kernels
over the workspace arena) and once through the allocating reference
implementation in ``tests/nn/reference.py`` -- verifies the two runs are
bit-identical, and records both wall-clock times, the throughput ratio
and the arena telemetry to ``benchmarks/results/nn_kernels.txt`` plus
the machine-readable ``benchmarks/results/BENCH_nn_kernels.json``, whose
``meta`` names the host (cores, Python, numpy): compare its timings only
with runs from the same host.  The metric keys keep their names:
``legacy_seconds`` times the reference oracle, ``arena_seconds`` the
kernels.

The >= 1.8x speedup assertion only runs on machines with at least four
CPU cores -- single-core containers are dominated by BLAS time where
the allocator savings shrink, so the harness records the measurement
without failing (same policy as ``test_parallel_speedup``).
"""

import os
import platform
import time

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from tests.nn import reference

from .conftest import save_result, save_result_json

ENCODER_UNITS = (512, 256, 128, 64)
N_SAMPLES = 2048
DIM = 512
EPOCHS = 3
BATCH_SIZE = 32
SPEEDUP_FLOOR = 1.8


def build_network(seed=11):
    """The paper's mirrored 512/256/128/64 autoencoder as a Sequential."""
    layers = []
    widths = list(ENCODER_UNITS) + list(ENCODER_UNITS[-2::-1]) + [DIM]
    for width in widths[:-1]:
        layers.append(Dense(width))
        layers.append(ReLU())
    layers.append(Dense(widths[-1]))
    layers.append(Sigmoid())
    net = Sequential(layers, seed=seed)
    net.build(DIM)
    return net


def timed_fit(x, fit):
    net = build_network()
    start = time.perf_counter()
    history = fit(
        net,
        x,
        x,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        loss="mse",
        optimizer="adadelta",
        validation_split=0.0,
        shuffle=True,
    )
    elapsed = time.perf_counter() - start
    return elapsed, history, net


def test_nn_kernel_speedup_and_parity():
    rng = np.random.default_rng(7)
    x = rng.random((N_SAMPLES, DIM))

    legacy_s, legacy_hist, legacy_net = timed_fit(x, reference.fit)
    arena_s, arena_hist, arena_net = timed_fit(x, Sequential.fit)
    speedup = legacy_s / arena_s if arena_s > 0 else float("inf")
    stats = arena_net.workspace.stats()

    cores = os.cpu_count() or 1
    steps = EPOCHS * ((N_SAMPLES + BATCH_SIZE - 1) // BATCH_SIZE)
    lines = [
        "Arena-kernel training throughput (Sequential.fit)",
        f"architecture={'x'.join(map(str, ENCODER_UNITS))} (mirrored)  "
        f"samples={N_SAMPLES}  dim={DIM}  epochs={EPOCHS}  batch={BATCH_SIZE}",
        f"cpu_cores={cores}  python={platform.python_version()}  numpy={np.__version__}",
        f"legacy (reference oracle, tests/nn/reference.py): {legacy_s:8.2f} s",
        f"arena  (workspace kernels):                       {arena_s:8.2f} s",
        f"speedup: {speedup:.2f}x",
        "note: legacy_seconds in BENCH_nn_kernels.json times the reference oracle",
        f"arena: misses={stats.misses}  buffers={stats.buffers}  "
        f"peak_bytes={stats.peak_bytes}",
    ]

    # Correctness first: the kernels must be bit-identical to the oracle.
    assert legacy_hist.loss == arena_hist.loss
    np.testing.assert_array_equal(reference.predict(legacy_net, x), arena_net.predict(x))
    lines.append("parity: arena loss curve and predictions bit-identical to the reference")

    save_result("nn_kernels", "\n".join(lines))
    save_result_json(
        "nn_kernels",
        metrics={
            "legacy_seconds": legacy_s,
            "arena_seconds": arena_s,
            "speedup": speedup,
            "arena_misses": stats.misses,
            "arena_peak_bytes": stats.peak_bytes,
            "parity": True,
        },
        params={
            "encoder_units": list(ENCODER_UNITS),
            "samples": N_SAMPLES,
            "dim": DIM,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "optimizer": "adadelta",
            "steps": steps,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        meta={
            "cpu_cores": cores,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    )

    if cores < 4:
        pytest.skip(
            f"only {cores} core(s): BLAS-bound, speedup floor not "
            "representative; results recorded"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x arena speedup on {cores} cores, "
        f"measured {speedup:.2f}x"
    )
