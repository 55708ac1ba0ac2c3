"""The detect / stream / ingest CLI contract, end to end on a tiny preset.

Runs :func:`repro.cli.main` in-process over a 12-user, 48-day
organization scored by 1-epoch (8, 4) autoencoders, and pins what an
operator relies on:

* ``stream --stop-after-days`` followed by ``--resume`` emits exactly the
  day documents of an uninterrupted ``stream --out``;
* ``ingest --shuffle-seed`` (out-of-order deliveries) emits the same
  documents day for day, and so does an ingest killed mid-stream and
  resumed from its checkpoint;
* the ``--out`` envelopes and the ``--metrics-out`` run-report ``meta``
  keys of each command;
* a command leaves the process-global telemetry as it found it -- on a
  normal exit and on an error exit -- with its ``--log`` sink closed and
  the final ``--metrics-export`` flush written.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import repro.cli
from repro.cli import main
from repro.eval.experiments import CertBenchmarkConfig
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import get_telemetry, set_telemetry
from repro.obs.log import JsonlLogSink, read_log_jsonl

TINY = CertBenchmarkConfig(
    name="tiny",
    department_sizes=(6, 6),
    n_days=48,
    window=5,
    matrix_days=5,
    train_end_offset=30,
    s1_start_offset=38,
    s1_duration=6,
    s2_start_offset=33,
    s2_surf_days=8,
    s2_exfil_days=4,
    autoencoder=AutoencoderConfig(
        encoder_units=(8, 4),
        epochs=1,
        batch_size=32,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=11,
    ),
)

STOP_AFTER_DAYS = 20
STOP_AFTER_EVENTS = 15000


def _tiny_config(scale=None):
    return TINY


def _run(argv):
    """``main(argv)`` with stdout captured; the global telemetry is restored."""
    previous = get_telemetry()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        set_telemetry(previous)
    return code, out.getvalue()


def _days(path):
    return json.loads(path.read_text())["days"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    commands = {
        "detect": ["detect", "--top", "3", "--metrics-out", str(root / "detect.json")],
        "stream": [
            "stream", "--out", str(root / "stream.json"),
            "--metrics-out", str(root / "stream-report.json"),
        ],
        "stream-killed": [
            "stream", "--checkpoint-dir", str(root / "ckpt"),
            "--stop-after-days", str(STOP_AFTER_DAYS), "--out", str(root / "killed.json"),
        ],
        "stream-resumed": [
            "stream", "--checkpoint-dir", str(root / "ckpt"), "--resume",
            "--out", str(root / "resumed.json"),
        ],
        "ingest": [
            "ingest", "--shuffle-seed", "3", "--out", str(root / "ingest.json"),
            "--metrics-out", str(root / "ingest-report.json"),
        ],
        "ingest-killed": [
            "ingest", "--shuffle-seed", "3", "--checkpoint-dir", str(root / "ickpt"),
            "--stop-after-events", str(STOP_AFTER_EVENTS),
            "--out", str(root / "ingest-killed.json"),
        ],
        "ingest-resumed": [
            "ingest", "--shuffle-seed", "3", "--checkpoint-dir", str(root / "ickpt"),
            "--resume", "--out", str(root / "ingest-resumed.json"),
        ],
    }
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.cli, "cert_config", _tiny_config)
        for name, argv in commands.items():
            results[name] = _run(argv)
    return root, results


def test_every_command_succeeds(runs):
    _root, results = runs
    assert {name: code for name, (code, _out) in results.items()} == dict.fromkeys(results, 0)


def test_stream_kill_and_resume_matches_uninterrupted(runs):
    root, results = runs
    full = _days(root / "stream.json")
    killed = _days(root / "killed.json")
    resumed = _days(root / "resumed.json")
    assert killed and resumed
    assert killed + resumed == full
    assert f"stopping after {STOP_AFTER_DAYS} day(s)" in results["stream-killed"][1]
    assert "resumed from" in results["stream-resumed"][1]


def test_shuffled_ingest_matches_stream(runs):
    root, _results = runs
    stream = _days(root / "stream.json")
    ingested = _days(root / "ingest.json")
    assert len(ingested) == len(stream)
    for doc, ref in zip(ingested, stream):
        assert doc == ref, f"ingest diverged on {doc['day']}"


def test_ingest_kill_and_resume_matches_stream(runs):
    root, results = runs
    killed = _days(root / "ingest-killed.json")
    resumed = _days(root / "ingest-resumed.json")
    assert resumed
    assert killed + resumed == _days(root / "stream.json")
    assert f"stopping after {STOP_AFTER_EVENTS:,} deliveries" in results["ingest-killed"][1]
    assert "resumed from" in results["ingest-resumed"][1]


def test_out_document_envelopes(runs):
    root, _results = runs
    stream = json.loads((root / "stream.json").read_text())
    ingest = json.loads((root / "ingest.json").read_text())
    assert {k: v for k, v in stream.items() if k != "days"} == {
        "schema": "acobe.stream_results", "version": 1, "scale": "tiny", "model": "ACOBE",
    }
    assert {k: v for k, v in ingest.items() if k != "days"} == {
        "schema": "acobe.ingest_results", "version": 1, "scale": "tiny", "model": "ACOBE",
        "allowed_lateness_days": 1,
    }


def test_metrics_out_meta_keys(runs):
    root, _results = runs
    reports = {
        name: json.loads((root / f"{name}.json").read_text())
        for name in ("detect", "stream-report", "ingest-report")
    }
    assert reports["detect"]["name"] == "detect-acobe"
    assert sorted(reports["detect"]["meta"]) == [
        "auc", "average_precision", "model", "n_jobs", "scale", "seed", "users",
    ]
    assert reports["stream-report"]["name"] == "stream-acobe"
    assert sorted(reports["stream-report"]["meta"]) == [
        "days_consumed", "days_imputed", "days_quarantined", "days_scored",
        "model", "resumed", "scale", "seed",
    ]
    assert reports["ingest-report"]["name"] == "ingest-acobe"
    assert sorted(reports["ingest-report"]["meta"]) == [
        "allowed_lateness_days", "days_scored", "days_sealed", "events_duplicate",
        "events_late", "events_pushed", "late_policy", "model", "resumed", "scale", "seed",
    ]


@pytest.fixture
def tiny_cli(monkeypatch):
    """The tiny preset, and the global telemetry restored after the test."""
    monkeypatch.setattr(repro.cli, "cert_config", _tiny_config)
    sinks = []
    init = JsonlLogSink.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sinks.append(self)

    monkeypatch.setattr(JsonlLogSink, "__init__", tracking_init)
    previous = get_telemetry()
    yield previous, sinks
    set_telemetry(previous)


def test_error_exit_releases_telemetry(tiny_cli, tmp_path, capsys):
    previous, sinks = tiny_cli
    log = tmp_path / "run.jsonl"
    export = tmp_path / "metrics"
    code = main([
        "ingest", "--max-buffered-events", "1", "--log", str(log),
        "--metrics-export", str(export), "--export-every", "1000000",
    ])
    assert code == 1
    assert "already buffered" in capsys.readouterr().err
    assert get_telemetry() is previous
    assert previous.log_sink is None
    assert sinks and all(sink._stream.closed for sink in sinks)
    assert read_log_jsonl(log)
    assert (export / "metrics.prom").exists(), "final export flush skipped"


def test_normal_exit_releases_telemetry(tiny_cli, tmp_path, capsys):
    previous, sinks = tiny_cli
    log = tmp_path / "run.jsonl"
    assert main(["detect", "--top", "3", "--trace", "--log", str(log)]) == 0
    assert "span tree" in capsys.readouterr().out
    assert get_telemetry() is previous
    assert previous.log_sink is None
    assert sinks and all(sink._stream.closed for sink in sinks)
    assert read_log_jsonl(log)


def test_unopenable_log_leaves_telemetry_untouched(tiny_cli, tmp_path):
    previous, _sinks = tiny_cli
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    with pytest.raises(OSError):
        main(["detect", "--log", str(blocker / "run.jsonl")])
    assert get_telemetry() is previous
