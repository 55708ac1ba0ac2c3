"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-small --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the checkout the
script sits in; without it the script exits with code 2 and prints no
result.  Set-up (imports, input generation with ``repro.datagen`` or
numpy, set-up fits) runs ``SETUP_REPEATS`` times and ``setup_s``
reports the import time plus the median set-up.  Then jobs run back to
back (closed loop, one client) until ``--seconds`` have passed, at least
one job.  Every job's outputs are checked; a job whose checks fail counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced jobs (at least one of
each) and reports the per-layer metrics of the traced ones, plus the
tracing overhead as traced over untraced median job time.  The spans
are written to ``perfbench/_work/traces/`` when the run ends.

The last line of standard output is the result object; the line before
it stamps the host.  Metric names and units come from ``BENCHMARK.json``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Each set-up is repeated this many times; ``setup_s`` takes the median.
#: Two, not more: a CERT set-up simulates for 4-10 s, and a full pass
#: (every workload, ten seeds, twice) has to fit in under an hour.
SETUP_REPEATS = 2

#: Program knobs that change the measured path; the benchmark pins them
#: by unsetting them and passing explicit values instead.
PROGRAM_KNOBS = (
    "ACOBE_NN_ARENA", "ACOBE_TELEMETRY", "ACOBE_SHARDS", "ACOBE_BENCH_JOBS",
    "ACOBE_BENCH_SCALE",
)
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)
NPROC = len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Unset the program's knobs and pin BLAS to one thread (before numpy loads).

    One thread, not nproc: on this job mix a second BLAS thread speeds
    predict up by at most 15% while doubling CPU time, and its spinning
    threads make timings swing whenever the host is shared.
    """
    for name in PROGRAM_KNOBS:
        os.environ.pop(name, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def filesystem_of(path: Path) -> str:
    """The type of the filesystem holding ``path``, from /proc/mounts."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and (target == fields[1] or target.startswith(fields[1].rstrip("/") + "/")):
            if len(fields[1]) >= len(best):
                best, kind = fields[1], fields[2]
    return kind


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from ``.git``; else 'none'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "checkpoint_fs": filesystem_of(WORK),
    }


def reset_peak_rss() -> None:
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # VmHWM then covers the whole process, set-up included


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect-small", "ingest-replay", "score-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program from it."""
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported repro from {repro.__file__}, not {SRC}")


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, run jobs for ``seconds`` and return the run's result fields."""
    import numpy as np

    from tracing import RowKeys, Tracer, instrumented, layer_metrics, layer_shares

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - start)

    tracer, row_keys = Tracer(), RowKeys()
    untraced, traced, failed, quality = [], [], 0, None
    counts: dict = {}
    gc.collect()
    reset_peak_rss()
    started = time.perf_counter()
    while True:
        gc.collect()
        trace_this = trace and len(untraced) > len(traced)
        if trace_this:
            with instrumented(tracer, row_keys):
                job = workload.run_once(tracer, row_keys)
        else:
            job = workload.run_once(tracer, row_keys)
        problems = workload.check(job)
        for problem in problems:
            print(f"check failed ({workload.name}, job {len(untraced) + len(traced)}): "
                  f"{problem}", file=sys.stderr)
        failed += bool(problems)
        quality = job.outputs.get("quality", quality)
        job.outputs = None
        if trace_this:
            traced.append(job)
            for name, value in job.counts.items():
                counts[name] = counts.get(name, 0) + value
        else:
            untraced.append(job)
        if time.perf_counter() - started >= seconds and (traced or not trace):
            break
    result = {
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "setup_runs_s": setup_times,
        "job_wall_s": [job.wall_s for job in untraced],
        "job_counts": [job.counts for job in untraced],
        "traced_job_wall_s": [job.wall_s for job in traced],
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        wall = sum(job.wall_s for job in traced)
        metrics = layer_metrics(tracer.spans, len(traced), wall, counts, row_keys)
        metrics["trace.overhead_ratio"] = (
            statistics.median(j.wall_s for j in traced)
            / statistics.median(j.wall_s for j in untraced)
        )
        metrics["quality.auc"], metrics["quality.ap"] = quality or (0.0, 0.0)
        result["layer_shares"] = layer_shares(tracer.spans, wall)
        result["tracer"] = tracer
    else:
        feeds = [feed for job in untraced for feed in job.day_latency_s]

        def day_latency_ms(q):
            return statistics.median(float(np.percentile(feed, q)) * 1e3 for feed in feeds)

        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "batch_s": statistics.median(job.batch_s for job in untraced),
            "day_latency_p50_ms": day_latency_ms(50),
            "day_latency_p90_ms": day_latency_ms(90),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    result["metrics"] = metrics
    return result


def result_line(result: dict, units: dict) -> dict:
    """The result object printed last; fails if the metrics differ from ``units``."""
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise KeyError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    import_program()
    import numpy as np

    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    units = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]("full", WORK)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), import_s)
    line = result_line(result, units)
    host = provenance(np)
    stamp = {"provenance": host, "workload": args.workload, "seed": args.seed,
             "jobs": result["attempted"]}
    stamp.update((key, result[key]) for key in (
        "setup_runs_s", "job_wall_s", "traced_job_wall_s", "job_counts"))
    if args.trace:
        stamp["layer_shares"] = result["layer_shares"]
        result["tracer"].dump(
            WORK / "traces" / f"{args.workload}-seed{args.seed}.json.gz", stamp
        )
    shutil.rmtree(WORK / "logs", ignore_errors=True)
    shutil.rmtree(WORK / "checkpoint", ignore_errors=True)
    print(json.dumps(stamp))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
