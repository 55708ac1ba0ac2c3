"""Self-check of the benchmark's own code, on tiny inputs (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

For each workload at the ``tiny`` size it runs the measurement loop with
tracing off and on, and asserts that every metric ``BENCHMARK.json``
declares is emitted, with its unit, as a finite number, and that the
uncorrupted jobs pass their checks.  Then it corrupts one job's outputs
in several ways (a permuted score row, a dropped day, a user ranked
twice, a miscounted ingest counter) and asserts that the workload's
checks report each corruption.  Exits 0 when everything holds.
"""

import copy
import math
import sys
import tempfile
from pathlib import Path

import run


def corruptions(name: str):
    """(label, function mutating a job's outputs) pairs for one workload."""

    def permute_row(scores):
        for array in scores.values():
            array[[0, 1]] = array[[1, 0]]
            return

    def drop_day(results):
        del results[sorted(results)[-1]]

    def rank_twice(investigation):
        investigation.entries[-1] = investigation.entries[0]

    if name == "detect-small":
        return [
            ("permuted batch score row", lambda o: permute_row(o["run"].scores)),
            ("dropped streamed day", lambda o: drop_day(o["results"])),
            ("user ranked twice", lambda o: rank_twice(o["run"].investigation)),
        ]
    if name == "ingest-replay":
        def permute_streamed(o):
            permute_row(o["results"][sorted(o["results"])[-1]].scores)

        def counter(field, delta):
            def mutate(o):
                setattr(o["ingestor"], field, getattr(o["ingestor"], field) + delta)
            return mutate

        return [
            ("permuted streamed score row", permute_streamed),
            ("dropped scored day", lambda o: drop_day(o["results"])),
            ("day left unsealed", counter("days_sealed", -1)),
            ("late delivery", counter("events_late", 1)),
            ("duplicate accepted", counter("events_duplicate", -1)),
        ]
    return [
        ("permuted batch score row", lambda o: permute_row(o["scores"])),
        ("dropped streamed day", lambda o: drop_day(o["results"])),
        ("user ranked twice", lambda o: rank_twice(o["investigation"])),
    ]


def main() -> int:
    run.import_program()
    from tracing import RowKeys, Tracer
    from workloads import WORKLOADS

    failures = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
        work = Path(scratch)
        for name, workload_class in WORKLOADS.items():
            for trace in (False, True):
                units = run.declared_metrics(trace)
                result = run.measure(workload_class("tiny", work), 5, 0.0, trace, 0.1)
                line = run.result_line(result, units)
                if not line["correct"]:
                    failures.append(f"{name}: tiny run failed its checks")
                for metric, entry in line["metrics"].items():
                    value = entry["value"]
                    if entry["unit"] != units[metric] or not isinstance(value, (int, float)) \
                            or not math.isfinite(value):
                        failures.append(f"{name}: metric {metric} = {entry}")
                print(f"{name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                      f"{line['attempted']} job(s)")

            workload = workload_class("tiny", work)
            workload.setup(5)
            job = workload.run_once(Tracer(), RowKeys())
            if workload.check(copy.deepcopy(job)):
                failures.append(f"{name}: clean job fails its checks")
            for label, corrupt in corruptions(name):
                broken = copy.deepcopy(job)
                corrupt(broken.outputs)
                problems = workload.check(broken)
                print(f"{name}: {label}: {problems[:1] or 'NOT DETECTED'}")
                if not problems:
                    failures.append(f"{name}: check missed a {label}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
