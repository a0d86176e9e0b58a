"""geodisc benchmark: seeded CLI workloads, closed loop, one client.

    python3 benchmarks/run.py --workload probe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each operation goes in-process
through ``geodisc.cli.run(command, cfg)`` with its report written to a
scratch directory under ``.bench_out/``, and every report is checked against
an independent reference.  The amount of work is fixed by the workload and
``--seconds`` (whole rounds, sized to last about that long on the reference
machine), never by the clock, so every run of a seed does the same work.

Operation latencies are reported in calibration units (``cal``): between
operations, at most every 20 ms, the client times a fixed calibration loop
(``calibration``), and an operation's latency is divided by the median loop
time over the half second around it, or by the loops just before and just
after it when it is longer.  The shared machine this benchmark was built on changes
speed by up to 1.6x in phases that last from seconds to minutes, longer
than a run; both timings move together, so their ratio holds still while
wall times do not.  Wall-clock figures are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
operations twice, untraced and then traced, and prints the per-layer
metrics; the spans go to ``.bench_out/spans-<workload>-<seed>.jsonl``.
The last line of standard output is the JSON result; the metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Rounds per 20 s of --seconds.  Each count puts at least 12 ops of the
# workload's slowest command in a run, so the tail latency (the 11th slowest
# op) falls inside that command's spread, not on the next command down.  On
# the reference machine (2 vCPU Xeon virtual machine, Python 3.11, numpy 2.4) these take
# about 23 s (probe), 21 s (flat_geometry) and 20 s (quick_verdicts) of
# operations at full speed, and up to 1.6 times that in its slow phases.
ROUNDS_PER_20S = {"probe": 6, "flat_geometry": 5, "quick_verdicts": 104}
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
CAL_HALF_WINDOW_S = 0.25
CAL_EVERY_S = 0.02
# The calibration loop's time on the reference machine at full speed.
CAL_REFERENCE_S = 2.3e-3
# Times the import, then the calibration loop in the same interpreter.
IMPORT_TIMER = """
import statistics, time
t = time.perf_counter()
import geodisc
seconds = time.perf_counter() - t
from calibration import calibration_loop
loops = []
for _ in range(7):
    t = time.perf_counter()
    calibration_loop()
    loops.append(time.perf_counter() - t)
print(seconds, statistics.median(loops))
"""


@dataclass(frozen=True)
class Record:
    command: str
    started: float  # perf_counter at the start of the operation
    seconds: float
    cal_seconds: float | None  # calibration loop timed just before, if it ran
    failure: object  # workloads.Failure | None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_20S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> tuple[float, float]:
    """(wall seconds, median calibration loop seconds) of importing geodisc
    in a fresh interpreter, the loop timed in that interpreter just after
    the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT / "benchmarks"))))
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, loop = done.stdout.split()
    return float(seconds), float(loop)


def read_report(path: Path, fmt: str):
    text = path.read_text()
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)["result"]


def run_ops(cli, ops, scratch: Path, tracer=None, import_samples=None) -> list[Record]:
    """Closed loop: each operation starts when the previous one returned.
    The calibration loop runs before an operation whenever CAL_EVERY_S has
    passed since it last ran.  Given a list ``import_samples``, SETUP_SAMPLES
    import times are appended to it, taken between operations spread evenly
    over the run, so that they see the machine's speed over the whole run."""
    from calibration import calibration_loop
    from workloads import Failure

    records = []
    last_cal = -math.inf
    imports_due = Counter()
    if import_samples is not None:
        imports_due.update(len(ops) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES))
    for i, op in enumerate(ops):
        for _ in range(imports_due[i]):
            import_samples.append(import_seconds())
        fmt = op.cfg.get("format", "json")
        path = scratch / f"report.{fmt}"
        cfg = dict(op.cfg, out=str(path))
        if tracer is not None:
            tracer.op_id = i
        cal = None
        now = time.perf_counter()
        if now - last_cal >= CAL_EVERY_S:
            calibration_loop()
            last_cal = time.perf_counter()
            cal = last_cal - now
        start = time.perf_counter()
        try:
            rc = cli.run(op.command, cfg)
        except Exception as exc:  # the op failed; the loop goes on
            records.append(Record(op.command, start, time.perf_counter() - start, cal,
                                  Failure(f"raised {type(exc).__name__}: {exc}")))
            continue
        elapsed = time.perf_counter() - start
        try:
            failure = op.check(rc, read_report(path, fmt))
        except (ArithmeticError, KeyError, TypeError, ValueError, IndexError) as exc:
            failure = Failure(f"malformed report: {type(exc).__name__}: {exc}")
        records.append(Record(op.command, start, elapsed, cal, failure))
    return records


def calibrated(records: list[Record]) -> list[float]:
    """Each latency over the median calibration time of the samples taken
    within CAL_HALF_WINDOW_S of the operation's midpoint, always including
    the samples just before and just after it.  The machine's speed changes
    within a second, so the nearest loops track it best: a millisecond
    operation is compared with the two dozen or so around it, a long one
    with the two that bracket it."""
    times = [r.started for r in records if r.cal_seconds is not None]
    cals = [r.cal_seconds for r in records if r.cal_seconds is not None]
    out = []
    for r in records:
        mid = r.started + r.seconds / 2.0
        after = bisect.bisect_right(times, r.started)
        lo = min(max(after - 1, 0), bisect.bisect_left(times, mid - CAL_HALF_WINDOW_S))
        hi = max(min(after + 1, len(times)), bisect.bisect_right(times, mid + CAL_HALF_WINDOW_S))
        out.append(r.seconds / statistics.median(cals[lo:hi]))
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    operations above it; the slowest operation when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, list[str]]:
    n = len(records)
    failed = sum(r.failure is not None for r in records)
    cal = calibrated(records)
    wall_ms = [1e3 * r.seconds for r in records]
    cal_ms = [1e3 * r.cal_seconds for r in records if r.cal_seconds is not None]
    tail_cal, pct = tail(cal)
    metrics = {
        "setup_s": setup_s,
        "ops_per_cal": n / sum(cal),
        "op_cal_p50": statistics.median(cal),
        "op_cal_tail": tail_cal,
        "ok_frac": 1.0 - failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"op_cal_tail is p{pct:.2f} over {n} ops ({TAIL_BEYOND} beyond it); "
        f"fail_frac {failed / n:.6f} ({failed} of {n})",
        f"wall clock: ops_per_s {n / sum(r.seconds for r in records):.4f}, "
        f"op_ms_p50 {statistics.median(wall_ms):.4f}, op_ms_tail {tail(wall_ms)[0]:.4f}, "
        f"calibration loop median {statistics.median(cal_ms):.4f} ms over {len(cal_ms)} runs",
    ]
    return metrics, notes


def describe(records: list[Record]) -> list[str]:
    lines = []
    by_command: dict[str, list[float]] = {}
    for r in records:
        by_command.setdefault(r.command, []).append(1e3 * r.seconds)
    for command, values in sorted(by_command.items()):
        lines.append(f"  {command:16s} n={len(values):5d}  median {statistics.median(values):9.3f} ms"
                     f"  max {max(values):9.3f} ms")
    failures = [r for r in records if r.failure is not None]
    defects = Counter(r.failure.known_defect or "new failure" for r in failures)
    lines.append(f"failures: {len(failures)}; by cause: {dict(defects)}")
    shown = Counter()
    for r in failures:
        key = (r.command, r.failure.known_defect)
        if shown[key] < 3:
            tag = "known defect" if r.failure.known_defect else "FAIL"
            lines.append(f"  {tag} {r.command}: {r.failure.reason}")
        shown[key] += 1
    return lines


def environment() -> str:
    import numpy

    pins = " ".join(f"{name}={os.environ.get(name)}" for name in THREAD_PINS)
    return (f"environment: nproc={os.cpu_count()} machine={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} {pins}")


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geodisc" / "__init__.py").is_file():
        print(f"error: no geodisc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in THREAD_PINS})  # before numpy loads
    sys.path.insert(0, str(SRC))

    from geodisc import cli
    import tracing
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported geodisc from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_seconds()  # untimed: leaves the bytecode cache warm
    rounds = max(1, round(ROUNDS_PER_20S[args.workload] * args.seconds / 20.0))
    if args.trace:
        rounds = max(1, rounds // 2)  # two passes over the same operations
    ops = workloads.build(args.workload, args.seed, rounds)

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        import_samples: list[tuple[float, float]] = []
        records = run_ops(cli, ops, scratch, import_samples=import_samples)
        # in seconds at the reference machine's speed
        setup_s = statistics.median(t * CAL_REFERENCE_S / loop for t, loop in import_samples)
        import_wall_s = statistics.median(t for t, _ in import_samples)
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = run_ops(cli, ops, scratch, tracer)
            metrics = tracer.layer_metrics()
            metrics["trace_overhead"] = sum(calibrated(traced)) / sum(calibrated(records))
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_spans(str(spans_path))
            notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
            records += traced
            declared = declared_metrics("per_layer")
        else:
            metrics, notes = end_to_end(records, setup_s)
            declared = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mix = Counter(op.command for op in ops)
    print(f"geodisc benchmark: workload={args.workload} seed={args.seed} rounds={rounds} "
          f"ops={len(ops)} trace={args.trace} setup_s={setup_s:.4f} "
          f"(wall clock {import_wall_s:.4f})")
    print(environment())
    print("op mix: " + ", ".join(f"{c} x{k}" for c, k in sorted(mix.items())))
    print("\n".join(notes + describe(records)))

    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    failed = [r for r in records if r.failure is not None]
    result = {
        "correct": all(r.failure.known_defect for r in failed),  # known defects only
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
