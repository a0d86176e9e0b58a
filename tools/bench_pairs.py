"""Run the benchmark in two source trees, in alternating pairs, and file the result.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --label L

Each tree is a git checkout with ``benchmarks/run.py`` and its package
under ``src/geodisc``, and its tracked files must be committed: the script
exits 1, naming the tree, when they differ from its HEAD.  Each side runs
from a fresh ``git clone`` of its tree's HEAD in a temporary directory,
removed afterwards, since a long-used checkout can read a few percent
slower than a new one of the same commit.  So PARENT and CHANGE may be one
tree, for an A/A file that reads the noise floor.  Pair k runs
``benchmarks/run.py --workload W --seed S --seconds T`` once in each clone,
each in a fresh interpreter, with T the ``run_seconds`` of
``BENCHMARK.json``; the parent runs first in even pairs and the change in
odd ones, so a slow phase of the machine falls on both sides alike.  The
benchmark and ``BENCHMARK.json`` are read, not changed.

``BENCH_<L>.json`` at the root of the checkout holding this script gets,
with sorted keys:

- ``parent`` and ``change``: the tree's commit (``dirty``, false since
  a dirty tree is refused), the environment line ``run.py`` prints, every
  run's ``correct``, ``attempted``, ``failed`` and end-to-end metrics in
  run order, and each metric's median and quartiles over the runs;
- ``trace`` in ``parent`` and ``change``: three more runs of the same seed
  per side with ``--trace 1``, after the pairs and in alternating order as
  they are (``traced_runs``, 3, at the top level), as one record: ``correct``
  when every run was, their ``attempted`` and ``failed``, and every
  per-layer metric of ``BENCHMARK.json``: each span's call count and each
  work count, and the median of each self time and of ``trace_overhead``.
  The counts do not depend on the machine, so a count that differs between
  the sides is a change in the work done, whatever the wall times say; one
  that differs between one side's own runs is work that does not repeat,
  and the script exits 1 naming it.  Files written before ``traced_runs``
  hold one traced run per side;
- ``digest`` in ``parent`` and ``change``: the line ``tools/replay_reports.py
  --digest TREE W S`` of this checkout prints for the side's tree, its
  workload and seed: a sha256 over the reports of the replay's ops and the
  op count per command.  Equal digests in one file mean equal reports on
  that machine; numpy picks its SIMD loops by CPU, so digests are not
  compared across machines.  Files written before it have none;
- ``wins``: per metric, the pairs each side won by the metric's declared
  direction; a tie counts for neither side;
- ``script_s``: this script's own wall time.

A file needs at least 2 pairs, so that it has quartiles; a claimed gain
needs at least 10.

Quartiles are ``statistics.quantiles(..., method="inclusive")``, numpy's
linear percentiles.  Wall times come from a shared, noisy machine: the
calibrated metrics hold still through its slow phases, raw times do not.
Compare environment lines before comparing two files.  A run takes 5 to
10 s on a 2-vCPU VM, so the runs stay out of the test suite; the suite
checks the schema of every committed ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
TRACED_RUNS = 3


def declared(tree: Path, kind: str) -> dict[str, str]:
    """Each metric of ``kind`` ("end_to_end" or "per_layer") in ``tree``'s
    BENCHMARK.json and its better direction, "higher" or "lower"."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec[kind]}


def counted(tree: Path) -> set[str]:
    """The per-layer metrics of ``tree``'s BENCHMARK.json that count work
    (unit "count" or "B"), and so repeat from run to run."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")}


def git(tree: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(tree), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed in {tree}:\n{proc.stderr}")
    return proc.stdout.strip()


def commit(tree: Path) -> dict:
    """``tree``'s HEAD; exits 1 naming the tree when tracked files differ from it."""
    if git(tree, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{tree}: uncommitted changes to tracked files")
    return {"commit": git(tree, "rev-parse", "HEAD"), "dirty": False}


def fresh_clone(tree: Path, head: str, into: Path) -> Path:
    """A new clone of ``tree`` at its HEAD, ``head``, in ``into``."""
    git(into.parent, "-c", "advice.detachedHead=false", "clone", "--quiet", str(tree), into.name)
    if git(into, "rev-parse", "HEAD") != head:
        raise SystemExit(f"the clone of {tree} is not at its HEAD {head}")
    return into


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> tuple[dict, str]:
    """One benchmark run in ``tree``, traced when ``trace`` is 1: its JSON
    result and its environment line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"benchmarks/run.py failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    environment = next(line for line in lines if line.startswith("environment:"))
    return result, environment


def summary(values: list[float]) -> dict[str, float]:
    """The median and quartiles of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> dict[str, int]:
    """Pairs won by each side; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    margins = [sign * (b - a) for a, b in zip(parent, change)]
    return {"parent": sum(m < 0.0 for m in margins), "change": sum(m > 0.0 for m in margins)}


def side(info: dict, runs: list[dict], environment: str, metrics: dict, trace: dict,
         digest: str) -> dict:
    values = {name: [run["metrics"][name] for run in runs] for name in metrics}
    return {**info, "environment": environment, "runs": runs,
            "metrics": {name: summary(v) for name, v in values.items()}, "trace": trace,
            "digest": digest}


def digest(tree: Path, workload: str, seed: int) -> str:
    """The report digest line of ``tree`` for ``workload`` and ``seed``, by
    this checkout's ``tools/replay_reports.py``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_reports.py"), "--digest", str(tree),
         workload, str(seed)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"tools/replay_reports.py --digest failed in {tree}:\n{proc.stderr}")
    return proc.stdout.strip()


def record(result: dict, metrics: dict) -> dict:
    """The part of one run's JSON result the file keeps."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name]["value"] for name in metrics}}


def traced(side: str, runs: list[dict], counts: set[str]) -> dict:
    """``side``'s traced runs, each as :func:`record` keeps it, as one
    record: ``correct`` when every run was, each of ``counts``, which must
    repeat, and the median of each other metric."""
    def merged(name: str, values: list[float]) -> float:
        if name not in counts:
            return statistics.median(values)
        if len(set(values)) > 1:
            raise SystemExit(f"{side}: {name} differs between its traced runs: {values}")
        return values[0]

    return {"correct": all(run["correct"] for run in runs),
            **{name: merged(name, [run[name] for run in runs]) for name in ("attempted", "failed")},
            "metrics": {name: merged(name, [run["metrics"][name] for run in runs])
                        for name in runs[0]["metrics"]}}


def alternating(rounds: int):
    """(k, side) for each side of each round k < ``rounds``: the parent
    first in even rounds, the change first in odd ones."""
    for k in range(rounds):
        for name in SIDES if k % 2 == 0 else SIDES[::-1]:
            yield k, name


def pairs(text: str) -> int:
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {count}")
    return count


def run_pairs(args: argparse.Namespace, trees: dict[str, Path], heads: dict[str, dict]) -> dict:
    """The file's record, but ``script_s``, from runs in ``trees``."""
    metrics = declared(trees["parent"], "end_to_end")
    runs = {name: [] for name in SIDES}
    environments = {}
    for k, name in alternating(args.pairs):
        result, environments[name] = run_once(trees[name], args.workload, args.seed)
        runs[name].append(record(result, metrics))
        print(f"pair {k + 1}/{args.pairs} {name}: "
              + " ".join(f"{m}={v:.4g}" for m, v in runs[name][-1]["metrics"].items()),
              file=sys.stderr)
    layers = declared(trees["parent"], "per_layer")
    traced_runs = {name: [] for name in SIDES}
    for _, name in alternating(TRACED_RUNS):
        result = run_once(trees[name], args.workload, args.seed, trace=1)[0]
        traced_runs[name].append(record(result, layers))
    counts = {"attempted", "failed"} | counted(trees["parent"])
    traces = {name: traced(name, traced_runs[name], counts) for name in SIDES}
    digests = {name: digest(trees[name], args.workload, args.seed) for name in SIDES}
    return {
        "label": args.label, "workload": args.workload, "seed": args.seed,
        "pairs": args.pairs, "seconds": SECONDS, "traced_runs": TRACED_RUNS,
        **{name: side(heads[name], runs[name], environments[name], metrics, traces[name],
                      digests[name]) for name in SIDES},
        "wins": {name: wins(*([run["metrics"][name] for run in runs[s]] for s in SIDES),
                            better) for name, better in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=pairs, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    sources = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    heads = {name: commit(tree) for name, tree in sources.items()}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {name: fresh_clone(tree, heads[name]["commit"], Path(tmp) / name)
                 for name, tree in sources.items()}
        bench = run_pairs(args, trees, heads)
    bench["script_s"] = round(time.perf_counter() - start, 1)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, sort_keys=True, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
