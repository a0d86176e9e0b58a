"""The schema of every committed ``BENCH_*.json``.

``tools/bench_pairs.py`` writes one file per claim: alternating benchmark
runs in a parent and a change tree, with each side's commit, environment
line, runs and per-metric median and quartiles, and each metric's win
count, and, in files written since work counts were added, each side's
traced runs with every per-layer metric: one run in files without
``traced_runs``, the median of three in those with it; and, in files
written since digests were added, each side's report digest line for the
file's workload and seed.  Reading the files
costs milliseconds; the runs themselves stay out of the suite.  The
summaries and win counts are recomputed from the runs with the script's own
``summary`` and ``wins``; the run length and the workloads are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
END_TO_END = bench_pairs.declared(ROOT, "end_to_end")
PER_LAYER = bench_pairs.declared(ROOT, "per_layer")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
COUNTS = bench_pairs.counted(ROOT)
SIDES = bench_pairs.SIDES


def check_digests(bench: dict) -> None:
    """Both sides' digest lines, or neither's: each names the file's
    workload and seed, holds a sha256 and the op count per command, and
    the sides replayed the same ops."""
    digests = [bench[side].get("digest") for side in SIDES]
    if digests == [None, None]:
        return
    assert None not in digests, "one side has no digest"
    ops = []
    for line in digests:
        match = re.fullmatch(r"(\w+) seed (\d+): [0-9a-f]{64} \(([\w-]+ \d+(?:, [\w-]+ \d+)*)\)",
                             line)
        assert match, line
        assert (match[1], int(match[2])) == (bench["workload"], bench["seed"])
        ops.append(match[3])
    assert ops[0] == ops[1]


def check_trace(trace: dict) -> None:
    """A traced run: its outcome and every per-layer metric, each count a
    whole number and every value finite and nonnegative."""
    assert set(trace) == {"correct", "attempted", "failed", "metrics"}
    assert type(trace["correct"]) is bool and 0 <= trace["failed"] <= trace["attempted"]
    assert set(trace["metrics"]) == set(PER_LAYER)
    for name, value in trace["metrics"].items():
        assert type(value) is float and 0.0 <= value < math.inf, name
        assert name not in COUNTS or value == int(value), name


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert set(bench) - {"traced_runs"} == {"label", "workload", "seed", "pairs", "seconds",
                                            "script_s", "wins", *SIDES}
    assert path.name == f"BENCH_{bench['label']}.json"
    assert bench["workload"] in WORKLOADS
    assert bench["seconds"] == SPEC["run_seconds"] and bench["script_s"] > 0.0
    pairs = bench["pairs"]
    assert pairs >= 2
    values = {}
    traced = {"trace" in bench[side] for side in SIDES}
    assert len(traced) == 1  # both sides or neither
    if "traced_runs" in bench:  # files written before it hold one traced run per side
        assert traced == {True} and bench["traced_runs"] == bench_pairs.TRACED_RUNS
    for side in SIDES:
        info = bench[side]
        assert set(info) - {"digest"} == {"commit", "dirty", "environment", "runs", "metrics"} | (
            {"trace"} if traced == {True} else set())
        if "trace" in info:
            check_trace(info["trace"])
        assert re.fullmatch("[0-9a-f]{40}", info["commit"]) and type(info["dirty"]) is bool
        assert info["environment"].startswith("environment: nproc=")
        assert len(info["runs"]) == pairs
        for run in info["runs"]:
            assert set(run) == {"correct", "attempted", "failed", "metrics"}
            assert type(run["correct"]) is bool and 0 <= run["failed"] <= run["attempted"]
            assert set(run["metrics"]) == set(END_TO_END)
        values[side] = {name: [run["metrics"][name] for run in info["runs"]]
                        for name in END_TO_END}
        assert set(info["metrics"]) == set(END_TO_END)
        for name, runs in values[side].items():
            assert info["metrics"][name] == bench_pairs.summary(runs)
    check_digests(bench)
    assert set(bench["wins"]) == set(END_TO_END)
    for name, better in END_TO_END.items():
        assert bench["wins"][name] == bench_pairs.wins(values["parent"][name],
                                                       values["change"][name], better)


def test_a_trace_without_a_metric_or_with_a_fractional_count_is_refused():
    metrics = {name: 1.0 for name in PER_LAYER}
    check_trace({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics})
    count = sorted(COUNTS)[0]
    for bad in ({k: v for k, v in metrics.items() if k != count}, {**metrics, count: 1.5}):
        with pytest.raises(AssertionError):
            check_trace({"correct": True, "attempted": 2, "failed": 0, "metrics": bad})


def test_digests_name_the_run_and_match_in_their_ops():
    line = "probe seed 1: " + "0" * 64 + " (geodesic-probe 45, mod-cont 24, pipeline 3)"
    bench = {"workload": "probe", "seed": 1, "parent": {"digest": line}, "change": {"digest": line}}
    check_digests(bench)
    check_digests({"workload": "probe", "seed": 1, "parent": {}, "change": {}})
    for parent in (line.replace("seed 1", "seed 2"), line.replace("45", "44"),
                   line.replace(" (", "(")):
        with pytest.raises(AssertionError):
            check_digests({**bench, "parent": {"digest": parent}})
    with pytest.raises(AssertionError, match="one side has no digest"):
        check_digests({**bench, "parent": {}})


def test_traced_runs_merge_to_median_times_and_refuse_a_count_that_moves():
    counts = {"attempted", "failed", "a.calls"}
    runs = [{"correct": True, "attempted": 2, "failed": 0,
             "metrics": {"a.calls": 3.0, "a.self_s": t}} for t in (0.3, 0.1, 0.2)]
    assert bench_pairs.traced("parent", runs, counts) == {
        "correct": True, "attempted": 2, "failed": 0,
        "metrics": {"a.calls": 3.0, "a.self_s": 0.2}}
    runs[1]["metrics"]["a.calls"] = 4.0
    with pytest.raises(SystemExit, match=r"^change: a\.calls differs"):
        bench_pairs.traced("change", runs, counts)


def test_sides_run_from_fresh_clones_of_committed_trees(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()

    def git(*args: str) -> None:
        subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (tree / "run.py").write_text("1\n")
    git("add", "run.py")
    git("commit", "-qm", "one")
    (tree / "untracked.txt").write_text("kept out of the clone\n")
    head = bench_pairs.commit(tree)
    assert re.fullmatch("[0-9a-f]{40}", head["commit"]) and head["dirty"] is False
    clone = bench_pairs.fresh_clone(tree, head["commit"], tmp_path / "clone")
    assert sorted(p.name for p in clone.iterdir()) == [".git", "run.py"]
    (tree / "run.py").write_text("2\n")
    with pytest.raises(SystemExit, match="tree: uncommitted changes to tracked files"):
        bench_pairs.commit(tree)
