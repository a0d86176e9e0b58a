"""The schema of every committed ``BENCH_*.json``.

``tools/bench_pairs.py`` writes one file per claim: alternating benchmark
runs in a parent and a change tree, with each side's commit, environment
line, runs and per-metric median and quartiles, and each metric's win
count.  Reading the files costs milliseconds; the runs themselves stay out
of the suite.  The summaries and win counts are recomputed from the runs
with the script's own ``summary`` and ``wins``.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
END_TO_END = bench_pairs.end_to_end(ROOT)
SIDES = bench_pairs.SIDES


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert set(bench) == {"label", "workload", "seed", "pairs", "seconds", "script_s", "wins",
                          *SIDES}
    assert path.name == f"BENCH_{bench['label']}.json"
    assert bench["workload"] in ("probe", "flat_geometry", "quick_verdicts")
    assert bench["seconds"] == 20 and bench["script_s"] > 0.0
    pairs = bench["pairs"]
    assert pairs >= 2
    values = {}
    for side in SIDES:
        info = bench[side]
        assert set(info) == {"commit", "dirty", "environment", "runs", "metrics"}
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
    assert set(bench["wins"]) == set(END_TO_END)
    for name, better in END_TO_END.items():
        assert bench["wins"][name] == bench_pairs.wins(values["parent"][name],
                                                       values["change"][name], better)
