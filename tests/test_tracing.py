"""The benchmark tracer against the library it patches.

``benchmarks/tracing.py`` wraps geodisc functions and methods by name, so a
rename in the package would break ``--trace 1`` without failing any other
test.  Here a flat ``domain-radius`` op and a 64-node ``geodesic-probe`` op
run through ``cli.run`` inside a ``Tracer``: every traced name must exist,
the spans and work counts must be recorded, and every patched attribute
must be back afterwards.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import geodisc
from geodisc import cli, convex_geometry, disc_analysis, hardy_littlewood, kobayashi, numerics

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
MODULES = (geodisc, cli, convex_geometry, disc_analysis, hardy_littlewood, kobayashi, numerics)
FLAT = {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.111, "s0": 0.08}


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("geodisc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_cli_ops_and_restores_every_patch(monkeypatch, tmp_path):
    tracing = load_tracing(monkeypatch)
    assert {f"geodisc.{name}" for name in tracing.SPANNED} <= {m.__name__ for m in MODULES}
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    ops = [
        ("domain-radius", {"domain": FLAT, "point": [[0.0, 0.0], [0.0, 0.01]],
                           "direction": [[0.6, 0.0], [0.0, 0.8]]}),
        ("geodesic-probe", {"candidate": {"kind": "nonextending"}, "n_theta": 64}),
    ]
    with tracing.Tracer() as tracer:
        patches = list(tracer._patches)
        for command, cfg in ops:
            assert cli.run(command, dict(cfg, out=str(tmp_path / "report.json"))) in (0, 2)

    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    assert {m.__name__: dict(vars(m)) for m in MODULES} == before

    metrics = tracer.layer_metrics()
    assert metrics["cli.run.calls"] == 2
    assert metrics["convex_geometry.inscribed_disc_radius.calls"] == 1
    assert metrics["convex_geometry.signed_gap.flat_model.calls"] >= 1
    assert metrics["disc_analysis.boundary_samples.nodes"] == 64
    assert metrics["disc_analysis.modulus_profile.lag_pairs"] > 0
    assert metrics["cli.report_bytes"] > 0
