"""The benchmark tracer against the library it patches.

``benchmarks/tracing.py`` wraps geodisc functions and methods by name, so a
rename in the package would break ``--trace 1`` without failing any other
test.  Here a 64-node ``geodesic-probe`` op and one op of each command
whose handler a report rule builds around a spanned function run through
``cli.run`` inside a ``Tracer``, with an off-axis tilted ``domain-radius``
op for the circle-minimum kernel and a flat-model ``geodesic-defect`` op
for the chord's work: every traced name must exist, the spans and
work counts must be recorded, each rule-built command must call its
operation exactly once through the tracer's wrapper (the rules look it up
when the command runs), and every patched
attribute must be back afterwards.  The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import geodisc
from geodisc import cli, convex_geometry, disc_analysis, hardy_littlewood, kobayashi, numerics
from test_config_fuzz import FLAT, FLAT_SLICE

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
MODULES = (geodisc, cli, convex_geometry, disc_analysis, hardy_littlewood, kobayashi, numerics)
ON_FLAT = {"domain": FLAT, "point": [[0.0, 0.0], [0.0, 0.01]],
           "direction": [[0.6, 0.0], [0.0, 0.8]]}
# off the axis <z', v'> != 0, so the tilted radius takes the circle search
OFF_AXIS = dict(ON_FLAT, point=[[0.03, 0.0], [0.0, 0.03]])
SQUARE = {"kind": "polydisc", "radii": [1.0, 1.0]}
FLAT_DEFECT = {"candidate": {"kind": "flat_slice", "domain": FLAT, "center": [0.001, 0.04],
                             "radius": 0.035},
               "zeta1": [0.1, 0.2], "zeta2": [-0.3, 0.4]}

# rule-built command -> (config, the span of the operation it calls)
RULE_BUILT_OPS = {
    "hl-bound": ({"majorant": {"kind": "power", "r0": 0.5}, "delta": 0.1},
                 "hardy_littlewood.omega_bound"),
    "domain-distance": ({"domain": FLAT, "point": ON_FLAT["point"]},
                        "convex_geometry.boundary_distance"),
    "domain-radius": (ON_FLAT, "convex_geometry.inscribed_disc_radius"),
    "flat-x0": ({"C": 1.0, "alpha": 0.5}, "convex_geometry.x0_cap"),
    "rest-check": (ON_FLAT, "convex_geometry.rest_bound_check"),
    "graham": (ON_FLAT, "kobayashi.graham_bounds"),
    "geodesic-defect": ({"candidate": {"kind": "map", "map": {"kind": "pair_identity_zero"},
                                       "domain": SQUARE},
                         "zeta1": 0.0, "zeta2": 0.5}, "kobayashi.geodesic_defect"),
    "mercer-fit": ({"candidate": {"kind": "nonextending"}}, "kobayashi.mercer_fit"),
}


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
        ("geodesic-probe", {"candidate": {"kind": "nonextending"}, "n_theta": 64}, None),
        *((command, cfg, span) for command, (cfg, span) in RULE_BUILT_OPS.items()),
        ("domain-radius", OFF_AXIS, "convex_geometry.inscribed_disc_radius"),
        ("geodesic-defect", FLAT_DEFECT, "kobayashi.geodesic_defect"),
    ]
    with tracing.Tracer() as tracer:
        patches = list(tracer._patches)
        for command, cfg, span in ops:
            before_op = tracer.layer_metrics()
            assert cli.run(command, dict(cfg, out=str(tmp_path / "report.json"))) in (0, 2)
            moved = Counter(tracer.layer_metrics())
            moved.subtract(before_op)
            if span is not None:
                # the op called its operation once, through the wrapper
                assert moved[f"{span}.calls"] == 1, command
            if cfg is FLAT_DEFECT:
                # the chord reads 32 node radii with no base check: the
                # op's only membership tests are the two image checks
                assert moved["convex_geometry.signed_gap.flat_model.calls"] == 2
                assert moved["convex_geometry.inscribed_disc_radius.calls"] == 0
            if command in ("graham", "rest-check"):
                # one check of the base point, and the radius read past it
                assert moved["convex_geometry.signed_gap.flat_model.calls"] == 1, command
                assert moved["convex_geometry.inscribed_disc_radius.calls"] == 0, command

    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    assert {m.__name__: dict(vars(m)) for m in MODULES} == before

    metrics = tracer.layer_metrics()
    assert metrics["cli.run.calls"] == len(ops)
    # the two domain-radius ops are its only callers: graham and rest-check
    # read the radius past their own checks
    assert metrics["convex_geometry.inscribed_disc_radius.calls"] == 2
    assert metrics["numerics.minimize_on_circle.calls"] >= 1
    assert metrics["numerics.minimize_on_circle.objective_evals"] > 0
    assert metrics["convex_geometry.signed_gap.flat_model.calls"] >= 1
    assert metrics["disc_analysis.boundary_samples.nodes"] == 64
    assert metrics["disc_analysis.modulus_profile.lag_pairs"] > 0
    assert metrics["cli.report_bytes"] > 0


def test_image_stacks_take_one_membership_read(monkeypatch, tmp_path):
    # mercer_fit's 25 images and the pipeline's 64 properness images are one
    # stack each: one boundary_distance call and one signed_gap read, where
    # each image was its own call; the pipeline's other reads are the base
    # checks of its rest points and its own mercer_fit
    tracing = load_tracing(monkeypatch)
    ops = {"mercer-fit": ({"candidate": {"kind": "nonextending"}}, "polydisc", 1),
           "pipeline": ({"domain": FLAT, "candidate": FLAT_SLICE}, "flat_model", 2)}
    with tracing.Tracer() as tracer:
        for command, (cfg, kind, stacks) in ops.items():
            before_op = tracer.layer_metrics()
            assert cli.run(command, dict(cfg, out=str(tmp_path / "report.json"))) == 0
            moved = Counter(tracer.layer_metrics())
            moved.subtract(before_op)
            assert moved["convex_geometry.boundary_distance.calls"] == stacks, command
            rest = moved["convex_geometry.inscribed_disc_radius.calls"]
            assert rest == (4 if command == "pipeline" else 0)
            assert moved[f"convex_geometry.signed_gap.{kind}.calls"] == stacks + rest, command
