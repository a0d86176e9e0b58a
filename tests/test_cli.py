"""CLI harness: dispatch, validation, exit codes, report reproducibility."""

from __future__ import annotations

import ast
import errno
import importlib
import inspect
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geodisc import cli
from geodisc.cli import ConfigError, main, parse
from geodisc.convex_geometry import (
    Ball,
    FlatModelDomain,
    HalfspaceIntersection,
    Polydisc,
    boundary_distance,
)
from test_config_fuzz import FLAT, FLAT_SLICE, not_json, run

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, command, cfg, fmt="json", name="report.json"):
    """``command`` on ``cfg`` with its report at ``tmp_path / name``, judged
    by the fuzz's :func:`run`: the exit code and the report path.  A problem
    ``run`` finds fails the calling test; the run's stderr is written back
    to ``sys.stderr``, where ``capsys`` reads it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    code, _, problems, err = run(
        [command, "--config", str(config), "--out", str(out), "--format", fmt]
    )
    sys.stderr.write(err)
    assert not problems, problems
    return code, out


def test_hl_bound_constant_majorant(tmp_path):
    cfg = {
        "majorant": {"kind": "power", "coefficient": 1.0, "exponent": 0.0, "r0": 0.5},
        "delta": 0.1,
    }
    code, out = run_cli(tmp_path, "hl-bound", cfg)
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["result"]["omega_bound"] - 0.3) < 1e-9


def test_hl_l1_divergent_family_exit_code(tmp_path):
    cfg = {
        "majorant": {"kind": "family", "K1": 1.0, "K2": math.e, "alpha": 1.0, "r0": 0.5},
        "n": 0,
    }
    code, out = run_cli(tmp_path, "hl-l1", cfg)
    assert code == 2
    assert json.loads(out.read_text())["result"]["verdict"] == "diverged"


def test_hl_l1_of_a_subnormal_family_reads_the_closed_form(tmp_path):
    # int_0^(1/4) Phi = K1 / log 100 = 439.5 units 2^-1074; with the nodes
    # left to underflow the report read 2.18e-321, 441 units
    cfg = {"majorant": {"kind": "family", "K1": 1e-320, "K2": 25.0, "alpha": 0.5, "r0": 0.25}}
    code, out = run_cli(tmp_path, "hl-l1", cfg)
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["verdict"] == "converged" and result["value"] == 2.174e-321
    assert abs(result["value"] - 1e-320 / math.log(100.0)) <= math.ldexp(1.0, -1074)


def test_hl_l1_at_the_least_subnormal_r0(tmp_path):
    # int_0^r0 1 dx = r0 = 5e-324; the lower end log(1 / r0) overflowed, and
    # the report read "diverged" with the non-JSON "estimated_error": Infinity
    cfg = {"majorant": {"kind": "power", "r0": 5e-324}}
    code, out = run_cli(tmp_path, "hl-l1", cfg)
    assert code == 0
    result = json.loads(out.read_text(), parse_constant=not_json)["result"]
    assert result["verdict"] == "converged" and result["value"] == 5e-324


def test_hl_bound_of_a_vanishing_power_majorant(tmp_path):
    # Phi = x^1.7e308 reads 0 at every node; a probe of the density outside
    # the quadrature's error state warned of the overflow of its exponent
    cfg = {"majorant": {"kind": "power", "r0": 0.5, "exponent": 1.7e308}, "delta": 0.1}
    assert cli.run("hl-bound", dict(cfg, out=str(tmp_path / "report.json"))) == 0
    assert json.loads((tmp_path / "report.json").read_text())["result"]["omega_bound"] == 0.0


@pytest.mark.parametrize("coefficient", [5e-324, 1e-310])
def test_hl_verify_of_a_subnormal_majorant_fails_without_a_warning(tmp_path, coefficient):
    # |f'| = 1 over a subnormal Phi: the scaled violation overflows to inf
    cfg = {"function": {"kind": "identity"},
           "majorant": {"kind": "power", "r0": 0.5, "coefficient": coefficient}}
    assert cli.run("hl-verify", dict(cfg, out=str(tmp_path / "report.json"))) == 2
    assert json.loads((tmp_path / "report.json").read_text())["result"]["verified"] is False


@pytest.mark.xfail(strict=True, reason="an absolute cap of 1e50 on the value reads "
                   "growth as divergence (ROADMAP item 4)")
def test_hl_l1_large_convergent_power_majorant(tmp_path):
    # int_0^(1/2) 1e60 x^(-1/2) dx = 1e60 sqrt(2), finite, yet the first
    # halving passes the cap and the command exits 2, "diverged"
    cfg = {"majorant": {"kind": "power", "r0": 0.5, "coefficient": 1e60, "exponent": -0.5}}
    code, out = run_cli(tmp_path, "hl-l1", cfg)
    assert code == 0
    value = json.loads(out.read_text())["result"]["value"]
    assert value == pytest.approx(1e60 * math.sqrt(2.0), rel=1e-12)


def test_flat_x0_value(tmp_path):
    code, out = run_cli(tmp_path, "flat-x0", {"C": 1.0, "alpha": 1.0})
    assert code == 0
    assert json.loads(out.read_text())["result"]["x0"] == 0.5


def test_flat_rho_value(tmp_path):
    cfg = {"d": 0.1, "slope": 1.0, "C": 1.0, "alpha": 1.0}
    code, out = run_cli(tmp_path, "flat-rho", cfg)
    assert code == 0
    assert abs(json.loads(out.read_text())["result"]["rho"] - 0.09995) < 1e-4


def test_flat_rho_root_where_the_flatness_term_is_nil(tmp_path):
    # C phi_alpha(0.5) = e^{-2^800} is 0, so rho = d; the solver's steps
    # stay where rho^-800 is finite
    cfg = {"d": 0.5, "slope": 1, "C": 1, "alpha": 800}
    code, out = run_cli(tmp_path, "flat-rho", cfg)
    assert code == 0
    assert json.loads(out.read_text())["result"]["rho"] == 0.5


def test_geodesic_probe_fails_exit_two(tmp_path):
    cfg = {"candidate": {"kind": "nonextending"}, "n_theta": 2048}
    code, out = run_cli(tmp_path, "geodesic-probe", cfg)
    assert code == 2
    assert json.loads(out.read_text())["result"]["verdict"] == "fails"


def test_geodesic_defect_identity_pair(tmp_path):
    cfg = {
        "candidate": {
            "kind": "map",
            "map": {"kind": "pair_identity_zero"},
            "domain": {"kind": "polydisc", "radii": [1.0, 1.0]},
        },
        "zeta1": [0.0, 0.0],
        "zeta2": [0.5, 0.0],
    }
    code, out = run_cli(tmp_path, "geodesic-defect", cfg)
    assert code == 0
    assert json.loads(out.read_text())["result"]["defect"] <= 1e-12


def test_domain_radius_csv_output(tmp_path):
    cfg = {
        "domain": {"kind": "polydisc", "radii": [1.0, 1.0]},
        "point": [[0.5, 0.0], [0.0, 0.0]],
        "direction": [[1.0, 0.0], [0.0, 0.0]],
    }
    code, out = run_cli(tmp_path, "domain-radius", cfg, fmt="csv", name="r.csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "radius"
    assert abs(float(lines[1]) - 0.5) < 1e-9


def test_domain_radius_at_a_boundary_point_outside_is_zero(tmp_path):
    # membership counts a point 5e-13 outside as on the boundary; the radius
    # there read -5e-13
    cfg = {"domain": {"kind": "polydisc", "radii": [1, 1]},
           "point": [[1.0000000000005, 0], 0], "direction": [1, 0]}
    code, out = run_cli(tmp_path, "domain-radius", cfg)
    assert code == 0
    assert json.loads(out.read_text())["result"]["radius"] == 0.0


# Each disc piece squared its offset and radius unscaled (a RuntimeWarning
# is an error here, as in CI).
DISC_SCALES = {
    # read "radius": Infinity, not JSON
    "radius of a huge polydisc": (
        "domain-radius",
        {"domain": {"kind": "polydisc", "radii": [1e200]}, "point": [0], "direction": [1]},
        "radius", 1e200,
    ),
    # read 0.0: the radius's square underflowed
    "radius of a tiny polydisc": (
        "domain-radius",
        {"domain": {"kind": "polydisc", "radii": [1e-170]}, "point": [0], "direction": [1]},
        "radius", 1e-170,
    ),
    "radius of a tiny ball": (
        "domain-radius",
        {"domain": {"kind": "ball", "center": [0, 0], "radius": 1e-200},
         "point": [0, 0], "direction": [1, 0]},
        "radius", 1e-200,
    ),
    # the gap's norm overflowed: a RuntimeWarning, or "base point outside domain"
    "distance in a huge ball": (
        "domain-distance",
        {"domain": {"kind": "ball", "center": [0, 0], "radius": 1e160}, "point": [5e159, 0]},
        "distance", 5e159,
    ),
    # read 1e-200: the offset's square underflowed to 0
    "distance in a tiny ball": (
        "domain-distance",
        {"domain": {"kind": "ball", "center": [0, 0], "radius": 1e-200}, "point": [5e-201, 0]},
        "distance", 5e-201,
    ),
    # read (0, 0): the radius was inf
    "graham in a huge polydisc": (
        "graham",
        {"domain": {"kind": "polydisc", "radii": [1e200, 1e200]},
         "point": [0, 0], "direction": [1, 0]},
        "upper", 1e-200,
    ),
}


@pytest.mark.parametrize("case", sorted(DISC_SCALES))
def test_disc_pieces_scale_with_their_radius(tmp_path, case):
    command, cfg, key, expected = DISC_SCALES[case]
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 0
    result = json.loads(out.read_text(), parse_constant=not_json)["result"]
    assert result[key] == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_log_dini_check_and_rerun_reproducibility(tmp_path):
    cfg = {"modulus": {"kind": "holder", "a": 1.0}, "n_max": 3}
    code, out = run_cli(tmp_path, "log-dini", cfg)
    assert code == 0
    first = out.read_text()
    code, out = run_cli(tmp_path, "log-dini", cfg)
    assert code == 0
    assert out.read_text() == first  # byte-identical rerun


def test_log_dini_divergent_exit_two(tmp_path):
    cfg = {"modulus": {"kind": "log_reciprocal"}, "n_max": 1}
    code, _ = run_cli(tmp_path, "log-dini", cfg)
    assert code == 2


def test_log_dini_past_the_double_range_exits_one(tmp_path, capsys):
    # from n of about 1020 the tail's first level overflows; the orders
    # before it run 128 to a pass, so memory stays bounded
    cfg = {"modulus": {"kind": "log_reciprocal"}, "n_max": 20000}
    code, out = run_cli(tmp_path, "log-dini", cfg)
    assert code == 1
    assert capsys.readouterr().err == "geodisc: error: numeric overflow (overflow encountered in exp)\n"
    assert not out.exists()


def test_pz_bound_delta_above_one(tmp_path):
    cfg = {"modulus": {"kind": "holder", "a": 1.0}, "delta": 1.5}
    code, out = run_cli(tmp_path, "pz-bound", cfg)
    assert code == 0
    value = json.loads(out.read_text())["result"]["pz_bound"]
    assert value == pytest.approx(1.5 * (1.0 + math.log(math.pi / 1.5)), rel=1e-10)


def test_conjugate_round_trip(tmp_path):
    cfg = {"function": {"kind": "identity"}, "n": 64, "real_part": True}
    code, out = run_cli(tmp_path, "conjugate", cfg)
    assert code == 0
    values = json.loads(out.read_text())["result"]["values"]
    # conjugate of cos theta (the real part of the identity trace) is sin
    assert abs(values[16][0] - math.sin(2 * math.pi * 16 / 64)) < 1e-6


def test_rest_check_pass(tmp_path):
    cfg = {
        "domain": {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.111, "s0": 0.1},
        "point": [[0.0, 0.0], [0.0, 0.01]],
        "direction": [[1.0, 0.0], [0.0, 0.0]],
    }
    code, out = run_cli(tmp_path, "rest-check", cfg)
    assert code == 0
    assert json.loads(out.read_text())["result"]["satisfied"] is True


def test_pipeline_command(tmp_path):
    cfg = {
        "domain": {
            "kind": "flat_model", "C": 1.0, "alpha": 0.5,
            "R0": 0.111, "s0": 0.08,
        },
        "candidate": {
            "kind": "flat_slice",
            "domain": {
                "kind": "flat_model", "C": 1.0, "alpha": 0.5,
                "R0": 0.111, "s0": 0.08,
            },
            "center": [0.0, 0.04],
            "radius": 0.04,
        },
    }
    code, out = run_cli(tmp_path, "pipeline", cfg)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["ok"] is True


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = {"C": 1.0, "alpha": 1.0, "banana": 3}
    code, _ = run_cli(tmp_path, "flat-x0", cfg)
    assert code == 1
    assert "banana" in capsys.readouterr().err


def test_missing_key_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "flat-rho", {"d": 0.1, "slope": 1.0, "C": 1.0})
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_graham_command(tmp_path):
    cfg = {
        "domain": {"kind": "ball", "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0},
        "point": [[0.0, 0.0], [0.0, 0.0]],
        "direction": [[1.0, 0.0], [0.0, 0.0]],
    }
    code, out = run_cli(tmp_path, "graham", cfg)
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert abs(result["lower"] - 0.5) < 1e-9
    assert abs(result["upper"] - 1.0) < 1e-9


def test_mod_cont_profile_csv(tmp_path):
    cfg = {"function": {"kind": "identity"}, "n": 96, "deltas": [0.5, 1.0, 2.0]}
    code, out = run_cli(tmp_path, "mod-cont", cfg, fmt="csv", name="prof.csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,omega"
    assert len(lines) == 4


@pytest.mark.parametrize("coefficient", [1e200, 1e-170])
def test_mod_cont_scales_with_the_function(tmp_path, coefficient):
    # the sweep squared raw differences: 1e200 z overflowed to Infinity and
    # 1e-170 z underflowed to an omega of 0
    def omegas(c):
        function = {"kind": "monomial", "degree": 1, "coefficient": c}
        cfg = {"function": function, "n": 1024, "deltas": [0.0062, 0.098]}
        code, out = run_cli(tmp_path, "mod-cont", cfg)
        assert code == 0
        return np.array(json.loads(out.read_text())["result"]["omegas"])

    unit = omegas(1.0)
    assert np.all(np.abs(omegas(coefficient) - coefficient * unit) <= 1e-13 * coefficient * unit)


# Every command with one config and its exact JSON and CSV reports.  The CSV
# headers of `graham`, `mercer-fit` and `rest-check` follow the field order of
# their result dataclasses.  The `delta`, `omega` and `theta` cells of
# `mod-cont`, `conjugate` and `geodesic-probe` are numpy floats, written as
# plain floats.
PINNED_REPORTS = {
    "hl-bound": (
        {"majorant": {"kind": "power", "r0": 0.5}, "delta": 0.1},
        '{\n  "command": "hl-bound",\n  "result": {\n    "omega_bound": 0.30000000000000016\n  }\n}\n',
        "omega_bound\n0.30000000000000016\n",
    ),
    "domain-distance": (
        {"domain": {"kind": "polydisc", "radii": [1.0, 0.5]}, "point": [0.25, [0.0, 0.125]]},
        '{\n  "command": "domain-distance",\n  "result": {\n    "distance": 0.375\n  }\n}\n',
        "distance\n0.375\n",
    ),
    "domain-radius": (
        {"domain": {"kind": "polydisc", "radii": [1.0, 1.0]}, "point": [0.5, 0.0],
         "direction": [1.0, 0.0]},
        '{\n  "command": "domain-radius",\n  "result": {\n    "radius": 0.5\n  }\n}\n',
        "radius\n0.5\n",
    ),
    "flat-x0": (
        {"C": 1.0, "alpha": 1.0},
        '{\n  "command": "flat-x0",\n  "result": {\n    "x0": 0.5\n  }\n}\n',
        "x0\n0.5\n",
    ),
    "flat-rho": (
        {"d": 0.1, "slope": 1.0, "C": 1.0, "alpha": 1.0},
        '{\n  "command": "flat-rho",\n  "result": {\n    "rho": 0.09995480488512752\n  }\n}\n',
        "rho\n0.09995480488512752\n",
    ),
    "geodesic-defect": (
        {"candidate": {"kind": "map", "map": {"kind": "pair_identity_zero"},
                       "domain": {"kind": "polydisc", "radii": [1.0, 1.0]}},
         "zeta1": 0.0, "zeta2": 0.5},
        '{\n  "command": "geodesic-defect",\n  "result": {\n    "defect": 0.0\n  }\n}\n',
        "defect\n0.0\n",
    ),
    "graham": (
        {"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
         "point": [0.0, 0.0], "direction": [1.0, 0.0]},
        '{\n  "command": "graham",\n  "result": {\n    "lower": 0.5,\n    "upper": 1.0\n'
        '  }\n}\n',
        "lower,upper\n0.5,1.0\n",
    ),
    "mercer-fit": (
        {"candidate": {"kind": "map", "map": {"kind": "identity"},
                       "domain": {"kind": "polydisc", "radii": [1.0]}}},
        '{\n  "command": "mercer-fit",\n  "result": {\n    "C1": 1.0,\n    "C2": 1.0,\n'
        '    "beta": 1.0,\n    "clamped": false,\n    "residual": 0.0\n  }\n}\n',
        "C1,C2,beta,residual,clamped\n1.0,1.0,1.0,0.0,False\n",
    ),
    "hl-verify": (
        {"function": {"kind": "monomial", "degree": 2},
         "majorant": {"kind": "power", "r0": 0.5, "coefficient": 2.0}},
        '{\n  "command": "hl-verify",\n  "result": {\n'
        '    "max_violation": -9.999999999976694e-05,\n    "verified": true,\n'
        '    "worst_r": 0.99995,\n    "worst_theta": 0.0\n  }\n}\n',
        "max_violation,worst_r,worst_theta,verified\n"
        "-9.999999999976694e-05,0.99995,0.0,True\n",
    ),
    "hl-l1": (
        {"majorant": {"kind": "family", "K1": 1.0, "K2": math.e, "alpha": 0.5, "r0": 0.5}},
        '{\n  "command": "hl-l1",\n  "result": {\n'
        '    "estimated_error": 2.1873123420791273e-10,\n    "refinement_levels": 33,\n'
        '    "value": 0.5906161091496412,\n    "verdict": "converged"\n  }\n}\n',
        "value,verdict,refinement_levels,estimated_error\n"
        "0.5906161091496412,converged,33,2.1873123420791273e-10\n",
    ),
    "mod-cont": (
        {"function": {"kind": "identity"}, "n": 32, "deltas": [0.4, 1.0]},
        '{\n  "command": "mod-cont",\n  "result": {\n    "cauchy_fraction": 1.0,\n'
        '    "deltas": [\n      0.39269908169872414,\n      0.9817477042468103\n    ],\n'
        '    "omegas": [\n      0.3901806207756785,\n      0.9427934174571257\n    ]\n  }\n'
        "}\n",
        "delta,omega\n0.39269908169872414,0.3901806207756785\n"
        "0.9817477042468103,0.9427934174571257\n",
    ),
    "conjugate": (
        {"function": {"kind": "identity"}, "n": 8, "real_part": True},
        '{\n  "command": "conjugate",\n  "result": {\n    "n": 8,\n    "values": [\n'
        "      [\n        -1.570092458683775e-16,\n        0.0\n      ],\n      [\n"
        "        0.707106739039699,\n        0.0\n      ],\n      [\n"
        "        0.9999999403953554,\n        0.0\n      ],\n      [\n"
        "        0.7071067390396991,\n        0.0\n      ],\n      [\n"
        "        1.570092458683775e-16,\n        0.0\n      ],\n      [\n"
        "        -0.707106739039699,\n        0.0\n      ],\n      [\n"
        "        -0.9999999403953554,\n        0.0\n      ],\n      [\n"
        "        -0.7071067390396991,\n        0.0\n      ]\n    ]\n  }\n}\n",
        "theta,re,im\n0.0,-1.570092458683775e-16,0.0\n"
        "0.7853981633974483,0.707106739039699,0.0\n"
        "1.5707963267948966,0.9999999403953554,0.0\n"
        "2.356194490192345,0.7071067390396991,0.0\n"
        "3.141592653589793,1.570092458683775e-16,0.0\n"
        "3.9269908169872414,-0.707106739039699,0.0\n"
        "4.71238898038469,-0.9999999403953554,0.0\n"
        "5.497787143782138,-0.7071067390396991,0.0\n",
    ),
    "pz-bound": (
        {"modulus": {"kind": "holder", "a": 0.5}, "delta": 0.25},
        '{\n  "command": "pz-bound",\n  "result": {\n    "finite": true,\n'
        '    "pz_bound": 1.7179052082261217\n  }\n}\n',
        "pz_bound,finite\n1.7179052082261217,True\n",
    ),
    "log-dini": (
        {"modulus": {"kind": "holder", "a": 1.0}, "n_max": 2},
        '{\n  "command": "log-dini",\n  "result": {\n    "log_dini": true,\n'
        '    "n_max": 2,\n    "note": "finite surrogate: tested n <= n_max only",\n'
        '    "verdicts": [\n      "converged",\n      "converged",\n      "converged"\n'
        "    ]\n  }\n}\n",
        "n,verdict,value\n0,converged,1.0\n1,converged,0.9999999999999999\n"
        "2,converged,1.9999999999999998\n",
    ),
    "rest-check": (
        {"domain": dict(FLAT, s0=0.1), "point": [0.0, [0.0, 0.01]], "direction": [1.0, 0.0]},
        '{\n  "command": "rest-check",\n  "result": {\n    "bound": 0.09430584850580695,\n'
        '    "d": 0.01,\n    "margin": 0.047153924252903476,\n'
        '    "radius": 0.047152924252903475,\n    "satisfied": true\n  }\n}\n',
        "d,radius,bound,satisfied,margin\n"
        "0.01,0.047152924252903475,0.09430584850580695,True,0.047153924252903476\n",
    ),
    "geodesic-probe": (
        {"candidate": {"kind": "map", "map": {"kind": "identity"},
                       "domain": {"kind": "polydisc", "radii": [1.0]}}, "n_theta": 16},
        '{\n  "command": "geodesic-probe",\n  "result": {\n    "cauchy_fraction": 1.0,\n'
        '    "omega_min": 0.3901806207756785,\n    "verdict": "inconclusive"\n  }\n}\n',
        "delta,omega\n0.39269908169872414,0.3901806207756785\n"
        "0.7853981633974483,0.7653668191107602\n1.5707963267948966,1.4142134780793985\n"
        "3.141592653589793,1.9999998807907107\n",
    ),
    "pipeline": (
        {"domain": FLAT, "candidate": FLAT_SLICE},
        '{\n  "command": "pipeline",\n  "result": {\n    "ok": true,\n    "stages": [\n'
        '      {\n        "details": {\n          "max_distance": 0.04,\n'
        '          "threshold": 0.05\n        },\n        "name": "properness",\n'
        '        "status": "pass"\n      },\n      {\n        "details": {\n'
        '          "points": 4,\n          "rows": [\n            {\n'
        '              "bound": 0.019502936932521975,\n'
        '              "d": 3.999999999999837e-05,\n'
        '              "radius": 3.999999999999837e-05\n            },\n            {\n'
        '              "bound": 0.028568891906741542,\n'
        '              "d": 0.00023241832217901076,\n'
        '              "radius": 0.00023241832217901076\n            },\n            {\n'
        '              "bound": 0.028568891906741542,\n'
        '              "d": 0.00023241832217901076,\n'
        '              "radius": 0.00023241832217901076\n            },\n            {\n'
        '              "bound": 0.039439114896020554,\n'
        '              "d": 0.0008078201950869127,\n'
        '              "radius": 0.0008078201950869127\n            }\n          ]\n'
        '        },\n        "name": "rest_bound",\n        "status": "pass"\n      },\n'
        '      {\n        "details": {\n          "C1": 0.03999999999167333,\n'
        '          "C2": 0.04000000000105926,\n          "K1": 4.0,\n'
        '          "K2": 24.999999999337962,\n          "alpha": 0.5,\n'
        '          "beta": 1.0,\n          "max_violation": -0.7148739527946454,\n'
        '          "r0": 0.25\n        },\n'
        '        "name": "majorant_fit",\n        "status": "pass"\n      },\n      {\n'
        '        "details": {\n          "converged": true,\n          "note": null,\n'
        '          "value": 0.868588963811499\n        },\n'
        '        "name": "majorant_integrable",\n        "status": "pass"\n      },\n'
        '      {\n        "details": {\n          "omega_min": 6.135922184214123e-05,\n'
        '          "verdict": "extends (numerically)"\n        },\n'
        '        "name": "extension_probe",\n        "status": "pass"\n      }\n    ]\n'
        "  }\n}\n",
        "stage,status\nproperness,pass\nrest_bound,pass\nmajorant_fit,pass\n"
        "majorant_integrable,pass\nextension_probe,pass\n",
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_reports_are_pinned(tmp_path, command):
    cfg, json_text, csv_text = PINNED_REPORTS[command]
    for fmt, expected in (("json", json_text), ("csv", csv_text)):
        code, out = run_cli(tmp_path, command, cfg, fmt=fmt, name=f"report.{fmt}")
        assert code == 0
        assert out.read_text() == expected


@pytest.mark.parametrize("value, text", [
    (np.float64(0.1), "0.1"), (np.int64(3), "3"), (np.bool_(True), "true"),
])
def test_numpy_scalars_are_written_as_python_values(tmp_path, monkeypatch, value, text):
    monkeypatch.setattr(cli.cg, "x0_cap", lambda **args: value)
    code, out = run_cli(tmp_path, "flat-x0", {"C": 1.0, "alpha": 1.0})
    assert code == 0
    assert out.read_text() == '{\n  "command": "flat-x0",\n  "result": {\n    "x0": %s\n  }\n}\n' % text
    code, out = run_cli(tmp_path, "flat-x0", {"C": 1.0, "alpha": 1.0}, fmt="csv")
    assert out.read_text() == f"x0\n{value.item()}\n"


def test_oversized_grid_exits_one_out_of_memory(tmp_path):
    # address space capped at 2 GiB in the child, so the 2**40-node grids
    # fail at allocation and nothing large is ever touched
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def cap_memory():
        limit = 2 * 1024**3
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit if hard < 0 else min(limit, hard)))

    ops = [
        ("mod-cont", {"function": {"kind": "identity"}, "n": 2**40, "deltas": [0.5]}),
        ("geodesic-probe", {"candidate": {"kind": "nonextending"}, "n_theta": 2**40}),
    ]
    for command, cfg in ops:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from geodisc.cli import main; sys.exit(main())",
             command, "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("geodisc: error: out of memory ("), lines
        assert done.stdout == ""


# --- the report writer -------------------------------------------------------

X0 = {"C": 1.0, "alpha": 0.5}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_rerun_replaces_the_old_report(tmp_path, capsys, fmt):
    (tmp_path / "out").mkdir()
    name = f"out/report.{fmt}"
    reports = []
    for C in (1.0, 2.0):
        code, out = run_cli(tmp_path, "flat-x0", dict(X0, C=C), fmt=fmt, name=name)
        assert code == 0
        reports.append(out.read_bytes())
    assert main(["flat-x0", "--config", str(tmp_path / "config.json"), "--format", fmt]) == 0
    assert reports[1] == capsys.readouterr().out.encode() != reports[0]
    assert os.listdir(tmp_path / "out") == [f"report.{fmt}"]


def test_a_failed_write_leaves_the_old_report(tmp_path, capsys, monkeypatch):
    (tmp_path / "out").mkdir()
    code, out = run_cli(tmp_path, "flat-x0", X0, name="out/report.json")
    assert code == 0
    old = out.read_bytes()

    def no_space(data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_disk(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "x" in mode:  # the temp file of the report
            fh.write = no_space
        return fh

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    code, out = run_cli(tmp_path, "flat-x0", dict(X0, C=2.0), name="out/report.json")
    assert code == 1
    assert capsys.readouterr().err == (
        f"geodisc: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out}'\n")
    assert out.read_bytes() == old
    assert os.listdir(tmp_path / "out") == ["report.json"]


def test_an_interrupted_write_removes_its_temp_file(tmp_path, monkeypatch):
    # an exception that is not an OSError passes through main as it is
    (tmp_path / "out").mkdir()
    code, out = run_cli(tmp_path, "flat-x0", X0, name="out/report.json")
    assert code == 0
    old = out.read_bytes()

    def interrupt(data):
        raise KeyboardInterrupt

    def interrupted(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "x" in mode:
            fh.write = interrupt
        return fh

    monkeypatch.setattr(cli, "open", interrupted, raising=False)
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, "flat-x0", dict(X0, C=2.0), name="out/report.json")
    assert out.read_bytes() == old
    assert os.listdir(tmp_path / "out") == ["report.json"]


def test_a_write_error_names_the_report_path(tmp_path, capsys):
    # it named the temp file, whose random name changed from run to run
    errors = []
    for _ in range(2):
        code, out = run_cli(tmp_path, "flat-x0", X0, name="missing/report.json")
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"geodisc: error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n")
    assert os.listdir(tmp_path) == ["config.json"]


def test_an_out_that_is_a_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "out" / "report.json"
    target.mkdir(parents=True)
    (target / "kept.txt").write_text("kept")
    code, _ = run_cli(tmp_path, "flat-x0", X0, name="out/report.json")
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.endswith(f": '{target}'\n"), err
    assert os.listdir(tmp_path / "out") == ["report.json"]
    assert os.listdir(target) == ["kept.txt"] and (target / "kept.txt").read_text() == "kept"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_report_takes_the_umask_mode(tmp_path, umask, mode):
    # every report was written 0o600, whatever the umask
    old = os.umask(umask)
    try:
        code, out = run_cli(tmp_path, "flat-x0", X0)
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("planted", ["stale file", "link", "dangling link"])
def test_a_file_at_the_temp_name_is_refused_by_that_name(tmp_path, capsys, planted):
    code, out = run_cli(tmp_path, "flat-x0", X0)
    assert code == 0
    config, tmp = tmp_path / "config.json", tmp_path / f"report.json.{os.getpid()}.tmp"
    config.write_text(json.dumps(dict(X0, C=2.0)))
    target = tmp_path / "target.txt"
    if planted == "stale file":
        tmp.write_text("stale")
    else:
        tmp.symlink_to(target)
        if planted == "link":
            target.write_text("kept")

    def snapshot():
        return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
                for p in tmp_path.iterdir()}

    before = snapshot()
    assert main(["flat-x0", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"geodisc: error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{tmp}'\n")
    assert snapshot() == before


# --- usage -------------------------------------------------------------------

# Each exited 2 from argparse with a usage block, as a failed verdict does.
USAGE_ERRORS = {
    "unknown command": (["nosuch"], "unknown command 'nosuch'"),
    "no command": ([], "the following arguments are required: command"),
    "unknown option": (["flat-x0", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    "unknown format": (["flat-x0", "--config", "{config}", "--format", "xml"],
                       "format: expected 'json' or 'csv', got 'xml'"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_usage_error_exits_one_with_one_line(tmp_path, capsys, case):
    argv, message = USAGE_ERRORS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(X0))
    assert main([arg.format(config=config) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"geodisc: error: {message}\n")


def test_help_exits_zero_and_lists_the_commands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # no command name is wrapped at its hyphen
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli.COMMANDS)


# --- config schema -----------------------------------------------------------

BOX = [
    {"a": [[1.0, 0.0]], "b": 1.0},
    {"a": [[-1.0, 0.0]], "b": 1.0},
    {"a": [[0.0, 1.0]], "b": 1.0},
    {"a": [[0.0, -1.0]], "b": 1.0},
]
ORIGIN = [[0.0, 0.0], [0.0, 0.0]]


def test_domain_specs_build_domains():
    poly = parse(cli.DOMAIN, {"kind": "polydisc", "radii": [1.0, 0.5]}, "domain")
    assert isinstance(poly, Polydisc) and poly.radii == (1.0, 0.5)

    ball = parse(
        cli.DOMAIN,
        {"kind": "ball", "center": [[0.0, 0.0], [0.1, -0.2]], "radius": 2.0},
        "domain",
    )
    assert isinstance(ball, Ball) and ball.radius == 2.0

    flat = parse(
        cli.DOMAIN,
        {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.1, "s0": 0.1},
        "domain",
    )
    assert isinstance(flat, FlatModelDomain)

    box = parse(cli.DOMAIN, {"kind": "halfspace_intersection", "constraints": BOX}, "domain")
    assert isinstance(box, HalfspaceIntersection)
    assert abs(boundary_distance(box, [0.0]) - 1.0) < 1e-12

    with pytest.raises(ConfigError, match="unknown domain kind"):
        parse(cli.DOMAIN, {"kind": "torus"}, "domain")
    with pytest.raises(ConfigError, match="domain.banana: unknown key"):
        parse(cli.DOMAIN, {"kind": "polydisc", "radii": [1, 1], "banana": 1}, "domain")


def test_every_function_kind_names_a_built_in_map_of_disc_analysis():
    # the nonextending kind was a lambda here that built a whole candidate
    # for its map, and the monomial, the identity/zero pair and the
    # automorphism were built in cli and kobayashi
    for kind, (build, _) in cli.FUNCTION.kinds.items():
        assert build.__module__ == "geodisc.disc_analysis", kind


def test_the_cli_builds_no_map_of_its_own():
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"UnitDiscFunction", "stack_components", "multiply"}


# Each config was read wrongly without an error, or escaped as a traceback.
BAD_CONFIGS = {
    "list for a number": (
        "hl-bound",
        {"majorant": {"kind": "power", "r0": 0.5}, "delta": [0.1]},
        "delta:",
    ),
    "number for a list": (
        "domain-distance",
        {"domain": {"kind": "polydisc", "radii": 3}, "point": [[0.0, 0.0]]},
        "domain.radii:",
    ),
    "unknown domain key": (
        "domain-distance",
        {"domain": {"kind": "polydisc", "radii": [1, 1], "banana": 1}, "point": ORIGIN},
        "domain.banana:",
    ),
    "unknown constraint key": (
        "domain-distance",
        {
            "domain": {
                "kind": "halfspace_intersection",
                "constraints": [dict(BOX[0], c=5), *BOX[1:]],
            },
            "point": [[0.0, 0.0]],
        },
        "domain.constraints[0].c:",
    ),
    "string for a boolean": (
        "conjugate",
        {"function": {"kind": "identity"}, "n": 64, "real_part": "no"},
        "real_part:",
    ),
    "fraction for a count": (
        "geodesic-probe",
        {"candidate": {"kind": "nonextending"}, "n_theta": 2048.7},
        "n_theta:",
    ),
    "boolean for a count": (
        "hl-l1",
        {"majorant": {"kind": "family", "K1": 1.0, "K2": math.e, "alpha": 0.5, "r0": 0.5},
         "n": True},
        "n:",
    ),
    "construction on a map candidate": (
        "geodesic-defect",
        {
            "candidate": {"kind": "map", "map": {"kind": "identity"},
                          "domain": {"kind": "polydisc", "radii": [1.0]},
                          "construction": "custom"},
            "zeta1": 0.0,
            "zeta2": 0.5,
        },
        "candidate.construction:",
    ),
    "mod-cont without deltas": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 64},
        "deltas: missing key",
    ),
    "mod-cont scalar delta": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 64, "delta": 0.5},
        "delta: unknown key",
    ),
    "rest-check tolerance": (
        "rest-check",
        {"domain": FLAT, "point": [0, [0, 0.01]], "direction": [1, 0], "tol": 1e-6},
        "tol: unknown key",
    ),
    "geodesic-probe extension tolerance": (
        "geodesic-probe",
        {"candidate": {"kind": "nonextending"}, "n_theta": 64, "tol_ext": 1e-3},
        "tol_ext: unknown key",
    ),
    "pipeline properness threshold": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "properness_threshold": 0.05},
        "properness_threshold: unknown key",
    ),
    "pipeline probe grid": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "probe_n_theta": 4096},
        "probe_n_theta: unknown key",
    ),
    "pipeline alpha override": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "majorant_alpha_override": 1.0},
        "majorant_alpha_override: unknown key",
    ),
    "command key": (
        # the command comes from the command line alone
        "flat-x0", {"command": "flat-x0", "C": 1.0, "alpha": 0.5}, "command: unknown key",
    ),
    "pipeline domain mismatch": (
        "pipeline",
        {"domain": FLAT, "candidate": dict(FLAT_SLICE, domain=dict(FLAT, C=2.0))},
        "candidate domain does not match the pipeline domain",
    ),
    "triple for a complex number": (
        "domain-distance",
        {"domain": {"kind": "ball", "center": [[0, 0, 1], [0, 0]], "radius": 1.0},
         "point": ORIGIN},
        "domain.center[0]:",
    ),
    "string for a spec": (
        "domain-distance",
        {"domain": "polydisc", "point": [[0.0, 0.0]]},
        "domain:",
    ),
    "zero conjugate grid": (
        "conjugate",
        {"function": {"kind": "identity"}, "n": 0},
        "grid size must be at least 8",
    ),
    "zero probe grid": (
        "geodesic-probe",
        {"candidate": {"kind": "nonextending"}, "n_theta": 0},
        "grid size must be at least 8",
    ),
    "negative modulus grid": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": -1, "deltas": [0.5]},
        "grid size must be at least 8",
    ),
    "small modulus grid": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 4, "deltas": [0.5]},
        "n: grid size must be at least 8",
    ),
    "small conjugate grid": (
        "conjugate",
        {"function": {"kind": "identity"}, "n": 4},
        "n: grid size must be at least 8",
    ),
    "conjugate grid not a power of two": (
        "conjugate",
        {"function": {"kind": "identity"}, "n": 96},
        "n: grid size must be a power of two",
    ),
    "small probe grid": (
        "geodesic-probe",
        {"candidate": {"kind": "nonextending"}, "n_theta": 7},
        "n_theta: grid size must be at least 8",
    ),
    "empty ball center": (
        "domain-distance",
        {"domain": {"kind": "ball", "center": [], "radius": 1.0}, "point": []},
        "domain:",
    ),
    "NaN polydisc radius": (
        "domain-distance",
        {"domain": {"kind": "polydisc", "radii": [math.nan, 1]}, "point": ORIGIN},
        "domain.radii[0]: expected a finite number, got nan",
    ),
    "infinite ball radius": (
        "domain-radius",
        {"domain": {"kind": "ball", "center": ORIGIN, "radius": math.inf},
         "point": ORIGIN, "direction": [1, 0]},
        "domain.radius: expected a finite number, got inf",
    ),
    "NaN imaginary part": (
        "domain-distance",
        {"domain": {"kind": "polydisc", "radii": [1, 1]}, "point": [[0.0, math.nan], 0.0]},
        "point[0]:",
    ),
    "integer beyond the double range": (
        "hl-bound",
        {"majorant": {"kind": "power", "r0": 0.5}, "delta": 10**400},
        "delta: expected a finite number",
    ),
    "empty constant map": (
        "hl-verify",
        {"function": {"kind": "constant", "values": []},
         "majorant": {"kind": "power", "r0": 0.5}},
        "function:",
    ),
    "monomial degree beyond the double range": (
        "hl-verify",
        {"function": {"kind": "monomial", "degree": 10**400},
         "majorant": {"kind": "power", "r0": 0.5}},
        "function:",
    ),
    "negative power majorant for hl-bound": (
        "hl-bound",
        {"majorant": {"kind": "power", "r0": 0.5, "coefficient": -1}, "delta": 0.1},
        "majorant:",
    ),
    "negative power majorant for hl-l1": (
        "hl-l1",
        {"majorant": {"kind": "power", "r0": 0.5, "coefficient": -1}},
        "majorant:",
    ),
    "overflowing majorant for hl-verify": (
        "hl-verify",
        {"function": {"kind": "identity"},
         "majorant": {"kind": "power", "r0": 0.5, "exponent": -800}},
        "numeric overflow",
    ),
    "overflowing majorant for hl-bound": (
        "hl-bound",
        {"majorant": {"kind": "power", "r0": 0.5, "exponent": -800}, "delta": 0.1},
        "numeric overflow",
    ),
    "overflowing log moment": (
        "hl-l1",
        {"majorant": {"kind": "family", "K1": 1, "K2": 2, "alpha": 0.5, "r0": 0.5},
         "n": 100000},
        "numeric overflow",
    ),
    "overflowing pz bound": (
        "pz-bound",
        {"modulus": {"kind": "holder", "a": 1.0}, "delta": 3.0, "K": 1e308},
        "numeric overflow",
    ),
    "overflowing modulus of continuity": (
        # the true omega near delta 2.95 is about 2e308; it was written as Infinity
        "mod-cont",
        {"function": {"kind": "monomial", "degree": 1, "coefficient": 1e308},
         "n": 64, "deltas": [0.5, 3.0]},
        "numeric overflow",
    ),
    "overflowing flatness exponent": (
        "flat-rho",
        {"d": 0.1, "slope": 1, "C": 1, "alpha": 800},
        "numeric overflow",
    ),
    "overflowing flat root": (
        "flat-rho",
        {"d": 1e3, "slope": 1e-306, "C": 1, "alpha": 0.5},
        "numeric overflow",
    ),
    "flat model past the convexity cap": (
        "domain-distance",
        {"domain": {"kind": "flat_model", "C": 1.0, "alpha": 0.05, "R0": 1e-12, "s0": 0.05},
         "point": [0, [0, 0.01]]},
        "R0 exceeds the convexity cap",
    ),
    "short direction": (
        "domain-radius",
        {"domain": {"kind": "ball", "center": ORIGIN, "radius": 1}, "point": ORIGIN,
         "direction": [1]},
        "direction",
    ),
    "long direction for graham": (
        "graham",
        {"domain": {"kind": "ball", "center": ORIGIN, "radius": 1}, "point": ORIGIN,
         "direction": [1, 0, 0]},
        "direction",
    ),
    "long direction for rest-check": (
        "rest-check",
        {"domain": FLAT, "point": [0, [0, 0.01]], "direction": [1, 0, 0]},
        "direction",
    ),
    "graham zero direction outside": (
        "graham",
        {"domain": {"kind": "polydisc", "radii": [1, 1]}, "point": [5, 5], "direction": [0, 0]},
        "base point outside domain",
    ),
    "graham long zero direction": (
        "graham",
        {"domain": {"kind": "polydisc", "radii": [1, 1]}, "point": ORIGIN,
         "direction": [0, 0, 0]},
        "direction has wrong dimension",
    ),
    "graham at a boundary point": (
        "graham",
        {"domain": {"kind": "polydisc", "radii": [1, 1]}, "point": [[1.0000000000005, 0], 0],
         "direction": [1, 0]},
        "point on the boundary",
    ),
    "overflowing mercer-fit constants": (
        "mercer-fit",
        {"candidate": {"kind": "map", "map": {"kind": "identity"},
                       "domain": {"kind": "polydisc", "radii": [1.7e308]}}},
        "numeric overflow",
    ),
    "mercer-fit image outside the domain": (
        "mercer-fit",
        {"candidate": {"kind": "map", "map": {"kind": "monomial", "degree": 2, "coefficient": 2},
                       "domain": {"kind": "polydisc", "radii": [1.0]}}},
        "image point outside domain",
    ),
    "pipeline image outside the domain": (
        "pipeline",
        {"domain": FLAT, "candidate": dict(FLAT_SLICE, radius=0.5)},
        "image point outside domain",
    ),
    "rest-check nearest a box cap": (
        "rest-check",
        {"domain": FLAT, "point": [0, [0.075, 0.04]], "direction": [1, 0]},
        "point not in the boundary zone of the flat graph",
    ),
    "rest-check nearest the cylinder wall": (
        "rest-check",
        {"domain": dict(FLAT, R0=1 / 9, s0=0.1), "point": [0.1, [0.085, 0.07]],
         "direction": [0, 1]},
        "point not in the boundary zone of the flat graph",
    ),
    "geodesic-defect image on the boundary": (
        "geodesic-defect",
        {"candidate": {"kind": "map", "map": {"kind": "constant", "values": [1.0]},
                       "domain": {"kind": "ball", "center": [0], "radius": 1}},
         "zeta1": 0.0, "zeta2": 0.5},
        "image point on the boundary",
    ),
}


def test_config_nested_past_the_recursion_limit_exits_one(tmp_path, capsys):
    # json.load raised RecursionError with a traceback; the text is written
    # as is, since json.dumps of so deep a value recurses too
    config = tmp_path / "config.json"
    config.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "report.json"
    assert main(["flat-rho", "--config", str(config), "--out", str(out)]) == 1
    assert "config nested too deeply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, case):
    command, cfg, key = BAD_CONFIGS[case]
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


POWER = {"kind": "power", "r0": 0.5}
FAMILY = {"kind": "family", "K1": 1.0, "K2": math.e, "alpha": 0.5, "r0": 0.5}
HOLDER = {"kind": "holder", "a": 0.5}


def _distance(domain: dict, point=(0,)) -> tuple[str, dict]:
    return "domain-distance", {"domain": domain, "point": list(point)}


# f' = 5 * 1.7e308 z^4 is past the double range: hl-verify warned and wrote
# "max_violation": Infinity with exit 2
HL_VERIFY_OVERFLOW = {
    "function": {"kind": "monomial", "degree": 5, "coefficient": [1.7e308, 0.1]},
    "majorant": {"kind": "power", "coefficient": 4.0, "exponent": 0.0, "r0": 0.377},
}
# the box |Re z_k|, |Im z_k| <= 1 in C^2, the first normal 1 + 5e-324 i, cut
# by Re(0.6 z_1 + 0.8 z_2) <= 0.545
SUBNORMAL_BOX = [
    {"a": [[1, 5e-324], 0], "b": 1}, {"a": [-1, 0], "b": 1},
    {"a": [[0, 1], 0], "b": 1}, {"a": [[0, -1], 0], "b": 1},
    {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 1},
    {"a": [0, [0, 1]], "b": 1}, {"a": [0, [0, -1]], "b": 1},
    {"a": [0.6, 0.8], "b": 0.545},
]


# The library's own rejections, each reached through the CLI: case ->
# (command, config, the library's message, or the result of a row that exits 0).
LIBRARY_REJECTIONS = {
    "polydisc without radii": (*_distance({"kind": "polydisc", "radii": []}),
                               "polydisc needs at least one radius"),
    "polydisc radius 0": (*_distance({"kind": "polydisc", "radii": [1, 0]}, [0, 0]),
                          "polydisc radii must be positive"),
    "ball without a center": (*_distance({"kind": "ball", "center": [], "radius": 1}),
                              "ball center must have at least one coordinate"),
    "ball radius 0": (*_distance({"kind": "ball", "center": [0], "radius": 0}),
                      "ball radius must be positive"),
    "no halfspaces": (*_distance({"kind": "halfspace_intersection", "constraints": []}),
                      "need at least one halfspace"),
    "halfspaces of mixed dimensions": (
        *_distance({"kind": "halfspace_intersection",
                    "constraints": [{"a": [1], "b": 1}, {"a": [1, 0], "b": 1}]}),
        "inconsistent constraint dimensions"),
    "halfspace normal 0": (
        *_distance({"kind": "halfspace_intersection", "constraints": [{"a": [0], "b": 1}]}),
        "halfspace normal must be nonzero"),
    "interior point outside": (
        *_distance({"kind": "halfspace_intersection", "constraints": BOX,
                    "interior_point": [5]}),
        "interior point is not inside"),
    "flat model C 0": (*_distance(dict(FLAT, C=0), [0, 0]), "C, R0, s0 must be positive"),
    "flat model alpha 1": (*_distance(dict(FLAT, alpha=1), [0, 0]),
                           "alpha must lie in (0, 1)"),
    "flat model R0 past the cap": (*_distance(dict(FLAT, R0=0.2), [0, 0]),
                                   "R0 exceeds the convexity cap of the graph"),
    "flat model dimension 1": (*_distance(dict(FLAT, dimension=1), [0]),
                               "flat model needs dimension at least 2"),
    "point of the wrong dimension": (*_distance({"kind": "polydisc", "radii": [1, 1]}),
                                     "point has wrong dimension"),
    "spec without a kind": (*_distance({"radii": [1]}), "domain.kind: missing key"),
    "config not an object": ("flat-x0", [1], "config must be a JSON object"),
    "holder exponent 2": ("pz-bound", {"modulus": dict(HOLDER, a=2), "delta": 0.5},
                          "holder exponent must lie in (0, 1]"),
    "stretched exponential eps 1": (
        "pz-bound", {"modulus": {"kind": "stretched_exponential", "coeff": 1, "eps": 1},
                     "delta": 0.5},
        "need coeff > 0 and eps in (0, 1)"),
    "majorant r0 1": ("hl-l1", {"majorant": dict(POWER, r0=1)}, "r0 must lie in (0, 1)"),
    "family K1 0": ("hl-l1", {"majorant": dict(FAMILY, K1=0)}, "K1, K2, alpha must be positive"),
    "family r0 past K2": ("hl-l1", {"majorant": dict(FAMILY, K2=0.5, r0=0.6)},
                          "need r0 in (0, min(1, K2))"),
    "automorphism outside the disc": (
        "mod-cont", {"function": {"kind": "automorphism", "a": 2}, "deltas": [0.1]},
        "automorphism parameter must lie inside the disc"),
    "monomial of negative degree": (
        "mod-cont", {"function": {"kind": "monomial", "degree": -1}, "deltas": [0.1]},
        "monomial degree must be nonnegative"),
    "flat-x0 C 0": ("flat-x0", {"C": 0, "alpha": 0.5}, "C and alpha must be positive"),
    "flat-rho d 0": ("flat-rho", {"d": 0, "slope": 1, "C": 1, "alpha": 0.5},
                     "d must be positive"),
    "flat-rho slope -1": ("flat-rho", {"d": 0.1, "slope": -1, "C": 1, "alpha": 0.5},
                          "slope must be nonnegative"),
    "flat-rho alpha 0": ("flat-rho", {"d": 0.1, "slope": 1, "C": 1, "alpha": 0},
                         "C and alpha must be positive"),
    "pz-bound delta 0": ("pz-bound", {"modulus": HOLDER, "delta": 0}, "delta out of range"),
    "pz-bound K 0": ("pz-bound", {"modulus": HOLDER, "delta": 0.5, "K": 0},
                     "K must be positive"),
    "log-dini n_max -1": ("log-dini", {"modulus": HOLDER, "n_max": -1},
                          "n_max must be nonnegative"),
    "hl-l1 n -1": ("hl-l1", {"majorant": POWER, "n": -1}, "n must be nonnegative"),
    "hl-bound delta at r0": ("hl-bound", {"majorant": POWER, "delta": 0.5},
                             "delta must lie in [0, r0)"),
    "mod-cont delta past pi": ("mod-cont", {"function": {"kind": "identity"}, "deltas": [4]},
                               "delta out of range"),
    "mod-cont deltas below the grid": (
        "mod-cont", {"function": {"kind": "identity"}, "n": 64, "deltas": [1e-3]},
        "all deltas below grid resolution"),
    "conjugate of a map into C^2": (
        "conjugate", {"function": {"kind": "pair_identity_zero"}, "n": 64},
        "conjugate requires one component, got 2"),
    "mercer-fit image on the boundary": (
        "mercer-fit",
        {"candidate": {"kind": "map", "map": {"kind": "constant", "values": [1]},
                       "domain": {"kind": "polydisc", "radii": [1]}}},
        "image touches boundary"),
    # an ||v|| / r or a K2 past the largest double wrote Infinity and exited 0 or 2
    "graham past the double range": (
        "graham", {"domain": FLAT, "point": [0, [0, 5e-324]], "direction": [0, 1]},
        "numeric overflow (||v|| / r exceeds the largest double)"),
    "geodesic-defect chord past the double range": (
        "geodesic-defect",
        {"candidate": {"kind": "map",
                       "map": {"kind": "monomial", "degree": 1, "coefficient": 1e300},
                       "domain": {"kind": "halfspace_intersection", "interior_point": [-1e299],
                                  "constraints": [{"a": [1], "b": 0}, {"a": [-1], "b": 1e300},
                                                  {"a": [[0, 1]], "b": 1e300},
                                                  {"a": [[0, -1]], "b": 1e300}]}},
         "zeta1": [-1e-311, 0.1], "zeta2": [-1e-311, 0.5]},
        "numeric overflow (||v|| / r exceeds the largest double)"),
    "pipeline K2 past the double range": (
        "pipeline", {"domain": dict(FLAT, R0=5e-324),
                     "candidate": dict(FLAT_SLICE, domain=dict(FLAT, R0=5e-324))},
        "numeric overflow (K2 = (C/C2)^beta exceeds the largest double)"),
    "hl-verify derivative past the double range": ("hl-verify", HL_VERIFY_OVERFLOW,
                                                   "numeric overflow ("),
    # a point many radii outside a disc or the graph's cylinder overflowed
    # its gap, or its scaled offset, with a warning before it was rejected
    "polydisc radius 1e-300 at 0.5": (
        *_distance({"kind": "polydisc", "radii": [1e-300, 1]}, [0.5, 0.5]),
        "base point outside domain"),
    "polydisc radius 5e-324 at 0.5": (
        *_distance({"kind": "polydisc", "radii": [5e-324, 1]}, [0.5, 0.5]),
        "base point outside domain"),
    "unit bidisc at 1e300": (*_distance({"kind": "polydisc", "radii": [1, 1]}, [1e300, 0.5]),
                             "base point outside domain"),
    "flat model at 1e300": (*_distance(FLAT, [1e300, [0, 0.01]]), "base point outside domain"),
    # not rejections: both ends of these are well defined
    # the boundedness check divided by zero in det on its subnormal entry
    "box with a subnormal normal entry": (
        *_distance({"kind": "halfspace_intersection", "constraints": SUBNORMAL_BOX}, [0, 0]),
        {"distance": 0.545}),
    # a redundant row's radius quotient past the largest double reads inf
    # and loses the minimum, whatever numpy's error state
    "geodesic-defect with one piece's radius past the double range": (
        "geodesic-defect",
        {"candidate": {"kind": "map", "map": {"kind": "pair_identity_zero"},
                       "domain": {"kind": "halfspace_intersection",
                                  "constraints": [
                                      {"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 1},
                                      {"a": [[0, 1], 0], "b": 1}, {"a": [[0, -1], 0], "b": 1},
                                      {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 1},
                                      {"a": [0, [0, 1]], "b": 1}, {"a": [0, [0, -1]], "b": 1},
                                      {"a": [1e-10, 1], "b": 1e300}]}},
         "zeta1": 0, "zeta2": 0.5},
        {"defect": 0.0}),
    "hl-bound at delta 0": ("hl-bound", {"majorant": POWER, "delta": 0}, {"omega_bound": 0.0}),
    "graham of v = 0": ("graham", {"domain": {"kind": "polydisc", "radii": [1]},
                                   "point": [0], "direction": [0]},
                        {"lower": 0.0, "upper": 0.0}),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REJECTIONS))
def test_library_rejections_exit_one_with_one_line(tmp_path, capsys, case):
    command, cfg, expected = LIBRARY_REJECTIONS[case]
    code, out = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    if isinstance(expected, dict):
        assert (code, err) == (0, "")
        assert json.loads(out.read_text())["result"] == expected
        return
    assert code == 1
    assert len(err.splitlines()) == 1 and expected in err
    assert not out.exists()


def test_a_numeric_fault_exits_one_whatever_the_warnings_filter(tmp_path, capsys):
    # its LIBRARY_REJECTIONS row runs under the suite's error::RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        code, out = run_cli(tmp_path, "hl-verify", HL_VERIFY_OVERFLOW)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("geodisc: error: numeric overflow ("), err
    assert not out.exists()


def test_flat_model_fields_reject_other_domains(tmp_path, capsys):
    cfg = {
        "candidate": dict(FLAT_SLICE, domain={"kind": "polydisc", "radii": [1.0, 1.0]}),
        "zeta1": [0.0, 0.0],
        "zeta2": [0.5, 0.0],
    }
    code, _ = run_cli(tmp_path, "geodesic-defect", cfg)
    assert code == 1
    assert "candidate.domain.kind: unknown domain kind 'polydisc'" in capsys.readouterr().err


def readme_key_lists() -> dict[tuple[str, str], str]:
    """(list title, name) -> text of each "- `name`: ..." item in the lists
    of the README's config conventions."""
    text = README.read_text()
    text = text[text.index("### Config conventions"):text.index("### Examples")]
    items, title, name = {}, None, None
    for line in text.splitlines():
        item = re.match(r"- `([\w-]+)`:(.*)", line)
        if item:
            name = item.group(1)
            items[title, name] = item.group(2)
        elif line.startswith("  ") and name:
            items[title, name] += line
        elif line.endswith(":"):
            title, name = line[:-1], None
    return items


def test_readme_lists_every_config_key():
    expected = {("Command keys", name): record for name, (_, record) in cli.COMMANDS.items()}
    for spec in (cli.FUNCTION, cli.MAJORANT, cli.MODULUS, cli.DOMAIN, cli.CANDIDATE):
        for kind, (_, record) in spec.kinds.items():
            expected[f"{spec.name} specs", kind] = record
    items = readme_key_lists()
    assert set(items) == set(expected)
    for entry, record in expected.items():
        for key in record:
            assert f"`{key}`" in items[entry], (entry, key)
        # and every key the item describes is one the schema reads
        for key in re.findall(r"`([^`]+)`\s+\(", items[entry]):
            assert key in record, (entry, key)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


# commands that chain two library calls (mod-cont, conjugate) or check their
# config before their one call (pipeline); every other command is one call
HAND_WRITTEN = {"mod-cont", "conjugate", "pipeline"}


def readme_library_calls() -> dict[str, str]:
    """command -> the "library call" cell of its row in the README's table."""
    rows = re.findall(r"^\| `([\w-]+)` \|[^|]*\| ([^|]*) \|", README.read_text(), re.M)
    return {command: call.strip() for command, call in rows}


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - HAND_WRITTEN))
def test_a_one_call_command_passes_its_config_keys_as_the_parameters_of_its_call(
    command, monkeypatch
):
    calls = readme_library_calls()
    assert set(calls) == set(cli.COMMANDS) and HAND_WRITTEN < set(calls)
    module_name, name = re.fullmatch(r"`(\w+)\.(\w+)`", calls[command]).groups()
    module = importlib.import_module(f"geodisc.{module_name}")
    handler, record = cli.COMMANDS[command]
    parameters = inspect.signature(getattr(module, name)).parameters
    assert set(record) <= set(parameters)
    assert {p for p, param in parameters.items() if param.default is param.empty} <= set(record)

    class Called(Exception):
        pass

    def operation(*args, **kwargs):
        raise Called(args, kwargs)

    # the command runs the operation the table names, each key by its name
    monkeypatch.setattr(module, name, operation)
    with pytest.raises(Called) as called:
        handler(**{key: key for key in record})
    assert called.value.args == ((), {key: key for key in record})
