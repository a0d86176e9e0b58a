"""CLI harness: dispatch, validation, exit codes, report reproducibility."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

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

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, command, cfg, fmt="json", name="report.json"):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(
        [command, "--config", str(config), "--out", str(out), "--format", fmt]
    )
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


def test_flat_x0_value(tmp_path):
    code, out = run_cli(tmp_path, "flat-x0", {"C": 1.0, "alpha": 1.0})
    assert code == 0
    assert json.loads(out.read_text())["result"]["x0"] == 0.5


def test_flat_rho_value(tmp_path):
    cfg = {"d": 0.1, "slope": 1.0, "C": 1.0, "alpha": 1.0}
    code, out = run_cli(tmp_path, "flat-rho", cfg)
    assert code == 0
    assert abs(json.loads(out.read_text())["result"]["rho"] - 0.09995) < 1e-4


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
        "probe_n_theta": 2048,
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


def test_mismatched_command_rejected(tmp_path, capsys):
    cfg = {"command": "flat-rho", "C": 1.0, "alpha": 1.0}
    code, _ = run_cli(tmp_path, "flat-x0", cfg)
    assert code == 1
    assert "does not match" in capsys.readouterr().err


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


# --- config schema -----------------------------------------------------------

BOX = [
    {"a": [[1.0, 0.0]], "b": 1.0},
    {"a": [[-1.0, 0.0]], "b": 1.0},
    {"a": [[0.0, 1.0]], "b": 1.0},
    {"a": [[0.0, -1.0]], "b": 1.0},
]
FLAT = {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.111, "s0": 0.08}
FLAT_SLICE = {"kind": "flat_slice", "domain": FLAT, "center": [0.0, 0.04], "radius": 0.04}
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
    "neither delta nor deltas": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 64},
        "delta, deltas:",
    ),
    "both delta and deltas": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 64, "delta": 0.5, "deltas": [1.0]},
        "delta, deltas:",
    ),
    "zero alpha override": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "majorant_alpha_override": 0},
        "majorant_alpha_override must be positive",
    ),
    "string alpha override": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "majorant_alpha_override": "x"},
        "majorant_alpha_override:",
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
        {"function": {"kind": "identity"}, "n": -1, "delta": 0.5},
        "grid size must be at least 8",
    ),
    "small modulus grid": (
        "mod-cont",
        {"function": {"kind": "identity"}, "n": 4, "delta": 0.5},
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
    "small pipeline probe grid": (
        "pipeline",
        {"domain": FLAT, "candidate": FLAT_SLICE, "probe_n_theta": 4},
        "probe_n_theta: grid size must be at least 8",
    ),
    "empty ball center": (
        "domain-distance",
        {"domain": {"kind": "ball", "center": [], "radius": 1.0}, "point": []},
        "domain:",
    ),
    "empty constant map": (
        "hl-verify",
        {"function": {"kind": "constant", "values": []},
         "majorant": {"kind": "power", "r0": 0.5}},
        "function:",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, case):
    command, cfg, key = BAD_CONFIGS[case]
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 1
    assert key in capsys.readouterr().err
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


def test_readme_configs_parse():
    text = README.read_text()
    blocks = re.findall(
        r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\n.*?geodisc (\S+) --config \1", text, re.S
    )
    assert blocks and len(blocks) == text.count("<<'JSON'")
    for _, body, command in blocks:
        cli.parse_config(command, json.loads(body))


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
