"""In-process runs of the CLI: bad input fails by name, never as a warning,
and every report is the text json.dumps writes.

:func:`run` judges each run.  Each float leaf of one workload-style config
per command is set in turn to each of ``EXTREMES``, and every config runs
through ``cli.main`` with its JSON report written to a temp dir.  Every run
exits with the code ``EXIT_CODES`` pins for it; an exit 1 writes one stderr
line and no report; no ``RuntimeWarning`` is raised; no temp file is left;
and a report is strict JSON, written as ``json.dumps(..., sort_keys=True,
indent=2)`` writes it, subnormal and near-overflow leaves included.  Each
list and object of the same configs, the configs themselves included, is
also set in turn to each of ``SHAPES``, and each scalar leaf (numbers, each
``[re, im]`` part, every ``kind``) to each of ``SCALARS``; each of those
runs exits 1 the same way.  Each count leaf (an integer, not a boolean)
is set in turn to each of ``COUNT_EDGES``, and each run exits with the code
``COUNT_EXIT_CODES`` pins for it, judged as the float leaves are.
``hl-bound`` is left out: its divergent verdict is written as ``Infinity``,
which the benchmark's check pins.  The enumeration is exhaustive and
deterministic, so no seed is needed; it runs 576 number configs, 35 count
configs, 684 shape configs and 696 scalar configs in about 4 s.
The README's shell examples run here too, each as its shell line is
written, and a line that writes ``--out`` runs twice.
"""

from __future__ import annotations

import io
import json
import re
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from geodisc import cli

EXTREMES = (5e-324, 1e-300, 1e300, 1.7e308)
# the edges of a count: below 0, 0, 1, and either side of the least grid
COUNT_EDGES = (-1, 0, 1, 7, 8)
SHAPES = ([], [[]], {}, "x", True, None)
SCALARS = ("x", None, {}, [])
README = Path(__file__).resolve().parents[1] / "README.md"

FLAT = {"kind": "flat_model", "C": 1.0, "alpha": 0.5, "R0": 0.111, "s0": 0.08}
FLAT_SLICE = {"kind": "flat_slice", "domain": FLAT, "center": [0.0, 0.04], "radius": 0.04}
# the workloads' half-space box: the faces Re z_k, Im z_k = +-b, each normal
# an [re, im] pair per coordinate, and two oblique faces
BOX = {"kind": "halfspace_intersection", "constraints": [
    {"a": [[1.0, 0.0], [0.0, 0.0]], "b": 0.9}, {"a": [[-1.0, 0.0], [0.0, 0.0]], "b": 1.1},
    {"a": [[0.0, 1.0], [0.0, 0.0]], "b": 0.7}, {"a": [[0.0, -1.0], [0.0, 0.0]], "b": 1.3},
    {"a": [[0.0, 0.0], [1.0, 0.0]], "b": 0.9}, {"a": [[0.0, 0.0], [-1.0, 0.0]], "b": 1.1},
    {"a": [[0.0, 0.0], [0.0, 1.0]], "b": 0.7}, {"a": [[0.0, 0.0], [0.0, -1.0]], "b": 1.3},
    {"a": [[0.6, 0.0], [0.0, 0.8]], "b": 0.8}, {"a": [[-0.48, 0.6], [0.64, 0.0]], "b": 1.2},
]}

CONFIGS = {
    "hl-verify": {"function": {"kind": "monomial", "degree": 5, "coefficient": [0.3, 0.1]},
                  "majorant": {"kind": "power", "coefficient": 4.0, "exponent": 0.0,
                               "r0": 0.377}},
    "hl-l1": {"majorant": {"kind": "family", "K1": 1.0, "K2": 2.5, "alpha": 0.5, "r0": 0.5}},
    "mod-cont": {"function": {"kind": "automorphism", "a": [0.3, 0.2], "phi": 0.5},
                 "n": 64, "deltas": [0.1, 0.5]},
    "conjugate": {"function": {"kind": "monomial", "degree": 2, "coefficient": [0.5, 0.25]},
                  "n": 64, "real_part": True},
    "pz-bound": {"modulus": {"kind": "stretched_exponential", "coeff": 1.0, "eps": 0.5},
                 "delta": 0.1, "K": 2.0},
    "log-dini": {"modulus": {"kind": "holder", "a": 0.5}, "n_max": 3},
    "domain-distance": {"domain": BOX, "point": [[0.1, -0.05], [0.2, 0.1]]},
    "domain-radius": {"domain": {"kind": "ball", "center": [[0.1, 0.0], [0.0, -0.2]],
                                 "radius": 1.2},
                      "point": [[0.2, 0.1], [0.0, 0.3]], "direction": [[0.6, 0.0], [0.0, 0.8]]},
    "graham": {"domain": {"kind": "polydisc", "radii": [1.0, 0.5]},
               "point": [[0.25, 0.0], [0.0, 0.125]], "direction": [[1.0, 0.0], [0.5, 0.5]]},
    "flat-x0": {"C": 1.0, "alpha": 0.5},
    "flat-rho": {"d": 0.05, "slope": 0.5, "C": 1.0, "alpha": 0.5},
    "rest-check": {"domain": FLAT, "point": [0.0, [0.0, 0.04]], "direction": [0.0, 1.0]},
    "geodesic-defect": {"candidate": FLAT_SLICE, "zeta1": [0.0, 0.0], "zeta2": [0.5, 0.0]},
    "geodesic-probe": {"candidate": {"kind": "map",
                                     "map": {"kind": "automorphism", "a": [0.2, 0.1]},
                                     "domain": {"kind": "polydisc", "radii": [1.5]}},
                       "n_theta": 64},
    "mercer-fit": {"candidate": {"kind": "map",
                                 "map": {"kind": "monomial", "degree": 1,
                                         "coefficient": [0.5, 0.0]},
                                 "domain": {"kind": "ball", "center": [[0.0, 0.0]],
                                            "radius": 1.0}},
                   "theta": 0.5},
    "pipeline": {"domain": FLAT, "candidate": FLAT_SLICE},
}

# each command's exit codes, one digit per fuzzed config in enumeration order
# (float leaves in document order, each set to EXTREMES in turn), so a config
# that moves between exit 0 and a named exit 1 fails here
EXIT_CODES = {
    "conjugate": "00010001",
    "domain-distance": (
        "1011000000110011110010110000001100110000001110000011001100000011"
        "1111001100111100001100001011001111000011001111110011000000110000"
        "0011101111000011001100111111000000110000001100111100001100000011"
        "001111000011001100110011"),
    "domain-radius": "0011001100110011110000110011001100110000000000000000",
    "flat-rho": "1001000000011111",
    "flat-x0": "00001000",
    "geodesic-defect": "00001111111111000011111100110011001100110011",
    "geodesic-probe": "001100110000",
    "graham": "1101110100110011001100110001000100010001",
    "hl-l1": "0022110000220011",
    "hl-verify": "00210021220000221111",
    "log-dini": "2211",
    "mercer-fit": "001100110011001111010000",
    "mod-cont": "00110011000000110011",
    "pipeline": "11111111111111111111111111111111001111110011",
    "pz-bound": "2200001122110001",
    "rest-check": "111111111111110000110011001100000000",
}


# each command's exit codes with each count leaf (an integer, not a
# boolean) set to COUNT_EDGES in turn, in the same order: a degree of 0 is
# a constant map, a grid of 8 is the least, and at 8 nodes neither of
# mod-cont's deltas resolves
COUNT_EXIT_CODES = {
    "conjugate": "1000011110",
    "geodesic-probe": "11110",
    "hl-verify": "10000",
    "log-dini": "10000",
    "mercer-fit": "10000",
    "mod-cont": "11111",
}


def nodes(value, kinds, path=()):
    """The paths to the nodes of a JSON value that are of ``kinds``, in
    document order; a boolean is no count."""
    if isinstance(value, kinds) and not (kinds is int and isinstance(value, bool)):
        yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from nodes(item, kinds, (*path, key))


def with_leaf(value, path, leaf):
    """A copy of ``value`` with the node at ``path`` replaced by ``leaf``."""
    if not path:
        return leaf
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = with_leaf(value[path[0]], path[1:], leaf)
    return copy


def not_json(token):
    raise ValueError(f"non-JSON token {token}")


def run(argv: list[str]) -> tuple[int, str, list[str], str]:
    """One in-process run of ``geodisc`` with ``argv``, whose options are
    ``--name value`` pairs: its exit code, its report (the ``--out`` file's
    text, or stdout), its problems and its stderr.  The problems are each
    ``RuntimeWarning``; any ``*.tmp`` file left beside the report (in the
    working directory without ``--out``); on exit 1, a stderr that is not
    one named line or a report written; otherwise any stderr, and a JSON
    report that is not strict JSON or not the text
    ``json.dumps(report, sort_keys=True, indent=2)`` writes for it."""
    options = dict(zip(argv[1::2], argv[2::2]))
    out = Path(options["--out"]) if "--out" in options else None

    def written() -> bytes | None:
        return out.read_bytes() if out and out.is_file() else None

    before = written()
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    problems = [f"{w.category.__name__}: {w.message}" for w in caught
                if issubclass(w.category, RuntimeWarning)]
    folder = out.parent if out else Path()
    problems += [f"temp file {tmp} left" for tmp in sorted(folder.glob("*.tmp"))]
    after = written()
    text = stdout.getvalue() if out is None else (after or b"").decode()
    if code == 1:
        lines = stderr.getvalue().splitlines()
        if len(lines) != 1 or not lines[0].startswith("geodisc: error: "):
            problems.append(f"stderr {stderr.getvalue()!r}")
        if after != before or stdout.getvalue():
            problems.append("a report after exit 1")
        return code, text, problems, stderr.getvalue()
    if stderr.getvalue():
        problems.append(f"stderr {stderr.getvalue()!r}")
    if options.get("--format", "json") == "json":
        try:
            report = json.loads(text, parse_constant=not_json)
        except ValueError as exc:
            problems.append(f"report: {exc}")
        else:
            if text != json.dumps(report, sort_keys=True, indent=2) + "\n":
                problems.append("a report json.dumps would not write")
    return code, text, problems, stderr.getvalue()


def run_config(command, config) -> tuple[int, list[str]]:
    """:func:`run` of ``command`` on ``config``, written to ``config.json``,
    with its report written to ``report.json``, which no earlier run has
    left there: the exit code and the problems."""
    Path("config.json").write_text(json.dumps(config))
    Path("report.json").unlink(missing_ok=True)
    code, _, problems, _ = run([command, "--config", "config.json", "--out", "report.json"])
    return code, problems


def test_every_command_but_hl_bound_is_fuzzed():
    assert sorted(CONFIGS) == sorted(set(cli.COMMANDS) - {"hl-bound"})
    assert sorted(EXIT_CODES) == sorted(CONFIGS)
    for command, codes in EXIT_CODES.items():
        assert len(codes) == len(EXTREMES) * len(list(nodes(CONFIGS[command], float)))
    counted = {command: len(COUNT_EDGES) * len(list(nodes(config, int)))
               for command, config in CONFIGS.items()}
    assert {command: len(codes) for command, codes in COUNT_EXIT_CODES.items()} == {
        command: n for command, n in counted.items() if n}


def pinned_leaves_that_fail(command, kind, leaves, pins) -> list[str]:
    """The problems of each config with one node of ``kind`` set to each of
    ``leaves`` in turn, each exit code checked against the next digit of
    ``pins``."""
    base, failures, codes = CONFIGS[command], [], iter(pins)
    for path in nodes(base, kind):
        for leaf in leaves:
            code, problems = run_config(command, with_leaf(base, path, leaf))
            pinned = int(next(codes))
            if code != pinned:
                problems.append(f"exit {code!r}, pinned {pinned}")
            where = f"{'.'.join(map(str, path))} = {leaf!r}"
            failures += [f"{where}: {problem}" for problem in problems]
    return failures


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_extreme_float_leaves_fail_by_name(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    failures = pinned_leaves_that_fail(command, float, EXTREMES, EXIT_CODES[command])
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("command", sorted(COUNT_EXIT_CODES))
def test_count_leaves_at_their_edges_fail_by_name(tmp_path, monkeypatch, command):
    # no count is set above the least grid: a huge grid is a memory test,
    # which BAD_CONFIGS covers by name
    monkeypatch.chdir(tmp_path)
    failures = pinned_leaves_that_fail(command, int, COUNT_EDGES, COUNT_EXIT_CODES[command])
    assert not failures, "\n".join(failures[:10])


def swaps_that_fail(command, kinds, swaps) -> list[str]:
    """The problems of each config with one node of ``kinds`` swapped for one
    of ``swaps``, each of which must be a named exit 1."""
    base, failures = CONFIGS[command], []
    for path in nodes(base, kinds):
        for swap in swaps:
            code, problems = run_config(command, with_leaf(base, path, swap))
            if code != 1:
                problems.append(f"exit {code!r}")
            where = f"{'.'.join(map(str, path)) or 'the config'} = {json.dumps(swap)}"
            failures += [f"{where}: {problem}" for problem in problems]
    return failures


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_wrong_shapes_fail_by_name(tmp_path, monkeypatch, command):
    # a list or object swapped for another shape is a named exit 1, never a
    # traceback
    monkeypatch.chdir(tmp_path)
    failures = swaps_that_fail(command, (dict, list), SHAPES)
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_wrong_scalars_fail_by_name(tmp_path, monkeypatch, command):
    # a number, boolean or string (each [re, im] part and every kind
    # included) swapped for a string, null, object or list is a named exit 1
    monkeypatch.chdir(tmp_path)
    failures = swaps_that_fail(command, (int, float, str), SCALARS)
    assert not failures, "\n".join(failures[:10])


def test_readme_examples_run_as_written(tmp_path, monkeypatch):
    # each `cat > f.json <<'JSON'` block of the README, and the geodisc line
    # right after it, runs as its shell would run it; the line's comment
    # states the exit code, and a line that writes --out runs again over its
    # own report, which must come back byte-identical
    text = README.read_text()
    blocks = re.findall(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\n(geodisc [^\n]*)", text, re.S)
    assert blocks and len(blocks) == text.count("<<'JSON'"), "a JSON block without its line"
    monkeypatch.chdir(tmp_path)
    failures = []
    for name, body, line in blocks:
        Path(name).write_text(body + "\n")
        argv, stated = shlex.split(line, comments=True)[1:], re.search(r"#.*\bexits? (\d)", line)
        if not stated or argv[1:3] != ["--config", name]:
            failures.append(f"no stated exit code or not --config {name}: {line}")
            continue
        code, report, problems, _ = run(argv)
        if code != int(stated[1]):
            problems.append(f"exit {code}, stated {stated[1]}")
        if not report:
            problems.append("no report")
        if "--out" in argv:
            rerun, again, more, _ = run(argv)
            problems += more
            if rerun != code:
                problems.append(f"rerun exit {rerun}")
            if again != report:
                problems.append("the report moved on its rerun")
        failures += [f"{line}: {problem}" for problem in problems]
    assert not failures, "\n".join(failures)
