"""Replay the benchmark workloads' reports on two source trees and compare them.

    python3 tools/replay_reports.py OLD_TREE NEW_TREE
    python3 tools/replay_reports.py --digest TREE [WORKLOAD SEED]
    python3 tools/replay_reports.py --counts OLD_TREE NEW_TREE

Each tree is a checkout with its package under ``src/geodisc``.  Every
operation of probe (6 rounds), flat_geometry (5 rounds) and quick_verdicts
(20 rounds), seeds 1-3, runs once with a JSON report and once with a CSV
report, through ``geodisc.cli.main`` of each tree in its own interpreter
under ``-W error::RuntimeWarning``.  The operations come from
``benchmarks/workloads.build`` of the checkout holding this script, so both
trees run the same configs.  Each op writes over a placeholder at its
report path, as every rerun and every benchmark op writes over the last
report; a placeholder still there afterwards reads as no report, the
report path's permission bits are kept as its mode, and the temp files an
op leaves beside it are counted.  The reports that differ are printed by
command: exit code, standard error, temp files left, mode and text, old
then new.  Then, per command, it prints how many JSON reports of
each tree hold a non-JSON token (``Infinity``, ``-Infinity`` or ``NaN``),
which a strict JSON parser rejects, and how many are not the canonical
text ``json.dumps(json.loads(text), sort_keys=True, indent=2) + "\\n"``.
Exits 0 when every report matches byte for byte and every JSON report of
the new tree is canonical, 1 otherwise.

``--digest`` replays one tree and prints, per workload and seed, a sha256
over that run's reports (exit code, standard error, temp files left, mode
and text, in op order) and the number of ops per command.  Given a workload
and a seed, it replays and prints that run alone, with the workload's rounds
above, for any seed.  Equal digests mean equal reports, but only between
runs on one machine: numpy picks its SIMD loops by CPU, so the last bits of
array math may differ between machines.

``--counts`` runs the same operations, with JSON reports only, under the
benchmark's ``tracing.Tracer`` (from the checkout holding this script), and
prints, per workload and seed, each span call count and work count that
differs between the trees, old then new; a name a tree lacks counts as 0,
and self times are left out.  Exits 0 when no count moves, 1 when one does.

It is not a test: a change may move reports on purpose.  It takes about
12 s per tree on a 2-vCPU virtual machine.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import stat
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
ROUNDS = {"probe": 6, "flat_geometry": 5, "quick_verdicts": 20}
SEEDS = (1, 2, 3)
FORMATS = ("json", "csv")
PLACEHOLDER = "placeholder: the op wrote no report\n"


def _import(tree: Path):
    """The ``geodisc.cli`` of ``tree`` and the benchmark's ``workloads``."""
    sys.path[:0] = [str(tree / "src"), str(BENCHMARKS)]
    from geodisc import cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"imported geodisc from {cli.__file__}, not {tree / 'src'}")
    return cli, workloads


def _runs(workloads, only: tuple[str, int] | None = None):
    """(workload, seed, its ops) of the replay, in order, or of the one
    workload and seed ``only``."""
    runs = [(w, seed) for w in ROUNDS for seed in SEEDS] if only is None else [only]
    for workload, seed in runs:
        yield workload, seed, workloads.build(workload, seed, ROUNDS[workload])


def _run_op(cli, op, scratch: Path, fmt: str) -> dict:
    """One op through ``cli.main`` over a placeholder report: its exit code,
    standard error, report (None if the placeholder is still there or the
    path is gone), the report path's permission bits in octal (None if it is
    gone) and the number of ``*.tmp`` files it left in ``scratch``, which
    are then removed."""
    config, out = scratch / "config.json", scratch / "report"
    config.write_text(json.dumps(op.cfg))
    out.write_text(PLACEHOLDER)
    stderr = io.StringIO()
    argv = [op.command, "--config", str(config), "--out", str(out), "--format", fmt]
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a warning turned error, or a crash
            code = f"raised {type(exc).__name__}: {exc}"
    text = out.read_text() if out.exists() else None
    mode = oct(stat.S_IMODE(out.stat().st_mode)) if out.exists() else None
    left = list(scratch.glob("*.tmp"))
    for tmp in left:
        tmp.unlink()
    return {"code": code, "stderr": stderr.getvalue(), "temps_left": len(left),
            "mode": mode, "text": None if text == PLACEHOLDER else text}


def replay(tree: Path, only: tuple[str, int] | None = None) -> list[dict]:
    """Every report of the replay, or of its run ``only``, through the
    ``geodisc`` of ``tree``."""
    cli, workloads = _import(tree)
    reports = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload, seed, ops in _runs(workloads, only):
            for i, op in enumerate(ops):
                for fmt in FORMATS:
                    reports.append({
                        "run": f"{workload} seed {seed}",
                        "op": f"{workload} seed {seed} op {i} ({fmt})",
                        "format": fmt,
                        "command": op.command,
                        **_run_op(cli, op, Path(scratch), fmt),
                    })
    return reports


def traced_counts(tree: Path) -> dict[str, dict[str, float]]:
    """Per workload and seed, the tracer's counts over the replay's ops
    through the ``geodisc`` of ``tree``, JSON reports only, self times left
    out."""
    cli, workloads = _import(tree)
    import tracing

    counts = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload, seed, ops in _runs(workloads):
            with tracing.Tracer() as tracer:
                for op in ops:
                    _run_op(cli, op, Path(scratch), "json")
            counts[f"{workload} seed {seed}"] = {
                name: value for name, value in tracer.layer_metrics().items()
                if not name.endswith(".self_s")}
    return counts


def run_tree(tree: Path, mode: str = "replay", only: tuple[str, int] | None = None):
    """:func:`replay` (of the run ``only`` when given), or
    :func:`traced_counts` for ``mode`` "counts", of ``tree`` in a fresh
    interpreter."""
    run = [] if only is None else [only[0], str(only[1])]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", __file__, "--worker", mode, str(tree),
         *run], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def show(old: dict, new: dict) -> None:
    print(f"  {old['op']}")
    for key in ("code", "stderr", "temps_left", "mode"):
        if old[key] != new[key]:
            print(f"    {key}: {old[key]!r} -> {new[key]!r}")
    if old["text"] != new["text"]:
        diff = difflib.unified_diff((old["text"] or "").splitlines(),
                                    (new["text"] or "").splitlines(), "old", "new", lineterm="")
        print("\n".join("    " + line for line in diff))


def json_counts(reports: list[dict]) -> tuple[Counter, Counter]:
    """Per command, the JSON reports whose text holds a non-JSON token, and
    those whose text is not ``json.dumps(json.loads(text), sort_keys=True,
    indent=2) + "\\n"``, the canonical text."""
    non_json, non_canonical = Counter(), Counter()
    for r in reports:
        if r["format"] == "json" and r["text"] is not None:
            tokens = []  # json.loads hands each Infinity, -Infinity and NaN here
            report = json.loads(r["text"], parse_constant=lambda t: tokens.append(t) or float(t))
            non_json[r["command"]] += bool(tokens)
            canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
            non_canonical[r["command"]] += r["text"] != canonical
    return non_json, non_canonical


def print_json_counts(old: list[dict], new: list[dict]) -> int:
    """Per command, how many JSON reports hold a non-JSON token, and how
    many are not the canonical text, old then new; returns the new tree's
    count of non-canonical reports."""
    total = Counter(r["command"] for r in new if r["format"] == "json")
    (old_tokens, old_other), (new_tokens, new_other) = json_counts(old), json_counts(new)
    for title, a, b in (("holding Infinity or NaN", old_tokens, new_tokens),
                        ("not in canonical json.dumps text", old_other, new_other)):
        print(f"JSON reports {title}, old -> new:")
        for command in sorted(total):
            print(f"  {command}: {a[command]} -> {b[command]} of {total[command]}")
        print(f"  all commands: {sum(a.values())} -> {sum(b.values())} of {sum(total.values())}")
    return sum(new_other.values())


def print_digests(reports: list[dict]) -> None:
    """One line per workload and seed: the sha256 of its reports and its
    op count per command."""
    runs: dict[str, tuple] = {}
    for r in reports:
        sha, ops = runs.setdefault(r["run"], (hashlib.sha256(), Counter()))
        sha.update(json.dumps([r["code"], r["stderr"], r["temps_left"], r["mode"],
                               r["text"]]).encode())
        ops[r["command"]] += r["format"] == FORMATS[0]
    for run, (sha, ops) in runs.items():
        counts = ", ".join(f"{command} {n}" for command, n in sorted(ops.items()))
        print(f"{run}: {sha.hexdigest()} ({counts})")


def print_count_moves(old: dict, new: dict) -> int:
    """Print each count that differs, per workload and seed; returns how
    many do."""
    moved = 0
    for run in old:
        names = sorted(old[run].keys() | new[run].keys())
        moves = [(name, old[run].get(name, 0), new[run].get(name, 0)) for name in names]
        moves = [(name, a, b) for name, a, b in moves if a != b]
        if moves:
            print(run)
        for name, a, b in moves:
            print(f"  {name}: {a:.17g} -> {b:.17g}")
        moved += len(moves)
    print(f"{len(old)} runs, {moved} counts differ")
    return moved


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        tree = Path(argv[2]).resolve()
        if argv[1] == "counts":
            json.dump(traced_counts(tree), sys.stdout)
        else:
            json.dump(replay(tree, (argv[3], int(argv[4])) if len(argv) == 5 else None), sys.stdout)
        return 0
    if argv[:1] == ["--digest"] and len(argv) in (2, 4):
        only = (argv[2], int(argv[3])) if len(argv) == 4 else None
        print_digests(run_tree(Path(argv[1]).resolve(), only=only))
        return 0
    if argv[:1] == ["--counts"] and len(argv) == 3:
        old, new = (run_tree(Path(tree).resolve(), "counts") for tree in argv[1:])
        return 1 if print_count_moves(old, new) else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (run_tree(Path(tree).resolve()) for tree in argv)
    if [r["op"] for r in old] != [r["op"] for r in new]:
        raise SystemExit("the trees replayed different operations")
    differing = defaultdict(list)
    for a, b in zip(old, new):
        if a != b:
            differing[a["command"]].append((a, b))
    for command, pairs in sorted(differing.items()):
        print(f"{command}: {len(pairs)} differ")
        for a, b in pairs:
            show(a, b)
    non_canonical = print_json_counts(old, new)
    count = sum(len(pairs) for pairs in differing.values())
    print(f"{len(old)} reports, {count} differ")
    return 1 if count or non_canonical else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
