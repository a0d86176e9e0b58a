"""The JSON report writer against the stdlib encoder it replaces.

``cli._to_json(value, "\\n")`` must be ``json.dumps(value, sort_keys=True,
indent=2, default=cli._json_scalar)``'s text, byte for byte, on every
JSON-like tree a report can hold: the one-pass float lists and float rows
included, non-finite floats, numpy scalars and strings that need escapes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import cli

# float repr edges: signed zeros, subnormals, the switch to exponent form at
# 1e16 and 1e-5 and its neighbours, the largest double and the non-finite
EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-5, 1.0000000000000001e-05,
    9.999999999999999e-06, 1e-4, 1.7976931348623157e308, float("inf"), float("-inf"),
    float("nan"),
])
FLOATS = st.floats() | EDGES
NUMPY = (st.builds(np.float64, FLOATS)
         | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
         | st.builds(np.bool_, st.booleans()))
LEAVES = (FLOATS | st.integers(-2**200, 2**200) | st.booleans() | st.none() | st.text()
          | NUMPY)
# lists of floats and rows of floats, equal-length (the one-pass rows) or not
FLOAT_LISTS = st.lists(FLOATS | st.builds(np.float64, FLOATS), max_size=6)
ROWS = (st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(FLOATS, min_size=k, max_size=k)
                       | st.tuples(*[FLOATS] * k), max_size=5))
    | st.lists(FLOAT_LISTS, max_size=5))
TREES = st.recursive(
    LEAVES | FLOAT_LISTS | ROWS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=cli._json_scalar)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_the_writer_is_the_stdlib_encoder_byte_for_byte(value):
    assert cli._to_json(value, "\n") == stdlib(value)


@pytest.mark.parametrize("value", [
    "\x00\x1f\"\\ é  \U0001f600",
    [[1.0, float("nan")], [float("-inf"), -0.0]],
    [[], []],
    [[1.0], [], [2.0]],
    [[1.0], [2.0, 3.0], [4.0]],
    [[1.0], [2.0, 3.0], []],  # ragged, with as many floats as equal rows would hold
    [[[1.0]], [[2.0]]],
    [1.0, 2, True],
    [np.float64(1e16), np.int64(-3), np.bool_(False)],
    {"b": [], "a": {}, "c": [{"z": None}]},
], ids=repr)
def test_the_writer_on_hand_picked_trees(value):
    assert cli._to_json(value, "\n") == stdlib(value)


@pytest.mark.parametrize("value", [
    np.array([1.0, 2.0]),
    [np.array([1.0, 2.0])],
    [[1.0, 2.0], np.array([3.0, 4.0])],
    {"values": np.zeros((2, 2))},
], ids=["array", "list of an array", "rows with an array", "array in a dict"])
def test_an_ndarray_is_a_type_error_in_both(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        cli._to_json(value, "\n")


def test_a_json_report_builds_no_csv_rows(tmp_path, monkeypatch):
    def no_rows(profile):
        raise AssertionError("CSV rows built for a JSON report")

    monkeypatch.setattr(cli, "_profile_rows", no_rows)
    cfg = {"function": {"kind": "identity"}, "n": 64, "deltas": [0.5],
           "out": str(tmp_path / "report.json")}
    assert cli.run("mod-cont", cfg) == 0
    with pytest.raises(AssertionError, match="CSV rows built"):
        cli.run("mod-cont", dict(cfg, format="csv"))
