"""The report writer against the standard-library encoder it replaces."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cesarospec import cli, serialize
from cesarospec.serialize import dumps_json, jsonable
from cesarospec.trend import HOLDS, Verdict


# -- the reference: type rules as a standalone copy, then json.dumps -----------


def _format_float(x: float) -> str:
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return f"{float(x):.17g}"


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_float(z.real)}{sign}{_format_float(abs(z.imag))}i"


def reference_tree(v):
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if f != f or f in (float("inf"), float("-inf")):
            return _format_float(f)
        return f
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (np.complexfloating, complex)):
        return _format_complex(complex(v))
    if isinstance(v, dict):
        return {str(k): reference_tree(v[k]) for k in sorted(v, key=str)}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [reference_tree(x) for x in v]
    if hasattr(v, "__dataclass_fields__"):
        return {name: reference_tree(getattr(v, name))
                for name in sorted(v.__dataclass_fields__)}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def reference_dumps(v) -> str:
    return json.dumps(reference_tree(v), indent=2, sort_keys=True) + "\n"


# -- strategies -------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    name: object
    value: object
    extra: object = None


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
_FRACTIONS = st.fractions(max_denominator=10**6)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    _FLOATS,
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
    _TEXT,
    _FRACTIONS,
    _FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
)

ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                            min_side=0, max_side=4)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2,
                                          min_side=0, max_side=4)),
    hnp.arrays(np.complex128, st.integers(0, 4)),
)

# Tuples of pairs, the shape of verdict evidence: plain int and finite float
# pairs take the writer's one-loop path, and any other element (a bool, a
# numpy scalar, a Fraction, nan or an infinity, a pair as a list, a 1-tuple
# or a 3-tuple) sends the whole tuple down the general path.
_PLAIN_PAIR = st.tuples(
    st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
              st.just(-0.0)))
_PAIR_ELEMENT = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(), _FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), _FRACTIONS,
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_ODD_ITEM = st.one_of(
    st.tuples(_PAIR_ELEMENT, _PAIR_ELEMENT),
    st.tuples(_PAIR_ELEMENT),
    st.tuples(_PAIR_ELEMENT, _PAIR_ELEMENT, _PAIR_ELEMENT),
    st.lists(_PAIR_ELEMENT, min_size=2, max_size=2),
)
PAIR_TUPLES = st.one_of(
    st.lists(_PLAIN_PAIR, max_size=6).map(tuple),
    st.lists(st.one_of(_PLAIN_PAIR, _ODD_ITEM), max_size=6).map(tuple),
    st.lists(_PLAIN_PAIR, max_size=6),
)

KEYS = st.one_of(_TEXT, st.integers(-5, 5), st.floats(allow_nan=False),
                 st.booleans(), st.none(), _FRACTIONS)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.builds(Record, children, children, children),
    )


TREES = st.recursive(st.one_of(SCALARS, ARRAYS, PAIR_TUPLES), _containers,
                     max_leaves=20)


class TestWriterMatchesStandardLibrary:
    @settings(max_examples=400, deadline=None)
    @given(TREES)
    def test_bytes_equal_reference(self, tree):
        assert dumps_json(tree) == reference_dumps(tree)

    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_jsonable_equals_reference(self, tree):
        # jsonable feeds the CSV path; compare through json, since nan
        # keys and values do not compare equal to themselves
        assert json.dumps(jsonable(tree), sort_keys=True) \
            == json.dumps(reference_tree(tree), sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(PAIR_TUPLES, _containers(PAIR_TUPLES)))
    def test_pair_tuples_match_the_standard_library(self, tree):
        want = json.dumps(jsonable(tree), indent=2, sort_keys=True) + "\n"
        assert dumps_json(tree) == want == reference_dumps(tree)

    @pytest.mark.parametrize("tree", [
        ((1, 0.5), (2, -0.0)), ((10**30, -1e300), (-3, 5e-324)),
        ((1, 0.5), (2, math.nan)), ((1, math.inf),), ((True, 1.0),),
        ((np.int64(2), 1.0),), ((2, np.float64(1.5)),), ((2, Fraction(1, 3)),),
        ((1, 2), [3, 4]), ((1, 2), (3,)), ((1, 2), (3, 4, 5)), ((),),
        {"evidence": ((2, 0.0), (3, -math.inf))}, [(1, 2.0)], ((1.5, 2),),
    ])
    def test_pair_tuple_edges(self, tree):
        assert dumps_json(tree) == reference_dumps(tree)

    @pytest.mark.parametrize("tree", [
        {}, [], (), np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)),
        {"a": {}, "b": [], "c": [[]]}, [{}], Record({}, [], ()),
        -0.0, 10**40, -10**40, "é \x00\x1f\"\\", {1: "a", "1": "b"},
        {2: 1, 10: 2, "x": 3}, {None: 1, True: 2}, [math.nan, math.inf],
        np.arange(6).reshape(2, 3), np.array([1 + 2j, -0.0 - 1j]),
    ])
    def test_edge_cases(self, tree):
        assert dumps_json(tree) == reference_dumps(tree)

    @pytest.mark.parametrize("bad", [
        np.bool_(True), {1, 2}, object(), [1, {2: object()}],
        {"a": frozenset()}, Record(1, np.bool_(False)), np.array(3.0),
    ])
    def test_unsupported_types_raise_in_both(self, bad):
        with pytest.raises(TypeError):
            reference_dumps(bad)
        with pytest.raises(TypeError):
            dumps_json(bad)
        with pytest.raises(TypeError):
            jsonable(bad)


def test_repeated_node_is_written_once_with_the_same_bytes(monkeypatch):
    v = Verdict(HOLDS, "flat", ((1, 0.5), (2, 0.25)), params={"N": 8})
    tree = {"a": v, "b": [v, {"c": v}], "d": (v, Record(v, v))}
    want = json.dumps(jsonable(tree), indent=2, sort_keys=True) + "\n"
    assert dumps_json(tree) == want == reference_dumps(tree)
    # at one indent the second copy is the first one's text
    read, members = [], serialize._members
    monkeypatch.setattr(serialize, "_members",
                        lambda node: read.append(node) or members(node))
    assert dumps_json([v, v]) == reference_dumps([v, v])
    assert sum(node is v for node in read) == 1


@pytest.mark.parametrize("argv", [
    ["--experiments", "suite", "--seed", "1"],
    ["--N", "2000", "--experiments", "profile", "spectrum", "resolvent",
     "eigenpairs:1,2,3", "dynamics:random"],
])
def test_reports_match_the_standard_library(argv):
    config, _ = cli.assemble_config(cli._build_parser().parse_args(argv))
    report = cli.run(config)
    want = reference_dumps(cli._report_tree(report, False)).encode()
    assert cli.emit(report) == want
