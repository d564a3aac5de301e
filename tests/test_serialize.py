import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo1 import cli, curve
from delpezzo1.serialize import to_canonical_json, to_text
from delpezzo1.tripoly import TriPoly
from delpezzo1.unipoly import UniPoly
from xyz_oracles import canonical_json_two_step, text_two_step

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))
import workloads  # noqa: E402  (the benchmark's input generator)

RENDERERS = [(to_canonical_json, canonical_json_two_step), (to_text, text_two_step)]


@pytest.mark.parametrize("render", [to_canonical_json, to_text])
@pytest.mark.parametrize("value", [object(), 1.5, {1, 2}], ids=["object", "float", "set"])
def test_unlisted_type_raises(render, value):
    # no silent str(): a witness of a new type must not change the bytes unnoticed
    with pytest.raises(TypeError, match=f"no JSON form for {type(value).__name__}"):
        render({"x": [value]})


@pytest.mark.parametrize("render", [to_canonical_json, to_text])
@pytest.mark.parametrize(
    "payload, name",
    [
        ({"x": 1.5}, "float"),
        ({"a": {"b": [1, (2, {"c": {3}})]}}, "set"),
        ({"a": [{"b": [[], {}, object()]}]}, "object"),
        ({1: "a"}, "int"),
        ({"a": {"b": {(1, 2): 3}}}, "tuple"),
        ({"a": 1, 2: 3}, "int"),
        ({"a": [{"b": {None: 0}}]}, "NoneType"),
    ],
)
def test_unlisted_type_raises_at_any_depth(render, payload, name):
    # a dict key too: json.dumps would quietly turn the int key 1 into "1"
    with pytest.raises(TypeError, match=f"^no JSON form for {name}$"):
        render(payload)


TALL_INT = -(10**4400) - 7


# Python 3.10 releases before 3.10.7 convert ints to strings of any length.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string digit limit")
@pytest.mark.parametrize("render, oracle", RENDERERS)
@pytest.mark.parametrize(
    "value",
    [TALL_INT, Fraction(TALL_INT, 3), UniPoly([1, Fraction(1, TALL_INT)]), TriPoly({(1, 0, 0): TALL_INT})],
    ids=["int", "Fraction", "UniPoly", "TriPoly"],
)
def test_int_over_the_digit_limit_raises_as_before(render, oracle, value):
    payload = {"w": {"d": [value]}}
    with pytest.raises(ValueError) as expected:
        oracle(payload)
    with pytest.raises(ValueError) as got:
        render(payload)
    assert str(got.value) == str(expected.value)


# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII letters, astral characters and line separators.
texts = st.text(alphabet=st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028é😀')), max_size=8)
tall_ints = st.builds(lambda sign, n: sign * (10**3999 + n), st.sampled_from([1, -1]), st.integers(0, 10**6))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    tall_ints,
    texts,
    st.fractions(),
    st.lists(st.fractions(), max_size=6).map(UniPoly),
    st.dictionaries(
        st.tuples(*[st.integers(0, 9)] * 3), st.one_of(st.integers(), st.fractions()), max_size=12
    ).map(TriPoly),
)
payloads = st.dictionaries(
    texts,
    st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(texts, inner, max_size=4),
        ),
        max_leaves=20,
    ),
    max_size=5,
)


MANY_TERMS = TriPoly({(i, j, k): Fraction(i - 2 * j, k + 1) for i in range(5) for j in range(4) for k in range(3)})


@settings(max_examples=100, deadline=None)
@given(payloads)
@example({"a": UniPoly([]), "b": {"c": [TriPoly({}), (MANY_TERMS, UniPoly([1, 0, -5]))], "d": {}}, "e": []})
def test_one_walk_matches_the_two_step_oracle(payload):
    for render, oracle in RENDERERS:
        assert render(payload) == oracle(payload)


def _payload(argv) -> dict:
    args = cli.build_parser().parse_args(cli._merge_poly_flag(list(argv)))
    return cli.build_report(args)[0]


def _argvs(seed: int):
    """Every item of the three workloads, then the other subcommands on a prefix of the verify seeds."""
    verify = workloads.verify_items(seed, curve)
    items = verify + workloads.position_items(seed, curve) + workloads.lattice_items(seed, curve)
    yield from (item.argv for item in items)
    for item in verify[:12]:
        poly, bound = item.argv[1:3], item.argv[3:]
        yield from (("construct", *poly), ("galois", *poly, *bound), ("position", *poly))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 31415])
def test_every_workload_payload_matches_the_oracle(seed):
    for argv in _argvs(seed):
        payload = _payload(argv)
        for render, oracle in RENDERERS:
            assert render(payload) == oracle(payload), (render.__name__, argv)
