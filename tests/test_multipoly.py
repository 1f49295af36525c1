"""Multivariate integer polynomials with nonnegative exponents."""

from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackzeta import DomainError, IntLaurent, InternalConsistencyError, MultiPoly

from _strategies import multipolys


def test_construction_rules():
    with pytest.raises(DomainError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(DomainError):
        MultiPoly(2, {(1,): 1})
    # every exponent tuple is checked, in order, whatever the coefficients
    with pytest.raises(DomainError, match=r"bad exponent tuple \(1, 2, 3\) for 2 variables"):
        MultiPoly(2, [((1, 0), 0), ((1, 2, 3), 1), ((-1, 0), 1)])
    assert MultiPoly(2, {(1, 0): 0}).is_zero
    want = MultiPoly(2, {(1, 0): 2, (0, 1): 1})
    for terms in (
        MappingProxyType({(1, 0): 2, (0, 1): 1}),
        [((1, 0), 1), ([0, 1], 1), ((1, 0), 1)],
    ):
        assert MultiPoly(2, terms) == want


def _reference_terms(pairs) -> dict:
    """The zero-free sum of (key, coefficient) pairs, one pair at a time."""
    sums: dict = {}
    for key, coeff in pairs:
        sums[key] = sums.get(key, 0) + coeff
    return {key: coeff for key, coeff in sums.items() if coeff}


@st.composite
def term_pairs(draw, keys):
    """Pairs with repeated keys and zero coefficients, plus negated copies of
    some of them, so that terms cancel."""
    pairs = draw(st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=12))
    cancelling = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return draw(st.permutations(pairs + [(key, -coeff) for key, coeff in cancelling]))


def _mapping_forms(pairs):
    """The same terms as a dict, as a read-only mapping and as a list of pairs."""
    summed: dict = {}
    for key, coeff in pairs:
        summed[key] = summed.get(key, 0) + coeff  # may leave zero coefficients
    return summed, MappingProxyType(summed), list(pairs)


@given(term_pairs(st.integers(-3, 3)))
def test_laurent_constructor_matches_a_reference_accumulation(pairs):
    want = _reference_terms(pairs)
    for terms in _mapping_forms(pairs):
        p = IntLaurent(terms)
        assert dict(p.items()) == want
        assert len(p) == len(want)


@given(term_pairs(st.tuples(st.integers(0, 2), st.integers(0, 2))))
def test_multipoly_constructor_matches_a_reference_accumulation(pairs):
    want = _reference_terms(pairs)
    for terms in _mapping_forms(pairs):
        p = MultiPoly(2, terms)
        assert dict(p.items()) == want
        assert len(p) == len(want)
    # exponents given as lists are keyed as tuples
    assert dict(MultiPoly(2, [(list(e), c) for e, c in pairs]).items()) == want


@given(multipolys(), multipolys(), multipolys())
def test_ring_laws(a, b, c):
    zero, one = MultiPoly.zero(2), MultiPoly.one(2)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@given(multipolys(), st.integers(min_value=0, max_value=3))
def test_pow_matches_repeated_product(a, n):
    expected = MultiPoly.one(2)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@given(multipolys(), multipolys(), st.integers(1, 4), st.integers(1, 4))
def test_adams_is_multiplicative_and_composes(p, q, r, s):
    assert (p * q).adams(r) == p.adams(r) * q.adams(r)
    assert p.adams(r).adams(s) == p.adams(r * s)


def test_adams_needs_a_positive_index():
    for r in (0, -1):
        with pytest.raises(DomainError):
            MultiPoly.variable(2, 0).adams(r)


def test_divide_exact_int():
    p = MultiPoly(2, {(1, 0): 4, (0, 2): -6})
    assert p.divide_exact_int(2) == MultiPoly(2, {(1, 0): 2, (0, 2): -3})
    assert p.divide_exact_int(-2) == MultiPoly(2, {(1, 0): -2, (0, 2): 3})
    assert p.divide_exact_int(1) is p
    with pytest.raises(InternalConsistencyError):
        p.divide_exact_int(4)
    with pytest.raises(DomainError):
        p.divide_exact_int(0)


def test_degree_and_top_part():
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    p = u ** 2 * v + u * v + 1
    assert p.total_degree() == 3
    assert p.top_part() == u ** 2 * v
    mixed = u ** 2 + u * v + v ** 2
    assert mixed.top_part() == mixed
    with pytest.raises(DomainError):
        MultiPoly.zero(2).total_degree()
    with pytest.raises(DomainError):
        MultiPoly.zero(2).top_part()


def test_arity_mismatch_is_rejected():
    with pytest.raises(DomainError):
        MultiPoly.one(2) + MultiPoly.one(3)
    with pytest.raises(DomainError):
        MultiPoly.one(2) * MultiPoly.one(3)


def test_int_coercion_both_sides():
    u = MultiPoly.variable(2, 0)
    assert 2 * u == u + u
    assert 1 + u == u + 1
    assert 1 - u == -(u - 1)


@given(multipolys())
def test_json_round_trip(p):
    assert MultiPoly.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "data",
    [
        {"nvars": 2, "terms": [[[0.5, 1], 1]]},
        {"nvars": 2, "terms": [[[1, True], 1]]},
        {"nvars": 2, "terms": [[[1, 1], 2.0]]},
        {"nvars": 2, "terms": [[[1, 1], False]]},
        {"nvars": 2.0, "terms": []},
        {"nvars": True, "terms": [[[1], 1]]},
    ],
)
def test_from_json_rejects_non_int_fields(data):
    assert str(MultiPoly.from_json({"nvars": 2, "terms": [[[1, 1], 1]]})) == "u*v"
    with pytest.raises(DomainError, match="must be ints"):
        MultiPoly.from_json(data)


def test_rendering():
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    assert str(u * v - u - v + 1) == "u*v - u - v + 1"
    assert str(v ** 2 - 2 * u) == "-2*u + v^2"
    assert str(MultiPoly.constant(2, 3)) == "3"
    assert str(MultiPoly.zero(2)) == "0"
    # three and more variables fall back to indexed names
    q = MultiPoly.variable(3, 2)
    assert "q3" in str(q)


def test_coefficient_lookup():
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    p = 3 * u ** 2 * v - v
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((5, 5)) == 0
