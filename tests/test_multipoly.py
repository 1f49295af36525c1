"""Multivariate integer polynomials with nonnegative exponents."""

from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackzeta import DomainError, IntLaurent, InternalConsistencyError, MultiPoly

from _strategies import multipolys


@pytest.mark.parametrize("terms", [{(1, 0): 0.5}, {(0, 0): True}, [((0, 1), 1), ((1, 1), 2.0)]])
def test_coefficients_must_be_ints(terms):
    with pytest.raises(DomainError, match="MultiPoly coefficients must be ints"):
        MultiPoly(2, terms)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"nvars": 2, "terms": [[[1, 1], 1, 0]]}, "terms"),
        ({"nvars": 2, "terms": [[1, 1]]}, "terms"),
        ({"nvars": 2, "terms": 5}, "terms"),
        ({"terms": []}, "nvars"),
        ([2, []], "nvars"),
    ],
)
def test_from_json_names_a_malformed_field(data, field):
    with pytest.raises(DomainError, match=field):
        MultiPoly.from_json(data)


def test_construction_rules():
    with pytest.raises(DomainError, match="at least one variable"):
        MultiPoly(0)
    with pytest.raises(DomainError, match="variable index 2 out of range"):
        MultiPoly.variable(2, 2)
    with pytest.raises(DomainError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(DomainError):
        MultiPoly(2, {(1,): 1})
    # every exponent tuple is checked, in order, whatever the coefficients
    with pytest.raises(DomainError, match=r"bad exponent tuple \(1, 2, 3\) for 2 variables"):
        MultiPoly(2, [((1, 0), 0), ((1, 2, 3), 1), ((-1, 0), 1)])
    assert MultiPoly(2, {(1, 0): 0}).is_zero
    for exps in ((0.5, 1), (True, 0), (1, 1.0)):
        with pytest.raises(DomainError, match="exponents must be ints"):
            MultiPoly(2, {exps: 1})
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


@given(multipolys(), st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_product(a, n):
    expected = MultiPoly.one(2)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@pytest.mark.parametrize("cls", (MultiPoly, IntLaurent))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 13, 40))
def test_pow_makes_only_the_products_it_needs(monkeypatch, cls, n):
    # square and multiply from the lowest set bit, with no square past the top
    # one, which would square the largest power
    products = []
    mul = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1}) if cls is MultiPoly else IntLaurent({1: 1, 0: 1})
    p ** n
    assert len(products) == n.bit_length() + n.bit_count() - 2


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


@given(multipolys(), st.integers(-5, 5))
def test_int_scaling_and_equality_match_the_constant_polynomial(p, c):
    const = MultiPoly.constant(2, c)
    assert p * c == c * p == p * const
    assert (p * c).is_zero == (c == 0 or p.is_zero)
    assert (p == c) == (p == const) == (p.as_int() == c)


def test_as_int_gives_the_int_a_constant_equals():
    u, v = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for p, c in ((MultiPoly.zero(2), 0), (MultiPoly.one(2), 1), (MultiPoly.constant(2, -3), -3),
                 (MultiPoly.constant(2, 2), 2), (MultiPoly.constant(3, 7), 7), (u - u + 4, 4)):
        assert p.as_int() == c and type(p.as_int()) is int
    for p in (u, v, u * v, u + 1, MultiPoly.monomial((0, 2), 5)):
        assert p.as_int() is None
    assert IntLaurent.from_int(-3).as_int() == -3 and IntLaurent.zero().as_int() == 0
    assert IntLaurent.term(1).as_int() is None and IntLaurent.term(-1, 2).as_int() is None


def test_a_constant_hashes_as_its_int():
    # a constant polynomial equals its int, so a set or dict must see one key
    assert MultiPoly.constant(2, 3) == 3
    assert len({MultiPoly.constant(2, 3), 3}) == 1
    assert hash(MultiPoly.zero(2)) == hash(0) and len({MultiPoly.zero(3), 0}) == 1
    assert {3: "three"}[MultiPoly.constant(2, 3)] == "three"
    assert {MultiPoly.one(2): "one"}[1] == "one"


def test_a_polynomial_hashes_by_its_terms():
    u, v = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert hash(u * v) == hash(v * u) == hash(MultiPoly(2, {(1, 1): 1}))
    assert len({u * v, MultiPoly(2, [((1, 1), 2), ((1, 1), -1)])}) == 1


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
