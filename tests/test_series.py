"""Truncated power series over exact coefficient rings."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stackzeta import (
    DenomForm,
    DomainError,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    TruncatedSeries,
    hd_ring,
    motivic_ring,
)

from _strategies import motivic_classes, multipolys

MOT = motivic_ring()


def series_of(coeffs):
    return TruncatedSeries(MOT, tuple(coeffs))


@st.composite
def motivic_series(draw, order=3):
    return series_of([draw(motivic_classes(max_terms=2)) for _ in range(order + 1)])


@st.composite
def unit_series(draw, order=3):
    return series_of(
        [MotivicClass.one()] + [draw(motivic_classes(max_terms=2)) for _ in range(order)]
    )


def _cls(num, factors):
    return MotivicClass(IntLaurent(num), DenomForm(0, factors))


# Classes written over a larger denominator than they need, as Adams operations
# leave them: (L + 1)/(L^2 - 1) is 1/(L - 1).  Normalization keeps such shapes,
# so their sums depend on the order in which they are added.
SHAPES = {
    "1": MotivicClass.one(),
    "1/(L-1)": _cls({0: 1}, (1,)),
    "(L+1)/(L^2-1)": _cls({1: 1, 0: 1}, (2,)),
    "L/(L^2-1)": _cls({1: 1}, (2,)),
    "1/(L^2-1)": _cls({0: 1}, (2,)),
    "(L^2+L+1)/(L^3-1)": _cls({2: 1, 1: 1, 0: 1}, (3,)),
    "1/((L-1)(L^2-1))": _cls({0: 1}, (1, 2)),
}


def shaped(*names, unit=False):
    return series_of([MotivicClass.one()] * unit + [SHAPES[n] for n in names])


def sparse_coefficients():
    """Zeros, redundant shapes and random classes."""
    scaled = st.builds(lambda c, k: c * k, st.sampled_from(tuple(SHAPES.values())), st.sampled_from((1, -1, 2)))
    return st.one_of(st.just(MotivicClass.zero()), scaled, motivic_classes(max_terms=2))


@st.composite
def sparse_series(draw, order=4, unit=False):
    head = [MotivicClass.one()] if unit else [draw(sparse_coefficients())]
    return series_of(head + [draw(sparse_coefficients()) for _ in range(order)])


@st.composite
def hd_unit_series(draw, order=4):
    ring = hd_ring(2)
    return TruncatedSeries(ring, [ring.one] + [draw(multipolys(max_terms=3)) for _ in range(order)])


# Reference loops: the four triangular recurrences as separate loops, each with
# its own start value and left-to-right order, which fix the printed shapes.


def ref_mul(a, b):
    out = []
    for k in range(min(len(a), len(b))):
        acc = MOT.zero
        for j in range(k + 1):
            if not (a[j].is_zero or b[k - j].is_zero):
                acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def ref_inverse(a):
    inv = [MOT.one]
    for k in range(1, len(a)):
        acc = MOT.zero
        for j in range(1, k + 1):
            if not (a[j].is_zero or inv[k - j].is_zero):
                acc = acc + a[j] * inv[k - j]
        inv.append(-acc)
    return inv


def ref_ghosts(a):
    g = [None]
    for n in range(1, len(a)):
        acc = n * a[n]
        for j in range(1, n):
            if not (g[j].is_zero or a[n - j].is_zero):
                acc = acc - g[j] * a[n - j]
        g.append(acc)
    return g


def ref_from_ghosts(ghosts):
    coeffs = [MOT.one]
    for n in range(1, len(ghosts)):
        acc = MOT.zero
        for j in range(1, n + 1):
            if not (ghosts[j].is_zero or coeffs[n - j].is_zero):
                acc = acc + ghosts[j] * coeffs[n - j]
        coeffs.append(acc.divide_exact_int(n))
    return coeffs


def keys(coeffs):
    return [c.structural_key() for c in coeffs]


# The random draws seldom reach a sum whose shape depends on its order; these
# four do, for the product, the inverse, the ghost components and from_ghosts.
@example(
    a=shaped("1", "(L^2+L+1)/(L^3-1)", unit=True),
    b=shaped("(L^2+L+1)/(L^3-1)", "L/(L^2-1)", "1/(L-1)"),
)
@example(
    a=shaped("(L+1)/(L^2-1)", "L/(L^2-1)", "1/((L-1)(L^2-1))", unit=True),
    b=TruncatedSeries.one(MOT, 3),
)
@example(
    a=shaped("(L^2+L+1)/(L^3-1)", "1", "1/(L-1)", "(L+1)/(L^2-1)", unit=True),
    b=TruncatedSeries.one(MOT, 4),
)
@example(a=shaped("1", "1/(L-1)", "L/(L^2-1)", "1/(L-1)", unit=True), b=TruncatedSeries.one(MOT, 4))
@given(sparse_series(unit=True), sparse_series())
def test_the_fold_keeps_each_recurrence_route(a, b):
    assert keys((a * b).coefficients) == keys(ref_mul(a.coefficients, b.coefficients))
    assert keys((b * a).coefficients) == keys(ref_mul(b.coefficients, a.coefficients))
    assert keys(a.inverse().coefficients) == keys(ref_inverse(a.coefficients))
    g = a.ghosts()
    assert g[0].is_zero
    assert keys(g[1:]) == keys(ref_ghosts(a.coefficients)[1:])
    assert keys(TruncatedSeries.from_ghosts(MOT, g).coefficients) == keys(ref_from_ghosts(g))


@given(sparse_series(unit=True), hd_unit_series())
def test_from_ghosts_inverts_ghosts(a, p):
    assert TruncatedSeries.from_ghosts(MOT, a.ghosts()) == a
    assert TruncatedSeries.from_ghosts(p.ring, p.ghosts()) == p


def test_ghosts_of_a_geometric_series_and_their_guard():
    # T d/dT log 1/(1 - L T) = sum_{n>=1} L^n T^n
    l = MotivicClass.l_power(1)
    geo = TruncatedSeries.build(MOT, 4, lambda k: l ** k)
    assert geo.ghosts() == (MotivicClass.zero(),) + tuple(l ** n for n in range(1, 5))
    with pytest.raises(DomainError):
        series_of([l, MotivicClass.one()]).ghosts()


def test_ring_descriptor():
    assert motivic_ring() == motivic_ring()
    assert hd_ring(2) == hd_ring(2)
    assert hd_ring(2) != hd_ring(3)
    assert MOT.is_member(MotivicClass.one())
    assert not MOT.is_member(1)
    assert not MOT.is_member(MultiPoly.one(2))
    assert hd_ring(2).is_member(MultiPoly.one(2))
    assert not hd_ring(2).is_member(MultiPoly.one(3))


def test_constructor_needs_a_constant_term():
    with pytest.raises(DomainError):
        TruncatedSeries(MOT, ())


def test_cross_ring_operations_are_rejected():
    a = TruncatedSeries.one(MOT, 2)
    b = TruncatedSeries.one(hd_ring(2), 2)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b
    with pytest.raises(DomainError):
        a.first_divergence(b)


@given(motivic_series(), motivic_series(), motivic_series())
def test_arithmetic_laws(a, b, c):
    one = TruncatedSeries.one(MOT, a.order)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a - a == TruncatedSeries.constant(MOT, MotivicClass.zero(), a.order)


@given(motivic_series())
def test_pow_matches_repeated_product(a):
    assert a ** 0 == TruncatedSeries.one(MOT, a.order)
    assert a ** 1 == a
    assert a ** 3 == a * a * a
    assert a ** 6 == a * a * a * a * a * a


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 8, 13))
def test_pow_makes_only_the_products_it_needs(monkeypatch, n):
    # square and multiply from the lowest set bit, with no square past the top
    # one: a ** 1 makes no product and a ** 4 two
    products = []
    mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    a = series_of([MotivicClass.one(), MotivicClass.l_power(1), MotivicClass(2)])
    a ** n
    assert len(products) == n.bit_length() + n.bit_count() - 2


@given(unit_series())
def test_inverse_round_trip(a):
    assert a * a.inverse() == TruncatedSeries.one(MOT, a.order)
    assert a ** -2 == (a.inverse()) ** 2


def test_pow_needs_an_int_exponent():
    with pytest.raises(DomainError, match="series exponents must be integers"):
        TruncatedSeries.one(MOT, 2) ** 1.5


def test_inverse_needs_constant_term_one():
    s = series_of([MotivicClass.l_power(1), MotivicClass.one()])
    with pytest.raises(DomainError):
        s.inverse()


@given(unit_series())
def test_binary_operations_truncate_to_the_smaller_order(a):
    short = a.truncate(1)
    assert (a * short).order == 1
    assert (a + short).order == 1


@given(motivic_series())
def test_scale_t_composes(a):
    l = MotivicClass.l_power(1)
    assert a.scale_t(MotivicClass.one()) == a
    assert a.scale_t(l).scale_t(l) == a.scale_t(l * l)
    for k in range(a.order + 1):
        assert a.scale_t(l).coefficient(k) == l ** k * a.coefficient(k)


def test_scale_t_rejects_foreign_scalars():
    with pytest.raises(DomainError):
        TruncatedSeries.one(MOT, 2).scale_t(3)


@given(motivic_series(order=6))
def test_substitute_tk(a):
    assert a.substitute_tk(1) == a
    assert a.substitute_tk(3).substitute_tk(2) == a.substitute_tk(6)
    sub = a.substitute_tk(2)
    assert sub.order == a.order
    assert sub.coefficient(2) == a.coefficient(1)
    assert sub.coefficient(1) == MotivicClass.zero()
    with pytest.raises(DomainError):
        a.substitute_tk(0)


def test_truncate_bounds():
    s = TruncatedSeries.one(MOT, 3)
    assert s.truncate(3) == s
    assert s.truncate(0).order == 0
    with pytest.raises(DomainError):
        s.truncate(4)
    with pytest.raises(DomainError):
        s.truncate(-1)


def test_coefficient_bounds():
    s = TruncatedSeries.one(MOT, 2)
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_equality_requires_matching_order():
    assert TruncatedSeries.one(MOT, 2) != TruncatedSeries.one(MOT, 3)


@given(unit_series())
def test_first_divergence(a):
    assert a.first_divergence(a) is None
    coeffs = list(a.coefficients)
    coeffs[2] = coeffs[2] + MotivicClass.one()
    assert a.first_divergence(series_of(coeffs)) == 2


def test_build_constructor():
    s = TruncatedSeries.build(MOT, 3, lambda k: MotivicClass.l_power(k))
    assert s.coefficients == tuple(MotivicClass.l_power(k) for k in range(4))


def test_rendering_and_json():
    s = series_of(
        [MotivicClass.one(), MotivicClass.one(), MotivicClass.zero(), MotivicClass.l_power(1)]
    )
    assert str(s) == "1 + T + (L)*T^3"
    data = s.to_json()
    assert data["order"] == 3
    assert [MotivicClass.from_json(c) for c in data["coeffs"]] == list(s.coefficients)
    zero = TruncatedSeries.constant(MOT, MotivicClass.zero(), 2)
    assert str(zero) == "0"


def test_series_is_immutable():
    s = TruncatedSeries.one(MOT, 1)
    with pytest.raises(AttributeError):
        s.order = 5
