"""Differential tests: the Adams-operation engine against independent routes.

* zeta_series (Newton's identity on psi^r(a)(L) = a(L^r)) against the
  paper's partition formula, peeling one denominator factor at a time;
* power and lambda_factorize on ghost components against factorization by
  repeated series inversion, over both coefficient rings;
* the opposite structure from (-1)^{r+1} psi^r against inverting zeta(-T).

The peeling and inversion routes live here only, as oracles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from stackzeta import (
    DenomForm,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    TruncatedSeries,
    bgl_class,
    hd_provider,
    hd_zeta,
    lambda_factorize,
    motivic_provider,
    opposite_provider,
    opposite_series,
    opposite_zeta,
    power,
    zeta_from_sigma,
    zeta_of_polynomial,
    zeta_series,
)

from _strategies import multipolys

ONE = MotivicClass.one()
L = MotivicClass.l_power(1)

#: Polynomial, L-twisted and stacky classes, with L^n - 1 twists in both signs:
#: 1/(L^n - 1) = q^n/(1 - q^n) and -1/(L^n - 1) = 1/(1 - q^{-n}).
POOL = (
    ONE,
    -ONE,
    L,
    MotivicClass(IntLaurent({1: 1, 0: 1})),
    MotivicClass.l_power(-1),
    bgl_class(1),
    -bgl_class(1),
    MotivicClass(IntLaurent.term(1), DenomForm(0, (2,))),
    MotivicClass(IntLaurent.term(2, -1), DenomForm(1, (3,))),
)
POOL_SMALL = POOL[:3] + (bgl_class(1), MotivicClass(IntLaurent.term(1), DenomForm(0, (2,))))

pool_classes = st.sampled_from(POOL)


@st.composite
def pool_combinations(draw):
    """A sum or a product of two pool classes."""
    a, b = draw(pool_classes), draw(pool_classes)
    return a * b if draw(st.booleans()) else a + b


def peel_zeta(a: MotivicClass, order: int) -> TruncatedSeries:
    """zeta_a by the partition formula, peeling denominator factors largest-first."""
    if not a.den.factors:
        return zeta_of_polynomial(a.num.shift(-a.den.l_exp), order)
    n = a.den.factors[-1]
    base = MotivicClass(a.num, DenomForm(a.den.l_exp + n, a.den.factors[:-1]))
    return zeta_from_sigma(peel_zeta(base, order).coefficients[1:], 0, n, order)


@given(pool_combinations(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40)
def test_engine_matches_the_partition_formula(a, order):
    assert zeta_series(a, order) == peel_zeta(a, order)


@given(
    st.sampled_from(POOL[:5]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from((-3, -2, -1, 1, 2)),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=20)
def test_engine_matches_the_partition_formula_at_any_twist(b, m, n, order):
    # zeta of b q^m / (1 - q^n), negative n included
    sigma_b = zeta_series(b, order).coefficients[1:]
    q = MotivicClass.l_power(-1)
    a = b * q ** m * (ONE - q ** n).inverse()
    assert zeta_series(a, order) == zeta_from_sigma(sigma_b, m, n, order)


# -- power structure: ghosts against repeated inversion ----------------------------


def factorize_by_inversion(series: TruncatedSeries, provider) -> tuple:
    """b_k greedily: the T^k coefficient left after dividing out earlier factors."""
    residual, out = series, []
    for k in range(1, series.order + 1):
        bk = residual.coefficient(k)
        out.append(bk)
        lam = provider.series(bk, series.order).substitute_tk(k)
        residual = residual * lam.inverse()
    return tuple(out)


def power_by_inversion(series: TruncatedSeries, exponent, provider) -> TruncatedSeries:
    out = TruncatedSeries.one(provider.ring, series.order)
    for k, bk in enumerate(factorize_by_inversion(series, provider), start=1):
        out = out * provider.series(exponent * bk, series.order).substitute_tk(k)
    return out


def _hd_elements():
    return multipolys(max_deg=1, max_terms=2)


@st.composite
def power_cases(draw):
    """(provider, series, exponent) over the motivic or the E-polynomial ring,
    for the structure or its opposite, at order <= 5."""
    motivic = draw(st.booleans())
    provider = motivic_provider() if motivic else hd_provider()
    if draw(st.booleans()):
        provider = opposite_provider(provider)
    order = draw(st.integers(min_value=1, max_value=5))
    elements = st.sampled_from(POOL_SMALL) if motivic else _hd_elements()
    coeffs = [provider.ring.one] + [draw(elements) for _ in range(order)]
    return provider, TruncatedSeries(provider.ring, coeffs), draw(elements)


@given(power_cases())
@settings(max_examples=40)
def test_ghost_factorization_matches_repeated_inversion(case):
    provider, series, _ = case
    assert lambda_factorize(series, provider) == factorize_by_inversion(series, provider)


@given(power_cases())
@settings(max_examples=40)
def test_ghost_power_matches_repeated_inversion(case):
    provider, series, exponent = case
    assert power(series, exponent, provider) == power_by_inversion(series, exponent, provider)


def test_motivic_power_at_order_five_matches_repeated_inversion():
    provider = motivic_provider()
    series = TruncatedSeries(provider.ring, (ONE, bgl_class(1), L, -ONE, ONE + L, bgl_class(1)))
    for exponent in (L, bgl_class(1), -ONE):
        assert power(series, exponent, provider) == power_by_inversion(series, exponent, provider)


# -- the opposite structure --------------------------------------------------------


@given(pool_combinations(), st.integers(min_value=0, max_value=5))
@settings(max_examples=20)
def test_opposite_adams_operations_match_inverting_zeta(a, order):
    assert opposite_zeta(a, order) == opposite_series(zeta_series(a, order))


@given(_hd_elements(), st.integers(min_value=0, max_value=5))
@settings(max_examples=20)
def test_opposite_adams_operations_match_inverting_hd_zeta(p, order):
    opposite = opposite_provider(hd_provider())
    assert opposite.series(p, order) == opposite_series(hd_zeta(p, order))


def test_hd_zeta_is_the_monomial_geometric_product():
    u, v = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    p = 2 * u * v - v + 1
    uv = TruncatedSeries(hd_provider().ring, [(u * v) ** k for k in range(5)])
    minus_v = TruncatedSeries(hd_provider().ring, [MultiPoly.one(2), -v] + [MultiPoly.zero(2)] * 3)
    ones = TruncatedSeries(hd_provider().ring, [MultiPoly.one(2)] * 5)
    assert hd_zeta(p, 4) == uv * uv * minus_v * ones
