"""Power structures: unique factorization, the power laws, the opposite."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from math import comb, factorial

from stackzeta import (
    DomainError,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    TruncatedSeries,
    axiom_suite,
    bgl_class,
    binomial_series,
    hd_provider,
    hd_zeta,
    lambda_factorize,
    motivic_provider,
    motivic_ring,
    opposite_provider,
    opposite_series,
    opposite_zeta,
    parse_series,
    power,
    sym_power,
    zeta_series,
)
from stackzeta.verify import AxiomSample

from _strategies import motivic_classes, multipolys

MOT = motivic_ring()
ONE = MotivicClass.one()


@st.composite
def unit_series(draw, order=3):
    coeffs = [ONE] + [draw(motivic_classes(max_terms=2)) for _ in range(order)]
    return TruncatedSeries(MOT, tuple(coeffs))


def small_exponents():
    return st.sampled_from(
        (
            MotivicClass.zero(),
            ONE,
            -ONE,
            MotivicClass.l_power(1),
            MotivicClass(IntLaurent({1: 1, 0: 1})),
            bgl_class(1),
        )
    )


def test_factorization_of_one_plus_t():
    provider = motivic_provider()
    s = TruncatedSeries(MOT, (ONE, ONE, MotivicClass.zero(), MotivicClass.zero()))
    bs = lambda_factorize(s, provider)
    # one factor per exponent 1..order: (1+T) = prod_k zeta(b_k)(T^k)
    assert list(bs) == [ONE, -ONE, MotivicClass.zero()]


@given(unit_series())
@settings(max_examples=15)
def test_factorization_rebuilds_the_series(s):
    provider = motivic_provider()
    bs = lambda_factorize(s, provider)
    rebuilt = TruncatedSeries.one(MOT, s.order)
    for k, bk in enumerate(bs, start=1):
        if bk.is_zero:
            continue
        rebuilt = rebuilt * provider.series(bk, s.order).substitute_tk(k)
    assert rebuilt == s


def test_factorization_needs_constant_term_one():
    provider = motivic_provider()
    s = TruncatedSeries.constant(MOT, MotivicClass.l_power(1), 2)
    with pytest.raises(DomainError):
        lambda_factorize(s, provider)


@given(unit_series())
@settings(max_examples=10)
def test_power_identities(s):
    provider = motivic_provider()
    assert power(s, MotivicClass.zero(), provider) == TruncatedSeries.one(MOT, s.order)
    assert power(s, ONE, provider) == s


@given(unit_series(), small_exponents(), small_exponents())
@settings(max_examples=10)
def test_power_exponent_additivity(s, m, n):
    provider = motivic_provider()
    assert power(s, m + n, provider) == power(s, m, provider) * power(s, n, provider)


@given(unit_series(), unit_series(), small_exponents())
@settings(max_examples=10)
def test_power_base_multiplicativity(s, t, m):
    provider = motivic_provider()
    assert power(s * t, m, provider) == power(s, m, provider) * power(t, m, provider)


def test_power_rejects_foreign_exponents():
    provider = motivic_provider()
    s = TruncatedSeries.one(MOT, 2)
    with pytest.raises(DomainError):
        power(s, 3, provider)


def test_power_rejects_cross_ring_series():
    from stackzeta import hd_ring

    provider = motivic_provider()
    s = TruncatedSeries.one(hd_ring(2), 2)
    with pytest.raises(DomainError):
        lambda_factorize(s, provider)
    for exponent in (MotivicClass.zero(), ONE, MotivicClass.l_power(1)):
        with pytest.raises(DomainError, match="series ring does not match the provider"):
            power(s, exponent, provider)


def test_binomial_series_linear_coefficient():
    provider = motivic_provider()
    for m in (ONE, MotivicClass.l_power(1), bgl_class(1)):
        s = binomial_series(m, 3, provider)
        assert s.coefficient(0) == ONE
        assert s.coefficient(1) == m


def test_binomial_of_l_is_the_zeta_ratio():
    # (1+T)^L = zeta_L(T)/zeta_L(T^2) since 1+T = (1-T^2)/(1-T)
    provider = motivic_provider()
    l = MotivicClass.l_power(1)
    lhs = binomial_series(l, 4, provider)
    z = provider.series(l, 4)
    assert lhs == z * z.substitute_tk(2).inverse()


@given(unit_series())
@settings(max_examples=15)
def test_opposite_is_an_involution(s):
    assert opposite_series(opposite_series(s)) == s


def test_opposite_needs_constant_term_one():
    s = TruncatedSeries.constant(MOT, MotivicClass.l_power(1), 2)
    with pytest.raises(DomainError):
        opposite_series(s)


def test_opposite_provider_wraps_and_renames():
    provider = motivic_provider()
    opp = opposite_provider(provider)
    assert opp.name == "kapranov-zeta-opposite"
    assert opp.ring == provider.ring
    assert opp.series(ONE, 3) == opposite_series(provider.series(ONE, 3))


def test_axiom_suite_passes_on_a_small_sample():
    provider = motivic_provider()
    sample = AxiomSample(
        a=TruncatedSeries(MOT, (ONE, bgl_class(1), MotivicClass.l_power(1))),
        b=TruncatedSeries(MOT, (ONE, ONE, -ONE)),
        m=MotivicClass.l_power(1),
        n=ONE,
        k=2,
    )
    report = axiom_suite(provider, [sample], 2)
    assert report.passed
    assert len(report.checks) == 7
    assert report.failures() == ()
    assert report.provider == "kapranov-zeta"


def test_axiom_suite_rejects_a_broken_provider():
    provider = motivic_provider()

    def wrong(element, r):
        # psi^r + 2 in even degrees: lambda_x(T) / (1 - T^2), still integral
        value = provider.psi(element, r)
        return value + 2 * ONE if r % 2 == 0 else value

    from stackzeta import LambdaProvider

    broken = LambdaProvider("broken", MOT, wrong)
    sample = AxiomSample(
        a=TruncatedSeries(MOT, (ONE, ONE, MotivicClass.zero())),
        b=TruncatedSeries(MOT, (ONE, ONE, MotivicClass.zero())),
        m=MotivicClass.l_power(1),
        n=ONE,
        k=2,
    )
    assert broken.series(ONE, 2).coefficient(2) == provider.series(ONE, 2).coefficient(2) + ONE
    report = axiom_suite(broken, [sample], 2)
    assert not report.passed
    assert report.failures()
    assert all(c.witness for c in report.failures())


# -- integer exponents ----------------------------------------------------------

PROVIDERS = {
    "motivic": motivic_provider(),
    "motivic-opposite": opposite_provider(motivic_provider()),
    "hd": hd_provider(),
    "hd-opposite": opposite_provider(hd_provider()),
}


def general_power(series, exponent, provider):
    """The route for every exponent: lambda-factorize, then assemble the
    ghosts sum_{kr=n} k psi^r(m b_k) of A^m."""
    ring, order = provider.ring, series.order
    ghosts = [ring.zero] * (order + 1)
    for k, bk in enumerate(lambda_factorize(series, provider), start=1):
        for r in range(1, order // k + 1):
            ghosts[k * r] = ghosts[k * r] + k * provider.psi(exponent * bk, r)
    return TruncatedSeries.from_ghosts(ring, ghosts)


@st.composite
def provider_unit_series(draw, order=3):
    """A provider and a series with constant term 1 over its ring."""
    name = draw(st.sampled_from(sorted(PROVIDERS)))
    provider = PROVIDERS[name]
    ring = provider.ring
    if name.startswith("motivic"):
        coeffs = st.lists(motivic_classes(max_terms=2), min_size=order, max_size=order)
    else:
        coeffs = st.lists(multipolys(max_deg=2, max_terms=2), min_size=order, max_size=order)
    return provider, TruncatedSeries(ring, (ring.one, *draw(coeffs)))


@given(provider_unit_series(), st.integers(-6, 6))
@example((PROVIDERS["motivic"], TruncatedSeries(MOT, (ONE, bgl_class(1), MotivicClass.l_power(1), ONE))), 100)
@settings(max_examples=60)
def test_integer_exponents_give_the_ordinary_power(case, c):
    # -2 <= c <= 4 takes the ordinary power, any other c the scaled ghosts
    provider, s = case
    exponent = c * provider.ring.one
    assert exponent.as_int() == c
    result = power(s, exponent, provider)
    assert result == general_power(s, exponent, provider)
    assert result == s ** c


@given(st.sampled_from(sorted(PROVIDERS)), st.integers(-3, 3), st.integers(0, 5))
def test_binomial_series_of_an_integer_has_binomial_coefficients(name, c, order):
    provider = PROVIDERS[name]
    one = provider.ring.one
    # binom(c, k) = c (c - 1) ... (c - k + 1) / k!, for negative c too
    falling = [1]
    for k in range(1, order + 1):
        falling.append(falling[-1] * (c - k + 1))
    expected = [f // factorial(k) for k, f in enumerate(falling)]
    if c >= 0:
        assert expected == [comb(c, k) for k in range(order + 1)]
    assert binomial_series(c * one, order, provider).coefficients == tuple(e * one for e in expected)


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@pytest.mark.parametrize("c", (-2, -1, 0, 1, 2, 3))
def test_integer_exponents_need_constant_term_one(name, c):
    provider = PROVIDERS[name]
    ring = provider.ring
    two = ring.one + ring.one
    s = TruncatedSeries(ring, (two, ring.one, ring.zero))
    with pytest.raises(DomainError, match="ghost components need constant term 1"):
        power(s, c * ring.one, provider)


@pytest.mark.parametrize("order", [2.0, True, "2"])
def test_series_orders_are_ints(order):
    # a float order leaked TypeError from the series builders, and True was taken as order 1
    calls = [
        lambda: zeta_series(bgl_class(1), order),
        lambda: opposite_zeta(bgl_class(1), order),
        lambda: sym_power(bgl_class(1), order),
        lambda: hd_zeta(MultiPoly.one(2), order),
        lambda: binomial_series(bgl_class(1), order, motivic_provider()),
        lambda: parse_series("1 + T", order),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="series order must be an int"):
            call()
