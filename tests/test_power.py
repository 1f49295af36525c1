"""Power structures: unique factorization, the power laws, the opposite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackzeta import (
    DomainError,
    IntLaurent,
    MotivicClass,
    TruncatedSeries,
    axiom_suite,
    bgl_class,
    binomial_series,
    lambda_factorize,
    motivic_provider,
    motivic_ring,
    opposite_provider,
    opposite_series,
    power,
)
from stackzeta.power import AxiomSample

from _strategies import motivic_classes

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
