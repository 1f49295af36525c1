"""The zeta pre-lambda structure: closed forms, functional equation, oracles."""

import random

import pytest
from hypothesis import given, settings

from stackzeta import (
    DenomForm,
    DomainError,
    IntLaurent,
    MotivicClass,
    ResourceLimitError,
    TruncatedSeries,
    bgl_class,
    check_functional_equation,
    grassmannian_class,
    infinite_product_prefix,
    motivic_ring,
    opposite_zeta,
    sym_power,
    zeta_from_sigma,
    zeta_of_polynomial,
    zeta_series,
)

from stackzeta.power import MAX_SERIES_ORDER

from _strategies import laurents, motivic_classes

MOT = motivic_ring()
ONE = MotivicClass.one()


def q_power(j):
    return MotivicClass.l_power(-j)


# -- polynomial classes -----------------------------------------------------------


def test_zeta_of_one_is_geometric():
    z = zeta_series(1, 5)
    assert all(c == ONE for c in z.coefficients)


def test_zeta_of_l_has_l_power_coefficients():
    z = zeta_series(MotivicClass.l_power(1), 5)
    for k in range(6):
        assert z.coefficient(k) == MotivicClass.l_power(k)


def test_zeta_of_a_projective_line_class_gives_projective_spaces():
    # sym^k of the class of P^1 is the class of P^k
    z = zeta_series(MotivicClass(IntLaurent({1: 1, 0: 1})), 5)
    for k in range(6):
        assert z.coefficient(k) == grassmannian_class(1, k + 1)


def test_zeta_of_minus_one_terminates():
    z = zeta_series(MotivicClass(-1), 4)
    assert z.coefficient(0) == ONE
    assert z.coefficient(1) == MotivicClass(-1)
    assert all(z.coefficient(k).is_zero for k in range(2, 5))


@given(laurents(min_deg=0, max_deg=3, max_terms=3), laurents(min_deg=0, max_deg=3, max_terms=3))
@settings(max_examples=15)
def test_zeta_turns_sums_into_products(a, b):
    za = zeta_of_polynomial(a, 3)
    zb = zeta_of_polynomial(b, 3)
    assert zeta_of_polynomial(a + b, 3) == za * zb


def test_zeta_respects_the_class_not_the_representation():
    a1 = MotivicClass(IntLaurent({2: 1, 1: 1}), DenomForm(0, (2,)))
    a2 = MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
    assert a1 == a2
    assert zeta_series(a1, 4) == zeta_series(a2, 4)


# -- stack classes ------------------------------------------------------------


def test_sym_powers_of_the_classifying_stack():
    # sym^k of 1/(L-1) is L^{k^2-k} / [GL(k)]
    for k in range(6):
        expected = MotivicClass.l_power(k * k - k) * bgl_class(k)
        assert sym_power(bgl_class(1), k) == expected


def test_zeta_of_the_classifying_stack_is_stored_in_the_gl_shape():
    # the T^k coefficient L^{k^2-k}/[GL(k)] = L^{k(k-1)/2} / prod_{j<=k}(L^j - 1)
    # comes out of the engine in exactly that reduced form, whatever the route
    series = zeta_series(bgl_class(1), 12)
    for k in range(13):
        c = series.coefficient(k)
        assert c.structural_key() == ((((k * k - k) // 2, 1),), 0, tuple((d, k // d) for d in range(1, k + 1)))
        assert (c.num, c.den) == (IntLaurent.term((k * k - k) // 2), DenomForm(0, tuple(range(1, k + 1))))


def test_zeta_closed_form_for_twisted_classes():
    # T^k coefficient of zeta of q^m/(1-q^n) is q^{mk} / prod_{j<=k} (1 - q^{jn})
    for m in (0, 1, 2):
        for n in (1, 2):
            a = q_power(m) * (ONE - q_power(n)).inverse()
            z = zeta_series(a, 4)
            prod = ONE
            for k in range(1, 5):
                prod = prod * (ONE - q_power(k * n)).inverse()
                assert z.coefficient(k) == q_power(m * k) * prod


def test_zeta_scaling_law():
    # zeta_{L*a}(T) = zeta_a(L*T)
    l = MotivicClass.l_power(1)
    for a in (bgl_class(1), bgl_class(2), MotivicClass(IntLaurent({1: 1, 0: -1}))):
        assert zeta_series(l * a, 4) == zeta_series(a, 4).scale_t(l)


@given(motivic_classes(max_terms=2))
@settings(max_examples=10)
def test_zeta_scaling_law_randomized(a):
    l = MotivicClass.l_power(1)
    assert zeta_series(l * a, 3) == zeta_series(a, 3).scale_t(l)


def test_zeta_order_and_cap_guards():
    with pytest.raises(DomainError):
        zeta_series(ONE, -1)
    with pytest.raises(ResourceLimitError):
        zeta_series(bgl_class(1), MAX_SERIES_ORDER + 1)
    with pytest.raises(DomainError):
        sym_power(ONE, -1)
    with pytest.raises(DomainError, match="series order must be nonnegative"):
        zeta_of_polynomial(IntLaurent.one(), -1)


def test_opposite_zeta_of_one():
    z = opposite_zeta(ONE, 3)
    assert z.coefficient(0) == ONE
    assert z.coefficient(1) == ONE
    assert z.coefficient(2).is_zero
    assert z.coefficient(3).is_zero


# -- the partition formula entry point ---------------------------------------------


def test_zeta_from_sigma_agrees_with_the_engine():
    cases = (
        (ONE, 0, 1),
        (ONE, 1, 2),
        (ONE + MotivicClass.l_power(1), 0, 1),
        (ONE + MotivicClass.l_power(1), 1, 2),
        (bgl_class(1), 0, 1),
    )
    for b, m, n in cases:
        sigma = zeta_series(b, 4).coefficients[1:]
        a = b * q_power(m) * (ONE - q_power(n)).inverse()
        assert zeta_from_sigma(sigma, m, n, 4) == zeta_series(a, 4)


def test_zeta_from_sigma_negative_twist():
    # 1/(1-q^{-1}) = -q/(1-q), so with b = 1 this is zeta of -1/(L-1)
    sigma = (ONE, ONE, ONE, ONE)
    got = zeta_from_sigma(sigma, 0, -1, 4)
    assert got == zeta_series(-bgl_class(1), 4)


def test_zeta_from_sigma_validation():
    with pytest.raises(DomainError):
        zeta_from_sigma((ONE,), 0, 0, 1)
    with pytest.raises(DomainError):
        zeta_from_sigma((ONE,), 0, 1, 2)
    with pytest.raises(DomainError):
        zeta_from_sigma((ONE,), 0, 1, -1)
    # the partition 1^9 needs the closed form at 9 arguments, above the cap of 8
    with pytest.raises(ResourceLimitError, match="k=9 exceeds the permutation cap 8"):
        zeta_from_sigma((ONE,) * 9, 0, 1, 9)


# -- functional equation -----------------------------------------------------------


def test_functional_equation_holds():
    # the base may also be an int or an IntLaurent
    bs = (ONE, ONE + MotivicClass.l_power(1), bgl_class(1), 2, IntLaurent({1: 1, 0: -1}))
    for b in bs:
        for m in (0, 1):
            for n in (1, 2):
                report = check_functional_equation(b, m, n, 4)
                assert report.passed
                assert report.first_divergence is None


def test_functional_equation_accepts_a_matching_class():
    b = ONE + MotivicClass.l_power(1)
    a = b * q_power(1) * (ONE - q_power(2)).inverse()
    assert check_functional_equation(b, 1, 2, 3, a=a).passed
    with pytest.raises(DomainError):
        check_functional_equation(b, 1, 2, 3, a=b)


def test_functional_equation_needs_positive_n():
    with pytest.raises(DomainError):
        check_functional_equation(ONE, 0, 0, 3)
    with pytest.raises(DomainError):
        check_functional_equation(ONE, 0, -1, 3)


# -- the infinite-product oracle -----------------------------------------------------


def test_prefix_product_stabilizes_onto_the_engine():
    report = infinite_product_prefix(1, 1, 1, 9, 3, 8)
    assert report.stabilized is True
    engine = zeta_series(bgl_class(1), 3)
    expected = tuple(
        tuple(sorted(engine.coefficient(k).q_expansion(8).items())) for k in range(4)
    )
    assert report.tables == expected


def test_prefix_below_threshold_reports_nothing():
    report = infinite_product_prefix(1, 1, 1, 3, 2, 8)
    assert report.stabilized is None


def test_prefix_caps_and_validation():
    with pytest.raises(ResourceLimitError):
        infinite_product_prefix(1, 0, 1, 25, 2)
    with pytest.raises(ResourceLimitError):
        infinite_product_prefix(1, 0, 1, 4, 13)
    with pytest.raises(ResourceLimitError):
        infinite_product_prefix(1, 0, 1, 4, 2, 49)
    with pytest.raises(DomainError):
        infinite_product_prefix(1, 0, 0, 4, 2)
    with pytest.raises(DomainError):
        infinite_product_prefix(1, 0, 1, 0, 2)


# -- additivity over a seeded pool ---------------------------------------------------


def test_zeta_is_additive_to_multiplicative():
    rng = random.Random(7)
    pool = (
        ONE,
        -ONE,
        MotivicClass.l_power(1),
        MotivicClass(IntLaurent({1: 1, 0: 1})),
        bgl_class(1),
        MotivicClass(IntLaurent.term(1), DenomForm(0, (2,))),
    )
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        assert zeta_series(a + b, 3) == zeta_series(a, 3) * zeta_series(b, 3)
