"""Hodge-Deligne realization, zeta of E-polynomials, effectiveness refutation."""

import pytest
from hypothesis import given, settings

from stackzeta import (
    EFFECTIVE_CANDIDATE,
    INCONCLUSIVE,
    NOT_EFFECTIVE,
    DenomForm,
    DomainError,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    TruncatedSeries,
    bgl_class,
    check_class_effectiveness,
    check_polynomial_effectiveness,
    curve_opposite_counterexample,
    hd_opposite_provider,
    hd_provider,
    hd_zeta,
    stack_power_counterexample,
    zeta_series,
)

from stackzeta import verify

from _strategies import multipolys

U = MultiPoly.variable(2, 0)
V = MultiPoly.variable(2, 1)


def test_hd_zeta_of_a_monomial_is_geometric():
    z = hd_zeta(U * V, 3)
    for k in range(4):
        assert z.coefficient(k) == (U * V) ** k


@given(multipolys(max_deg=2, max_terms=2), multipolys(max_deg=2, max_terms=2))
@settings(max_examples=15)
def test_hd_zeta_turns_sums_into_products(p, q):
    assert hd_zeta(p + q, 3) == hd_zeta(p, 3) * hd_zeta(q, 3)


def test_hd_zeta_of_a_negative_monomial_terminates():
    z = hd_zeta(-U, 3)
    assert z.coefficient(1) == -U
    assert z.coefficient(2).is_zero
    assert z.coefficient(3).is_zero


def test_hd_zeta_realizes_the_motivic_zeta():
    # E is a ring map compatible with sym powers on polynomial classes
    for poly in (IntLaurent({1: 1, 0: 1}), IntLaurent({2: 1, 0: -1}), IntLaurent.term(2)):
        a = MotivicClass(poly)
        e = a.hd_realization()
        assert e.l_exp == 0 and not e.factors
        motivic = zeta_series(a, 3)
        realized = hd_zeta(e.num, 3)
        for k in range(4):
            r = motivic.coefficient(k).hd_realization()
            assert r.l_exp == 0 and not r.factors
            assert r.num == realized.coefficient(k)


def test_hd_zeta_order_guard():
    with pytest.raises(DomainError):
        hd_zeta(U, -1)


def test_hd_providers():
    p = hd_provider()
    assert p.series(U, 2).coefficient(2) == U ** 2
    opp = hd_opposite_provider()
    assert opp.name.endswith("-opposite")
    assert opp.ring == p.ring


# -- polynomial effectiveness -------------------------------------------------------


def test_polynomial_effectiveness_verdicts():
    ok = check_polynomial_effectiveness(3 * (U * V) ** 2 + U + V)
    assert ok.verdict == EFFECTIVE_CANDIDATE
    assert not ok.refuted

    zero = check_polynomial_effectiveness(MultiPoly.zero(2))
    assert zero.verdict == EFFECTIVE_CANDIDATE

    bad = check_polynomial_effectiveness(U ** 2 * V + U * V)
    assert bad.verdict == NOT_EFFECTIVE
    assert bad.refuted
    assert bad.witness == U ** 2 * V

    # negative multiple of (uv)^n is not a variety shape either
    neg = check_polynomial_effectiveness(-(U * V) + 1)
    assert neg.refuted

    off_diagonal = check_polynomial_effectiveness(U ** 2 + V ** 2)
    assert off_diagonal.refuted
    assert off_diagonal.witness == U ** 2 + V ** 2


def test_polynomial_effectiveness_needs_two_variables():
    with pytest.raises(DomainError):
        check_polynomial_effectiveness(MultiPoly.one(3))


# -- class effectiveness --------------------------------------------------------


def test_class_effectiveness_on_staircase_denominators():
    assert check_class_effectiveness(bgl_class(2)).verdict == EFFECTIVE_CANDIDATE
    assert check_class_effectiveness(MotivicClass.one()).verdict == EFFECTIVE_CANDIDATE
    assert check_class_effectiveness(MotivicClass.zero()).verdict == EFFECTIVE_CANDIDATE


def test_class_effectiveness_is_invariant_under_l_units():
    a = MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1}), DenomForm(1, (1, 2)))
    base = check_class_effectiveness(a)
    assert base.verdict == NOT_EFFECTIVE
    l = MotivicClass.l_power(1)
    assert check_class_effectiveness(a * l).verdict == base.verdict
    assert check_class_effectiveness(a * l.inverse()).verdict == base.verdict


def test_class_effectiveness_inconclusive_denominator():
    # (L^2-1) alone is not a GL staircase
    a = MotivicClass(IntLaurent.one(), DenomForm(0, (2,)))
    assert check_class_effectiveness(a).verdict == INCONCLUSIVE


# -- the two reproductions ------------------------------------------------------


def test_curve_opposite_counterexample():
    report = curve_opposite_counterexample()
    assert report.passed, "\n".join(report.notes)
    expected = -(U ** 2 * V) - U * V ** 2 + U ** 2 + V ** 2 + 2 * U * V - U - V
    assert report.coefficient == expected
    assert report.effectiveness.refuted
    assert report.effectiveness.witness == -(U ** 2 * V) - U * V ** 2


def test_stack_power_counterexample():
    report = stack_power_counterexample()
    assert report.passed, "\n".join(report.notes)
    target = MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1}), DenomForm(1, (1, 2)))
    assert report.coefficient == target
    assert report.effectiveness.refuted


def _bump(series, k, by):
    coeffs = list(series.coefficients)
    coeffs[k] = coeffs[k] + by
    return TruncatedSeries(series.ring, coeffs)


def test_curve_report_fails_on_a_wrong_t_coefficient(monkeypatch):
    real = verify.opposite_series
    monkeypatch.setattr(verify, "opposite_series", lambda s: _bump(real(s), 1, MultiPoly.one(2)))
    report = curve_opposite_counterexample()
    assert not report.passed
    e = MultiPoly.one(2) - U - V + U * V
    assert report.notes[:-1] == (f"T coefficient {e + 1} != {e}",)
    assert str(report).startswith("curve-opposite: FAILED")


def test_stack_report_fails_when_the_ratio_route_breaks(monkeypatch):
    real = verify.zeta_series
    monkeypatch.setattr(verify, "zeta_series", lambda a, order: _bump(real(a, order), 2, MotivicClass.one()))
    report = stack_power_counterexample()
    assert not report.passed
    assert report.notes[:-1] == ("power and ratio routes diverge at T^2",)
    assert str(report).startswith("stack-power: FAILED")


def test_stack_power_counterexample_needs_order_two():
    with pytest.raises(DomainError):
        stack_power_counterexample(order=1)


def test_counterexample_reports_render():
    report = curve_opposite_counterexample()
    text = str(report)
    assert "curve-opposite" in text
    assert "ok" in text
