"""Hodge-Deligne realization, zeta of E-polynomials, effectiveness refutation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackzeta import (
    EFFECTIVE_CANDIDATE,
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
    gl_class,
    grassmannian_class,
    hd_opposite_provider,
    hd_provider,
    hd_zeta,
    parse_class,
    stack_power_counterexample,
    zeta_series,
)

from stackzeta import motivic, verify

from _strategies import motivic_classes, multipolys, nonzero_classes
from test_laurent import term_by_term

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
    with pytest.raises(DomainError, match="element does not lie in the int-poly-2 ring"):
        p.series(MotivicClass.one(), 2)
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


def test_class_effectiveness_decides_every_denominator():
    # none of these denominators is a product of [GL(n)]s
    assert check_class_effectiveness(parse_class("-1/(L^2-1)")).verdict == NOT_EFFECTIVE
    assert check_class_effectiveness(parse_class("1/(L^3-1)-1/(L-1)")).verdict == NOT_EFFECTIVE
    assert check_class_effectiveness(parse_class("1/(L^2-1)")).verdict == EFFECTIVE_CANDIDATE


_GR = st.integers(0, 4).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))
_EFFECTIVE_FACTORS = st.one_of(
    st.builds(gl_class, st.integers(0, 3)),
    st.builds(bgl_class, st.integers(0, 3)),
    _GR.map(lambda kn: grassmannian_class(*kn)),
    st.builds(MotivicClass.l_power, st.integers(-3, 3)),  # L^s, and q^s for s < 0
)


@st.composite
def effective_classes(draw):
    """Nonnegative integer combinations of products of GL(n), BGL(n), Gr(k, n), L^s and q^s."""
    total = MotivicClass.zero()
    terms = st.tuples(st.integers(0, 3), st.lists(_EFFECTIVE_FACTORS, max_size=3))
    for coeff, factors in draw(st.lists(terms, max_size=3)):
        term = MotivicClass.one() * coeff
        for factor in factors:
            term = term * factor
        total = total + term
    return total


@given(effective_classes())
@settings(max_examples=60)
def test_effective_combinations_are_never_refuted(a):
    assert not check_class_effectiveness(a).refuted, a


@given(st.one_of(nonzero_classes(), effective_classes().filter(lambda a: not a.is_zero)))
@settings(max_examples=60)
def test_class_verdict_is_the_sign_of_the_leading_q_coefficient(a):
    # the q-adic expansion leads with the same coefficient as the realization,
    # by geometric series instead of top-degree parts; every degree here is below 40
    expansion = a.q_expansion(40)
    leading = expansion[min(expansion)]
    assert (check_class_effectiveness(a).verdict == EFFECTIVE_CANDIDATE) == (leading > 0), a


@given(st.one_of(motivic_classes(), effective_classes()))
@settings(max_examples=60)
def test_class_effectiveness_matches_the_realized_numerator(a):
    # the reference route: the top-part test on the whole realized numerator
    realized = a.hd_realization().num
    assert realized == term_by_term(a.num, U * V)
    got = check_class_effectiveness(a)
    want = check_polynomial_effectiveness(realized)
    assert (got.verdict, got.witness) == (want.verdict, want.witness), a
    if not a.is_zero:
        assert got.detail.endswith(f"; {want.detail}"), a


def test_class_effectiveness_runs_the_cover_rule_once(monkeypatch):
    a = parse_class("BGL(6)*q^3 + 1/(L+1)")
    calls = []
    cover = motivic._cover
    monkeypatch.setattr(motivic, "_cover", lambda cyc: calls.append(cyc) or cover(cyc))
    assert check_class_effectiveness(a).verdict == EFFECTIVE_CANDIDATE
    assert calls == [a._den.exponents]


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
    assert report.effectiveness.witness == -(U ** 2 * V ** 2)


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


def test_stack_report_fails_on_a_wrong_witness(monkeypatch):
    real = verify.check_class_effectiveness
    wrong = -(U ** 3 * V ** 3)
    monkeypatch.setattr(verify, "check_class_effectiveness", lambda c: real(c)._replace(witness=wrong))
    report = stack_power_counterexample()
    assert not report.passed
    assert report.notes[:-1] == (f"expected witness -u^2*v^2, got {wrong}",)


def test_stack_power_counterexample_needs_order_two():
    with pytest.raises(DomainError):
        stack_power_counterexample(order=1)


def test_counterexample_reports_render():
    report = curve_opposite_counterexample()
    text = str(report)
    assert "curve-opposite" in text
    assert "ok" in text
