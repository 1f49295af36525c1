"""Verification scenarios: positive runs, negative controls, caps, reports."""

import pytest

from stackzeta import verify

from stackzeta import (
    DomainError,
    MotivicClass,
    ResourceLimitError,
    verify_axioms,
    verify_distinct_sum,
    verify_grassmannian,
    verify_zeta_closed_form,
)

REPORT_KEYS = {"scenario", "params", "verdict", "witness", "ms"}


def test_distinct_sum_scenario():
    report = verify_distinct_sum(2, 6)
    assert report.passed
    assert report.witness is None
    assert report.verdict == "pass"
    assert set(report.to_json()) == REPORT_KEYS


def test_distinct_sum_negative_control():
    report = verify_distinct_sum(2, 4, perturb=True)
    assert not report.passed
    assert report.verdict == "fail"
    assert report.witness


def test_distinct_sum_guards():
    with pytest.raises(DomainError):
        verify_distinct_sum(0, 4)
    with pytest.raises(ResourceLimitError):
        verify_distinct_sum(4, 4)
    with pytest.raises(ResourceLimitError):
        verify_distinct_sum(2, 11)


def test_zeta_closed_form_scenario():
    for m, n in ((0, 1), (1, 1), (2, 3)):
        report = verify_zeta_closed_form(m, n, 4)
        assert report.passed, report.witness
        assert set(report.to_json()) == REPORT_KEYS


def test_zeta_closed_form_guards():
    with pytest.raises(DomainError):
        verify_zeta_closed_form(-1, 1, 4)
    with pytest.raises(DomainError):
        verify_zeta_closed_form(0, 0, 4)
    with pytest.raises(ResourceLimitError):
        verify_zeta_closed_form(0, 1, 9)


# -- negative controls: each breaks one side of a check through monkeypatch ----------


def test_zeta_closed_form_fails_on_a_wrong_engine_coefficient(monkeypatch):
    engine = verify.zeta_series
    monkeypatch.setattr(verify, "zeta_series", lambda a, order: engine(a + 1, order))
    report = verify_zeta_closed_form(0, 1, 2)
    assert report.passed is False
    assert report.witness == "T^1: engine (2*L - 1) / (L-1), product formula L / (L-1)"


def test_zeta_closed_form_fails_on_a_wrong_gl_class(monkeypatch):
    gl = verify.gl_class
    monkeypatch.setattr(verify, "gl_class", lambda k: gl(k) * MotivicClass.l_power(1))
    report = verify_zeta_closed_form(0, 1, 2)
    assert report.passed is False
    assert report.witness == "T^1: coefficient * [GL(1)] != L^(1^2-0*1)"


def test_grassmannian_fails_on_a_wrong_gaussian_binomial(monkeypatch):
    gr = verify.grassmannian_class
    monkeypatch.setattr(verify, "grassmannian_class", lambda k, n: gr(k, n) + (1 if k == 1 else 0))
    report = verify_grassmannian(2, 2)
    assert report.passed is False
    assert report.witness == "T^1: product L^2 + L + 1, [Gr(1,3)] = L^2 + L + 2"


def test_grassmannian_fails_on_a_stabilization_break(monkeypatch):
    # only the wider binomials Gr(k, n_max + 1 + k) change, in L-degree 1
    gr = verify.grassmannian_class
    def wider_broken(k, n):
        return gr(k, n) + MotivicClass.l_power(1) if n - k == 3 else gr(k, n)

    monkeypatch.setattr(verify, "grassmannian_class", wider_broken)
    report = verify_grassmannian(2, 2)
    assert report.passed is False
    assert report.witness == "stabilization break at T^0, L-degree 1"


def test_grassmannian_scenario():
    report = verify_grassmannian(4, 4)
    assert report.passed, report.witness


def test_grassmannian_guards():
    with pytest.raises(DomainError):
        verify_grassmannian(-1, 3)
    with pytest.raises(ResourceLimitError):
        verify_grassmannian(9, 3)
    with pytest.raises(ResourceLimitError):
        verify_grassmannian(3, 7)


def test_axiom_scenario_is_deterministic():
    first = verify_axioms("motivic", 2, 4, 123)
    second = verify_axioms("motivic", 2, 4, 123)
    assert first.passed and second.passed
    assert first.params == second.params
    assert first.to_json()["verdict"] == second.to_json()["verdict"]


def test_axiom_scenario_hd_ring():
    report = verify_axioms("hd", 2, 4, 5)
    assert report.passed, report.witness


@pytest.mark.parametrize("ring", ("motivic", "hd"))
def test_axiom_negative_control(ring):
    # integer exponents give the ordinary power on any provider, so the broken
    # Adams operations first show where a class exponent meets a product
    report = verify_axioms(ring, 2, 3, 0, perturbed=True)
    assert not report.passed
    assert report.witness.startswith("axiom 3 ((A*B)^m = A^m * B^m): sample 0: ")


def test_every_perturbed_axiom_run_fails():
    # an integer exponent m takes the ordinary power, which never calls the
    # tampered psi, so a perturbed run draws every m from the non-integer classes
    passed = [
        (ring, order, samples, seed)
        for ring in ("motivic", "hd")
        for order in (2, 3, 4, 5)
        for samples in (1, 2, 3, 5, 20)
        for seed in range(8)
        if verify_axioms(ring, order, samples, seed, perturbed=True).passed
    ]
    assert passed == []


def test_axiom_guards():
    with pytest.raises(DomainError):
        verify_axioms("other", 2, 4, 0)
    with pytest.raises(DomainError):
        verify_axioms("motivic", 1, 4, 0)
    with pytest.raises(ResourceLimitError):
        verify_axioms("motivic", 6, 4, 0)
    with pytest.raises(ResourceLimitError):
        verify_axioms("motivic", 2, 51, 0)
    # zero or negative sample counts would run no check and pass vacuously
    for samples in (0, -3):
        with pytest.raises(DomainError):
            verify_axioms("motivic", 2, samples, 0)
        with pytest.raises(DomainError):
            verify_axioms("motivic", 2, samples, 0, perturbed=True)


def test_report_rendering():
    report = verify_distinct_sum(1, 3)
    text = str(report)
    assert "distinct-sum" in text
    assert "pass" in text
    assert report.ms >= 0
