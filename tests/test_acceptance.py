"""Acceptance suite: the headline identities, each timed against a budget.

Every criterion prints exactly one PASS/FAIL line (run pytest with -s to see
them on success; on failure the line shows up in the captured output).  All
comparisons are exact; the budgets are wall-clock seconds.
"""

import random
import time
from fractions import Fraction

from stackzeta import (
    DenomForm,
    IntLaurent,
    MotivicClass,
    bgl_class,
    binomial_series,
    block_distinct_oracle,
    check_class_effectiveness,
    check_functional_equation,
    check_polynomial_effectiveness,
    curve_opposite_counterexample,
    distinct_exponent_oracle,
    distinct_exponent_sum_taylor,
    gl_class,
    motivic_provider,
    MultiPoly,
    stack_power_counterexample,
    sym_power,
    verify_axioms,
    verify_grassmannian,
    zeta_series,
)

ONE = MotivicClass.one()


def q_power(j):
    return MotivicClass.l_power(-j)


def twisted_class(m, n):
    return q_power(m) * (ONE - q_power(n)).inverse()


def _criterion(num, label, budget_s, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < budget_s
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget_s}s)")
    if failure is not None:
        raise failure
    assert elapsed < budget_s, f"{label} exceeded its {budget_s}s budget"


def test_criterion_01_twisted_class_zeta_closed_form():
    def body():
        for m in (0, 1, 2):
            for n in (1, 2, 3):
                z = zeta_series(twisted_class(m, n), 6)
                prod = ONE
                for k in range(1, 7):
                    prod = prod * (ONE - q_power(k * n)).inverse()
                    assert z.coefficient(k) == q_power(m * k) * prod, (m, n, k)

    _criterion(1, "twisted-class zeta closed form", 5, body)


def test_criterion_02_classifying_stack_sym_powers():
    def body():
        z = zeta_series(bgl_class(1), 5)
        for k in range(6):
            expected = MotivicClass.l_power(k * k - k) * bgl_class(k)
            assert z.coefficient(k) == expected, k

    _criterion(2, "classifying-stack sym powers", 5, body)


def test_criterion_03_stack_power_counterexample():
    def body():
        m = bgl_class(1)
        provider = motivic_provider()
        via_power = binomial_series(m, 2, provider)
        z = zeta_series(m, 2)
        via_ratio = z * z.substitute_tk(2).inverse()
        target = MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1}), DenomForm(1, (1, 2)))
        assert target == MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1})) * gl_class(2).inverse()
        assert via_power.coefficient(2) == target
        assert via_ratio.coefficient(2) == target
        assert via_power == via_ratio
        assert check_class_effectiveness(target).refuted
        report = stack_power_counterexample()
        assert report.passed, "\n".join(report.notes)

    _criterion(3, "stack power-structure counterexample", 2, body)


def test_criterion_04_curve_opposite_counterexample():
    def body():
        u = MultiPoly.variable(2, 0)
        v = MultiPoly.variable(2, 1)
        report = curve_opposite_counterexample()
        assert report.passed, "\n".join(report.notes)
        expected = -(u ** 2 * v) - u * v ** 2 + u ** 2 + v ** 2 + 2 * u * v - u - v
        assert report.coefficient == expected
        eff = check_polynomial_effectiveness(report.coefficient)
        assert eff.refuted
        assert eff.witness == -(u ** 2 * v) - u * v ** 2

    _criterion(4, "opposite-structure curve counterexample", 1, body)


def test_criterion_05_distinct_sum_closed_form():
    def body():
        for k in (1, 2, 3):
            assert distinct_exponent_sum_taylor(k, 8) == distinct_exponent_oracle(k, 8), k

    _criterion(5, "distinct-sum closed form vs enumeration", 10, body)


def test_criterion_06_block_distinct_sums():
    def body():
        from math import factorial

        for mults in ((2,), (1, 1), (2, 1)):
            k = sum(mults)
            var_of = [j for j, m in enumerate(mults) for _ in range(m)]
            taylor = distinct_exponent_sum_taylor(k, 8, var_of=var_of, nvars=len(mults))
            scale = 1
            for m in mults:
                scale *= factorial(m)
            assert taylor == block_distinct_oracle(mults, 8) * scale, mults

    _criterion(6, "block distinct sums vs enumeration", 10, body)


def test_criterion_07_functional_equation():
    def body():
        bases = (
            ONE,
            ONE + MotivicClass.l_power(1),
            MotivicClass(IntLaurent({2: 1, 1: -1})),
            bgl_class(1),
        )
        for b in bases:
            for m in (0, 1):
                for n in (1, 2):
                    report = check_functional_equation(b, m, n, 6)
                    assert report.passed, (str(b), m, n, report.first_divergence)

    _criterion(7, "zeta functional equation", 10, body)


def test_criterion_08_power_structure_axioms():
    def body():
        for ring in ("motivic", "hd"):
            report = verify_axioms(ring, 5, 20, 1)
            assert report.passed, (ring, report.witness)
            control = verify_axioms(ring, 5, 20, 1, perturbed=True)
            assert not control.passed, ring

    _criterion(8, "power-structure axioms with negative controls", 20, body)


def test_criterion_09_representation_independence_and_scaling():
    def body():
        # (1+q)/(1-q^2) and 1/(1-q) are the same class, given in different
        # shapes; both are stored in the one reduced form
        a1 = MotivicClass(IntLaurent({2: 1, 1: 1}), DenomForm(0, (2,)))
        a2 = MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
        assert a1 == a2
        assert a1.structural_key() == a2.structural_key()
        assert zeta_series(a1, 6) == zeta_series(a2, 6)

        rng = random.Random(2024)
        pool = (
            ONE,
            -ONE,
            MotivicClass.l_power(1),
            MotivicClass(IntLaurent({1: 1, 0: 1})),
            MotivicClass(IntLaurent({2: 1, 0: -1})),
            bgl_class(1),
            MotivicClass(IntLaurent.one(), DenomForm(0, (2,))),
            MotivicClass(IntLaurent.term(1), DenomForm(1, (1,))),
        )
        l = MotivicClass.l_power(1)
        for _ in range(10):
            a = rng.choice(pool) + rng.choice(pool)
            assert zeta_series(l * a, 5) == zeta_series(a, 5).scale_t(l), str(a)

    _criterion(9, "representation independence and scaling law", 5, body)


def test_criterion_10_grassmannian_products():
    def body():
        for n_max, order in ((2, 3), (4, 4), (6, 5)):
            report = verify_grassmannian(n_max, order)
            assert report.passed, report.witness

    _criterion(10, "grassmannian products and stabilization", 5, body)


def test_criterion_11_exact_rational_specialization():
    def body():
        points = (Fraction(2), Fraction(3), Fraction(5))
        for m in (0, 1, 2):
            for n in (1, 2, 3):
                z = zeta_series(twisted_class(m, n), 6)
                for t in points:
                    q = 1 / t
                    value = Fraction(1)
                    for k in range(1, 7):
                        value /= 1 - q ** (k * n)
                        assert z.coefficient(k).eval_rational(t) == q ** (m * k) * value
        for k in range(6):
            s = sym_power(bgl_class(1), k)
            for t in points:
                gl = Fraction(1)
                for j in range(k):
                    gl *= t ** k - t ** j
                assert s.eval_rational(t) == t ** (k * k - k) / gl

    _criterion(11, "exact rational specialization", 2, body)
