"""Verification, never imported by the engine: timed scenarios, the seven
power-structure axioms (``axiom_suite``) and the paper's two refutations of
effectivity (``curve_opposite_counterexample``, ``stack_power_counterexample``).

Each scenario checks one identity two independent ways and reports the first
witness on divergence.  Sampling is seeded and deterministic.  The perturbed
variants are negative controls: they deliberately break one side and must
come back failing, which guards the scenarios against vacuous passes.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .laurent import IntLaurent
from .motivic import DenomForm, MotivicClass, bgl_class, gl_class, grassmannian_class
from .multipoly import MultiPoly
from .power import LambdaProvider, binomial_series, opposite_series, power
from .series import TruncatedSeries
from .hodge import check_class_effectiveness, check_polynomial_effectiveness, hd_opposite_provider, hd_provider, hd_zeta
from .zeta import MOTIVIC, motivic_provider, zeta_series
from .oracles import distinct_exponent_oracle, distinct_exponent_sum_taylor, zeta_of_polynomial


class VerificationReport(NamedTuple):
    scenario: str
    params: dict
    passed: bool
    witness: str | None
    ms: float

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __str__(self) -> str:
        out = f"scenario {self.scenario} {self.params}: {self.verdict} ({self.ms:.1f} ms)"
        if self.witness:
            out += f"\n  witness: {self.witness}"
        return out

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "ms": self.ms,
        }


def _timed(scenario: str, params: dict, body: Callable[[], tuple[bool, str | None]]) -> VerificationReport:
    start = time.perf_counter()
    passed, witness = body()
    ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(scenario, params, passed, witness, ms)


def verify_distinct_sum(k: int, degree_cap: int, *, perturb: bool = False) -> VerificationReport:
    """Closed form of the distinct-exponent sum vs brute-force enumeration.

    The closed form is expanded symbolically in q_1..q_k; the oracle
    enumerates exponent tuples.  ``perturb`` flips the sign of the closed
    form, a negative control that must fail.
    """
    if k < 1:
        raise DomainError("need k >= 1")
    if k > 3 or degree_cap > 10:
        raise ResourceLimitError("distinct-sum verification is capped at k <= 3, degree <= 10")

    def body():
        closed = distinct_exponent_sum_taylor(k, degree_cap)
        if perturb:
            closed = -closed
        oracle = distinct_exponent_oracle(k, degree_cap)
        diff = closed - oracle
        if diff.is_zero:
            return True, None
        exps, coeff = next(diff.items())
        mono = MultiPoly.monomial(exps)
        return False, f"at {mono}: closed {oracle.coefficient(exps) + coeff}, enumeration {oracle.coefficient(exps)}"

    return _timed("distinct-sum", {"k": k, "degree_cap": degree_cap, "perturb": perturb}, body)


def verify_zeta_closed_form(m: int, n: int, order: int) -> VerificationReport:
    """zeta of q^m/(1-q^n) against the product formula.

    The T^k coefficient must equal q^{mk} / prod_{j=1..k} (1 - q^{jn}); for
    n = 1 the coefficient is also checked to be L^{k^2 - mk} / [GL(k)] by
    multiplying back (m = 1 is the classifying-stack case L^{k^2-k}/[GL(k)]).
    """
    if m < 0 or n < 1:
        raise DomainError("need m >= 0 and n >= 1")
    if order > 8:
        raise ResourceLimitError("zeta-closed-form verification is capped at order 8")

    def body():
        a = MotivicClass.l_power(-m) * MotivicClass(IntLaurent.term(n), DenomForm(0, (n,)))
        z = zeta_series(a, order)
        prod = MotivicClass.one()
        for k in range(1, order + 1):
            prod = prod * (MotivicClass.one() - MotivicClass.l_power(-k * n)).inverse()
            rhs = MotivicClass.l_power(-m * k) * prod
            if not z.coefficient(k) == rhs:
                return False, f"T^{k}: engine {z.coefficient(k)}, product formula {rhs}"
            if n == 1:
                back = z.coefficient(k) * gl_class(k)
                if not back == MotivicClass.l_power(k * k - m * k):
                    return False, f"T^{k}: coefficient * [GL({k})] != L^({k}^2-{m}*{k})"
        return True, None

    return _timed("zeta-closed-form", {"m": m, "n": n, "order": order}, body)


def verify_grassmannian(n_max: int, order: int) -> VerificationReport:
    """prod_{j=0}^{N} zeta_{L^j} coefficients against Gaussian binomials.

    The T^k coefficient of the product must be [Gr(k, N+k)]; additionally
    the Gaussian binomials must stabilize: [Gr(k, N+k)] and [Gr(k, N+1+k)]
    agree in every L-degree below N.
    """
    if n_max < 0:
        raise DomainError("need n_max >= 0")
    if n_max > 8 or order > 6:
        raise ResourceLimitError("grassmannian verification is capped at n_max 8, order 6")

    def body():
        prod = TruncatedSeries.one(MOTIVIC, order)
        for j in range(n_max + 1):
            prod = prod * zeta_of_polynomial(IntLaurent.term(j), order)
        for k in range(order + 1):
            expected = grassmannian_class(k, n_max + k)
            if not prod.coefficient(k) == expected:
                return False, f"T^{k}: product {prod.coefficient(k)}, [Gr({k},{n_max + k})] = {expected}"
            wider = grassmannian_class(k, n_max + 1 + k)
            for d in range(n_max):
                if expected.num.coefficient(d) != wider.num.coefficient(d):
                    return False, f"stabilization break at T^{k}, L-degree {d}"
        return True, None

    return _timed("grassmannian", {"n_max": n_max, "order": order}, body)


# -- axiom suite ----------------------------------------------------------------


AxiomSample = namedtuple("AxiomSample", "a b m n k", defaults=(2,))
AxiomSample.__doc__ = """One randomized test point: two series a and b, two exponents m and n
from their coefficient ring, and a substitution index k."""

AxiomCheck = namedtuple("AxiomCheck", "axiom description passed witness", defaults=(None,))
AxiomCheck.__doc__ = """One axiom's number and text, whether it held, and the first witness
(a string) when it did not."""


class AxiomReport(namedtuple("AxiomReport", "provider order checks")):
    """The seven AxiomChecks of one provider (by name) at one order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


_AXIOMS = (
    (1, "A^0 = 1"),
    (2, "A^1 = A"),
    (3, "(A*B)^m = A^m * B^m"),
    (4, "A^(m+n) = A^m * A^n"),
    (5, "A^(m*n) = (A^n)^m"),
    (6, "(1+T)^m = 1 + m*T + O(T^2)"),
    (7, "A(T^k)^m = (A^m)(T^k)"),
)


def axiom_suite(provider: LambdaProvider, samples: Sequence[AxiomSample], order: int) -> AxiomReport:
    """Check the seven power-structure axioms on the given samples.

    Every axiom is evaluated on every sample; the first witness per axiom is
    kept.  Series in the samples are truncated to the requested order.
    """
    ring = provider.ring
    one_series = TruncatedSeries.one(ring, order)

    def run(axiom: int, description: str) -> AxiomCheck:
        for idx, s in enumerate(samples):
            a = s.a.truncate(min(order, s.a.order))
            b = s.b.truncate(min(order, s.b.order))
            if axiom == 1:
                lhs, rhs = power(a, ring.zero, provider), one_series
            elif axiom == 2:
                lhs, rhs = power(a, ring.one, provider), a
            elif axiom == 3:
                lhs = power(a * b, s.m, provider)
                rhs = power(a, s.m, provider) * power(b, s.m, provider)
            elif axiom == 4:
                lhs = power(a, s.m + s.n, provider)
                rhs = power(a, s.m, provider) * power(a, s.n, provider)
            elif axiom == 5:
                lhs = power(a, s.m * s.n, provider)
                rhs = power(power(a, s.n, provider), s.m, provider)
            elif axiom == 6:
                lhs = binomial_series(s.m, order, provider).truncate(min(1, order))
                rhs = TruncatedSeries(ring, tuple([ring.one, s.m][: order + 1]))
            else:
                lhs = power(a.substitute_tk(s.k), s.m, provider)
                rhs = power(a, s.m, provider).substitute_tk(s.k)
            if not lhs == rhs:
                witness = f"sample {idx}: lhs = {lhs}; rhs = {rhs}"
                return AxiomCheck(axiom, description, False, witness)
        return AxiomCheck(axiom, description, True)

    return AxiomReport(provider.name, order, tuple(run(i, d) for i, d in _AXIOMS))


# -- axiom verification ----------------------------------------------------------

_MOTIVIC_POOL = (
    MotivicClass.zero(),
    MotivicClass.one(),
    -MotivicClass.one(),
    MotivicClass.l_power(1),
    MotivicClass.l_power(2),
    MotivicClass(IntLaurent({1: 1, 0: 1})),
    MotivicClass(IntLaurent.one(), DenomForm(0, (1,))),
    MotivicClass(IntLaurent.term(1), DenomForm(0, (2,))),
)


def _hd_pool() -> tuple[MultiPoly, ...]:
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    one = MultiPoly.one(2)
    return (
        MultiPoly.zero(2),
        one,
        -one,
        one * 2,
        u,
        v,
        u * v,
        one + u * v,
        u + v,
    )


def _sample_axioms(ring_name: str, rng: random.Random, count: int, order: int, perturbed: bool) -> list[AxiomSample]:
    pool = _MOTIVIC_POOL if ring_name == "motivic" else _hd_pool()
    exponents = [x for x in pool if x.as_int() is None] if perturbed else pool
    ring = motivic_provider().ring if ring_name == "motivic" else hd_provider().ring
    samples = []
    for _ in range(count):
        coeffs_a = [ring.one] + [rng.choice(pool) for _ in range(order)]
        coeffs_b = [ring.one] + [rng.choice(pool) for _ in range(order)]
        samples.append(
            AxiomSample(
                a=TruncatedSeries(ring, tuple(coeffs_a)),
                b=TruncatedSeries(ring, tuple(coeffs_b)),
                m=rng.choice(exponents),
                n=rng.choice(pool),
                k=rng.choice((2, 3)),
            )
        )
    return samples


def _tampered(provider: LambdaProvider) -> LambdaProvider:
    """A deliberately broken provider: psi^r(x) + 2 for even r.

    That makes lambda'_x(T) = lambda_x(T) / (1 - T^2), which adds 1 at T^2
    and keeps every coefficient integral.
    """
    two = provider.ring.one + provider.ring.one

    def psi(element, r):
        value = provider.psi(element, r)
        return value + two if r % 2 == 0 else value

    return LambdaProvider(f"{provider.name}-tampered", provider.ring, psi)


def verify_axioms(
    ring_name: str, order: int, samples: int, seed: int, *, perturbed: bool = False
) -> VerificationReport:
    """Power-structure axioms 1-7 on seeded random samples.

    ``perturbed`` swaps in a provider whose Adams operations are wrong in
    even degrees, and draws each exponent m from the pool's non-integer
    classes, which reach them; the suite must then fail (negative control).
    """
    if ring_name not in ("motivic", "hd"):
        raise DomainError(f"unknown ring {ring_name!r}; pick motivic or hd")
    if order < 2:
        raise DomainError("axiom checks need order >= 2")
    if samples < 1:
        raise DomainError("axiom checks need samples >= 1; zero samples check nothing")
    if order > 5 or samples > 50:
        raise ResourceLimitError("axiom verification is capped at order 5, 50 samples")

    def body():
        provider = motivic_provider() if ring_name == "motivic" else hd_provider()
        if perturbed:
            provider = _tampered(provider)
        rng = random.Random(seed)
        sample_list = _sample_axioms(ring_name, rng, samples, order, perturbed)
        report = axiom_suite(provider, sample_list, order)
        if report.passed:
            return True, None
        first = report.failures()[0]
        return False, f"axiom {first.axiom} ({first.description}): {first.witness}"

    return _timed(
        "axioms",
        {"ring": ring_name, "order": order, "samples": samples, "seed": seed, "perturbed": perturbed},
        body,
    )


# -- the two non-effectiveness reproductions ------------------------------------


class CounterexampleReport(
    namedtuple("CounterexampleReport", "name passed coefficient effectiveness notes", defaults=((),))
):
    """One reproduction: whether every check held, the T^2 coefficient, its
    EffectivenessResult, and notes (failed checks, then the series)."""

    __slots__ = ()

    def __str__(self) -> str:
        head = f"{self.name}: {'ok' if self.passed else 'FAILED'}"
        body = [f"  T^2 coefficient: {self.coefficient}", f"  effectiveness: {self.effectiveness}"]
        body.extend(f"  {n}" for n in self.notes)
        return "\n".join([head] + body)


def curve_opposite_counterexample() -> CounterexampleReport:
    """Opposite power structure on the class of a genus-1 curve.

    For e = 1 - u - v + uv (the E-polynomial of a smooth projective genus-1
    curve), the T^2 coefficient of (1 + T)^e under the opposite power
    structure equals e^2 - sym^2(e), and its top-degree part -u^2v - uv^2
    refutes effectiveness.  So the opposite structure, unlike the Kapranov
    one, does not preserve effectivity.
    """
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    e = MultiPoly.one(2) - u - v + u * v
    opp = opposite_series(hd_zeta(e, 2))
    c2 = opp.coefficient(2)
    expected = -(u ** 2 * v) - u * v ** 2 + u ** 2 + v ** 2 + 2 * u * v - u - v
    binom = binomial_series(e, 2, hd_opposite_provider())
    eff = check_polynomial_effectiveness(c2)
    expected_witness = -(u ** 2 * v) - u * v ** 2
    checks = (
        (opp.coefficient(1) == e, f"T coefficient {opp.coefficient(1)} != {e}"),
        (c2 == expected, f"T^2 coefficient differs from {expected}"),
        (binom.coefficient(2) == c2, "(1+T)^e under the opposite provider disagrees with the direct series"),
        (eff.refuted, "expected a refutation"),
        (eff.witness == expected_witness, f"expected witness {expected_witness}, got {eff.witness}"),
    )
    notes = tuple(note for holds, note in checks if not holds) + (f"series: {opp}",)
    return CounterexampleReport("curve-opposite", all(holds for holds, _ in checks), c2, eff, notes)


def stack_power_counterexample(order: int = 2) -> CounterexampleReport:
    """The power structure on stack classes does not preserve effectivity.

    With m = [BGL(1)] = 1/(L-1), the series (1 + T)^m is computed two ways:
    through the power structure and as zeta_m(T)/zeta_m(T^2) (valid since
    (1+T) = (1-T^2)/(1-T) and (1-T)^{-m} = zeta_m).  Its T^2 coefficient is
    (-L^3 + L^2 + L)/[GL(2)], whose realized numerator has top part -(uv)^2,
    so no stacky analogue of "effective" survives this power structure.
    """
    if order < 2:
        raise DomainError("the refutation lives at T^2; need order >= 2")
    m = bgl_class(1)
    provider = motivic_provider()
    via_power = binomial_series(m, order, provider)
    zm = zeta_series(m, order)
    via_ratio = zm * zm.substitute_tk(2).inverse()
    target = MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1}), DenomForm(1, (1, 2)))
    div = via_power.first_divergence(via_ratio)
    c2 = via_power.coefficient(2)
    eff = check_class_effectiveness(c2)
    expected_witness = -MultiPoly.monomial((2, 2))
    checks = (
        (div is None, f"power and ratio routes diverge at T^{div}"),
        (via_power.coefficient(1) == m, "T coefficient is not [BGL(1)]"),
        (c2 == target, f"T^2 coefficient {c2} != {target}"),
        (eff.refuted, "expected a refutation"),
        (eff.witness == expected_witness, f"expected witness {expected_witness}, got {eff.witness}"),
    )
    notes = tuple(note for holds, note in checks if not holds) + (f"series: {via_power}",)
    return CounterexampleReport("stack-power", all(holds for holds, _ in checks), c2, eff, notes)
