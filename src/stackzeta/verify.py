"""Named verification scenarios with timed pass/fail reports.

Each scenario checks one identity two independent ways and reports the first
witness on divergence.  Sampling is seeded and deterministic.  The perturbed
variants are negative controls: they deliberately break one side and must
come back failing, which guards the scenarios against vacuous passes.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

from .errors import DomainError, ResourceLimitError
from .laurent import IntLaurent
from .motivic import DenomForm, MotivicClass, gl_class, grassmannian_class
from .multipoly import MultiPoly
from .power import AxiomSample, LambdaProvider, axiom_suite
from .series import TruncatedSeries
from .hodge import hd_provider
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


def _sample_axioms(ring_name: str, rng: random.Random, count: int, order: int) -> list[AxiomSample]:
    pool = _MOTIVIC_POOL if ring_name == "motivic" else _hd_pool()
    ring = motivic_provider().ring if ring_name == "motivic" else hd_provider().ring
    samples = []
    for _ in range(count):
        coeffs_a = [ring.one] + [rng.choice(pool) for _ in range(order)]
        coeffs_b = [ring.one] + [rng.choice(pool) for _ in range(order)]
        samples.append(
            AxiomSample(
                a=TruncatedSeries(ring, tuple(coeffs_a)),
                b=TruncatedSeries(ring, tuple(coeffs_b)),
                m=rng.choice(pool),
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
    even degrees; the suite must then fail (negative control).
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
        sample_list = _sample_axioms(ring_name, rng, samples, order)
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
