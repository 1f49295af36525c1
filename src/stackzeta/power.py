"""Power structures induced by a pre-lambda structure.

In the rings here a pre-lambda structure is fixed by its Adams operations
psi^r: the series lambda_x(T) = 1 + x T + ... satisfies

    T d/dT log lambda_x(T) = sum_{r>=1} psi^r(x) T^r,

so its coefficients follow from Newton's identity

    k sigma_k = sum_{r=1..k} psi^r(x) sigma_{k-r}

with an exact integer division by k.  Any series A(T) with constant term 1
factors uniquely as

    A(T) = prod_{k>=1} lambda_{b_k}(T^k),

and the power structure raises A to a ring-element exponent m by

    A(T)^m := prod_{k>=1} lambda_{m * b_k}(T^k).

Both are computed on ghost components g_n, the coefficients of
T d/dT log A(T).  The factor lambda_b(T^k) contributes k psi^r(b) at T^{kr},
so g_n = sum_{k r = n} k psi^r(b_k) is a triangular system for the b_k, and
A^m has the ghosts sum_{k r = n} k psi^r(m * b_k).  Adams operations need not
be multiplicative (the opposite structure's are not), so psi is always
applied to the product m * b_k.

The ghost transforms are ``TruncatedSeries.ghosts`` and ``from_ghosts``; this
module keeps the solve for the b_k and the ghost assembly of A^m.  It is
generic over the coefficient ring: the Adams operations are methods of the
coefficient types (``MotivicClass.adams`` for the Kapranov zeta function,
``MultiPoly.adams`` for the Hodge-Deligne one).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from ._frozen import Frozen
from .errors import DomainError, ResourceLimitError
from .series import Ring, TruncatedSeries

#: Largest truncation order of any series computed here; checked before any work.
MAX_SERIES_ORDER = 40


def check_order(order: int) -> None:
    """Reject a negative order (DomainError) or one above MAX_SERIES_ORDER."""
    if order < 0:
        raise DomainError("series order must be nonnegative")
    if order > MAX_SERIES_ORDER:
        raise ResourceLimitError(
            f"series order {order} exceeds the order cap MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"
        )


class LambdaProvider(Frozen):
    """A pre-lambda structure given by its Adams operations psi(x, r).

    Providers compare (and hash) by identity.
    """

    __slots__ = _fields = ("name", "ring", "psi")

    def __init__(self, name: str, ring: Ring, psi: Callable[[Any, int], Any]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "psi", psi)

    def series(self, element: Any, order: int) -> TruncatedSeries:
        """lambda_element(T) to T^order, by Newton's identity."""
        check_order(order)
        if not self.ring.is_member(element):
            raise DomainError(f"element does not lie in the {self.ring.name} ring")
        ghosts = [self.ring.zero] + [self.psi(element, r) for r in range(1, order + 1)]
        return TruncatedSeries.from_ghosts(self.ring, ghosts)


def lambda_factorize(series: TruncatedSeries, provider: LambdaProvider) -> tuple:
    """The unique elements (b_1, ..., b_N) with series = prod lambda_{b_k}(T^k)."""
    check_order(series.order)
    if series.ring != provider.ring:
        raise DomainError("series ring does not match the provider")
    g = series.ghosts()
    b = [None]
    for n in range(1, len(g)):
        acc = g[n]
        for k in range(1, n // 2 + 1):
            if n % k == 0:
                acc = acc - k * provider.psi(b[k], n // k)
        b.append(acc.divide_exact_int(n))
    return tuple(b[1:])


def power(series: TruncatedSeries, exponent: Any, provider: LambdaProvider) -> TruncatedSeries:
    """series^exponent under the provider's power structure.

    The exponent must lie in the provider's coefficient ring; cross-ring
    exponentiation is rejected.
    """
    check_order(series.order)
    ring = provider.ring
    if not ring.is_member(exponent):
        raise DomainError(f"exponent does not lie in the {ring.name} ring")
    order = series.order
    ghosts = [ring.zero] * (order + 1)
    for k, bk in enumerate(lambda_factorize(series, provider), start=1):
        mb = exponent * bk
        for r in range(1, order // k + 1):
            ghosts[k * r] = ghosts[k * r] + k * provider.psi(mb, r)
    return TruncatedSeries.from_ghosts(ring, ghosts)


def binomial_series(exponent: Any, order: int, provider: LambdaProvider) -> TruncatedSeries:
    """(1 + T)^exponent under the provider's power structure."""
    ring = provider.ring
    coeffs = [ring.one] * min(2, order + 1) + [ring.zero] * max(order - 1, 0)
    one_plus_t = TruncatedSeries(ring, tuple(coeffs))
    return power(one_plus_t, exponent, provider)


def opposite_series(series: TruncatedSeries) -> TruncatedSeries:
    """(A(-T))^{-1}: the opposite of a pre-lambda series, itself pre-lambda."""
    ring = series.ring
    if not series.coefficient(0) == ring.one:
        raise DomainError("opposite needs constant term 1")
    alt = TruncatedSeries(
        ring, tuple(c if k % 2 == 0 else -c for k, c in enumerate(series.coefficients))
    )
    return alt.inverse()


def opposite_provider(provider: LambdaProvider) -> LambdaProvider:
    """The opposite pre-lambda structure lambda'_x(T) = lambda_x(-T)^{-1}:
    its Adams operations are (-1)^{r+1} psi^r."""

    def psi(element, r):
        value = provider.psi(element, r)
        return value if r % 2 else -value

    return LambdaProvider(f"{provider.name}-opposite", provider.ring, psi)


# -- axiom suite ----------------------------------------------------------------


class AxiomSample(NamedTuple):
    """One randomized test point: two series, two exponents, a substitution index."""

    a: TruncatedSeries
    b: TruncatedSeries
    m: Any
    n: Any
    k: int = 2


class AxiomCheck(NamedTuple):
    axiom: int
    description: str
    passed: bool
    witness: str | None = None


class AxiomReport(NamedTuple):
    provider: str
    order: int
    checks: tuple[AxiomCheck, ...]

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
