"""The Kapranov zeta function as a pre-lambda structure on motivic classes.

zeta_a(T) = 1 + a T + sym^2(a) T^2 + ... is the unique pre-lambda structure
on the ring that extends the Kapranov zeta function of varieties: it is
additive-to-multiplicative (zeta_{a+b} = zeta_a zeta_b), and on a Laurent
polynomial class b = sum c_s L^s it is the product of geometric factors
prod_s (1 - L^s T)^{-c_s}.

Every class a is a q-adically convergent signed sum of powers of L (with
q = L^{-1}), and zeta_{L^s} = 1/(1 - L^s T), so

    log zeta_a(T) = sum_{r>=1} psi^r(a) T^r / r,   psi^r(a)(L) = a(L^r).

The engine is therefore Newton's identity on these Adams operations (see
``power``): k sym^k(a) = sum_{r=1..k} psi^r(a) sym^{k-r}(a).  The division
by k is exact by Gauss's lemma, since every denominator factor is primitive.

The source paper's partition formula, and the other independent routes to
these values, live in ``oracles``; no engine module imports it.
"""

from __future__ import annotations

from .errors import DomainError
from .laurent import IntLaurent
from .motivic import MotivicClass
from .power import LambdaProvider, opposite_provider
from .series import Ring, TruncatedSeries


def motivic_ring() -> Ring:
    return Ring("motivic", MotivicClass.zero(), MotivicClass.one())


MOTIVIC = motivic_ring()


_KAPRANOV = LambdaProvider("kapranov-zeta", MOTIVIC, MotivicClass.adams)
_OPPOSITE = opposite_provider(_KAPRANOV)


def _as_class(a: MotivicClass | IntLaurent | int) -> MotivicClass:
    return a if isinstance(a, MotivicClass) else MotivicClass(a)


def zeta_series(a: MotivicClass | IntLaurent | int, order: int) -> TruncatedSeries:
    """zeta_a(T) to the given order, exactly."""
    return _KAPRANOV.series(_as_class(a), order)


def sym_power(a: MotivicClass | IntLaurent | int, k: int) -> MotivicClass:
    """sym^k(a): the coefficient of T^k in zeta_a."""
    if k < 0:
        raise DomainError("sym powers are indexed by k >= 0")
    return zeta_series(a, k).coefficient(k)


def opposite_zeta(a: MotivicClass | IntLaurent | int, order: int) -> TruncatedSeries:
    """The opposite pre-lambda structure: (zeta_a(-T))^{-1}."""
    return _OPPOSITE.series(_as_class(a), order)


def motivic_provider() -> LambdaProvider:
    """The Kapranov zeta function as a lambda provider over motivic classes."""
    return _KAPRANOV

