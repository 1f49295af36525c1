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

The paper's own formula stays here as an independent oracle for the tests.
Writing a = b * q^m / (1 - q^n), the coefficient of T^k is

    q^{k m} * sum over partitions (k_1,...,k_s) of k of
        [block-distinct sum at (q^n, q^{2n}, ..., q^{sn}), block sizes k_j]
        * prod_j sym^j(b)^{k_j}

where blocks with k_j = 0 are dropped together with their argument.  This is
derived from the factorization zeta_a(T) = prod_{i>=0} zeta_b(q^{m+in} T):
collecting the T^k terms across factors groups the indices i by which
sym-power j they feed, and the sum over distinct index tuples per group is
exactly the block-distinct generating function evaluated at q^{jn}.

A negative twist 1/(1 - q^n) with n < 0 is rewritten through
1/(1 - q^n) = -q^{-n}/(1 - q^{-n}); the base-class negation is carried out
on the series side, since zeta_{-b} is the inverse series of zeta_b.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError
from .laurent import IntLaurent
from .motivic import MotivicClass
from .partitions import partitions_of
from .power import LambdaProvider, opposite_provider
from .rfunctions import block_distinct_sum
from .series import Ring, TruncatedSeries


def motivic_ring() -> Ring:
    return Ring("motivic", MotivicClass.zero(), MotivicClass.one())


MOTIVIC = motivic_ring()


def _q_power(j: int) -> MotivicClass:
    return MotivicClass.l_power(-j)


_KAPRANOV = LambdaProvider("kapranov-zeta", MOTIVIC, MotivicClass.adams)
_OPPOSITE = opposite_provider(_KAPRANOV)


def _as_class(a: MotivicClass | IntLaurent | int) -> MotivicClass:
    return (a if isinstance(a, MotivicClass) else MotivicClass(a)).normalize()


def zeta_of_polynomial(b: IntLaurent, order: int) -> TruncatedSeries:
    """zeta of a Laurent-polynomial class: prod over terms c*L^s of (1-L^s T)^{-c}."""
    if order < 0:
        raise DomainError("series order must be nonnegative")
    out = TruncatedSeries.one(MOTIVIC, order)
    for deg, coeff in sorted(b.items(), reverse=True):
        if coeff > 0:
            geo = TruncatedSeries.build(MOTIVIC, order, lambda k, d=deg: MotivicClass.l_power(d * k))
            factor = geo ** coeff
        else:
            lin = [MotivicClass.one()]
            if order >= 1:
                lin.append(-MotivicClass.l_power(deg))
                lin.extend([MotivicClass.zero()] * (order - 1))
            factor = TruncatedSeries(MOTIVIC, lin) ** (-coeff)
        out = out * factor
    return out


def zeta_from_sigma(sigma_b: Sequence[MotivicClass], m: int, n: int, order: int) -> TruncatedSeries:
    """zeta of b * q^m / (1 - q^n) given sym^1(b)..sym^order(b).

    Implements the partition formula from the module docstring; sigma_b[j-1]
    must be sym^{j}(b).
    """
    if n == 0:
        raise DomainError("the twist exponent n must be nonzero")
    if order < 0:
        raise DomainError("series order must be nonnegative")
    sigma_b = tuple(sigma_b)
    if len(sigma_b) < order:
        raise DomainError(f"need sym powers up to {order}, got {len(sigma_b)}")
    if n < 0:
        # 1/(1-q^n) = -q^{-n}/(1-q^{-n}); sym powers of -b come from the inverse series
        zb = TruncatedSeries(MOTIVIC, (MotivicClass.one(),) + sigma_b[:order])
        neg = zb.inverse().coefficients[1:]
        return zeta_from_sigma(neg, m - n, -n, order)
    coeffs = [MotivicClass.one()]
    for k in range(1, order + 1):
        acc = MotivicClass.zero()
        for part in partitions_of(k):
            blocks = part.nonzero_blocks()
            mults = tuple(kj for _, kj in blocks)
            args = tuple(_q_power(j * n) for j, _ in blocks)
            term = block_distinct_sum(mults, args)
            for j, kj in blocks:
                term = term * sigma_b[j - 1] ** kj
            acc = acc + term
        if m:
            acc = acc * _q_power(k * m)
        coeffs.append(acc)
    return TruncatedSeries(MOTIVIC, coeffs)


def zeta_series(a: MotivicClass | IntLaurent | int, order: int) -> TruncatedSeries:
    """zeta_a(T) to the given order, exactly, from the normalized class."""
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


# -- consistency checks used by the tests ----------------------------------------


class FuncEqReport(NamedTuple):
    """Outcome of the functional-equation check zeta_a(T) = zeta_a(q^n T) * zeta_b(q^m T)."""

    passed: bool
    first_divergence: int | None
    lhs: TruncatedSeries
    rhs: TruncatedSeries


def check_functional_equation(
    b: MotivicClass | IntLaurent | int,
    m: int,
    n: int,
    order: int,
    *,
    a: MotivicClass | None = None,
) -> FuncEqReport:
    """Check zeta_a(T) = zeta_a(q^n T) * zeta_b(q^m T) for a = b*q^m/(1-q^n).

    The equation characterizes zeta_a: a = b*q^m + q^n*a splits the defining
    product over i >= 0 into the i = 0 factor and the rest.  When ``a`` is
    passed explicitly it must equal the constructed class.
    """
    if n < 1:
        raise DomainError("the functional equation needs n >= 1")
    if not isinstance(b, MotivicClass):
        b = MotivicClass(b)
    constructed = b * _q_power(m) * (MotivicClass.one() - _q_power(n)).inverse()
    if a is not None and not a == constructed:
        raise DomainError("a must equal b * q^m / (1 - q^n)")
    za = zeta_series(constructed, order)
    zb = zeta_series(b, order)
    rhs = za.scale_t(_q_power(n)) * zb.scale_t(_q_power(m))
    idx = za.first_divergence(rhs)
    return FuncEqReport(idx is None, idx, za, rhs)


_PREFIX_CAP = 24
_PREFIX_ORDER_CAP = 12
_PREFIX_QDEG_CAP = 48


class PrefixReport(NamedTuple):
    """q-adic expansion of a finite prefix of prod_{i>=0} zeta_b(q^{m+in} T).

    tables[k] is the q-expansion (degree <= q_degree) of the T^k coefficient
    of the prefix product, as sorted (exponent, coefficient) pairs.  When
    m + prefix*n exceeds q_degree the next factor cannot disturb anything up
    to that degree (for base classes of nonnegative q-valuation, which holds
    for every class this package feeds it), so the prefix must already agree
    with the prefix one longer; ``stabilized`` records that comparison and
    is None when the threshold is not met.
    """

    prefix: int
    order: int
    q_degree: int
    tables: tuple[tuple[tuple[int, int], ...], ...]
    stabilized: bool | None


def infinite_product_prefix(
    b: MotivicClass | IntLaurent | int,
    m: int,
    n: int,
    prefix: int,
    order: int,
    q_degree: int = 10,
) -> PrefixReport:
    """Expand prod_{i=0}^{prefix-1} zeta_b(q^{m+in} T) q-adically.

    This is the independent oracle for the partition formula: the infinite
    product converges coefficientwise in the q-adic topology, and any prefix
    past the stabilization threshold pins the expansion of zeta_a for
    a = b*q^m/(1-q^n) up to the requested q-degree.
    """
    if n < 1:
        raise DomainError("the infinite-product oracle needs n >= 1")
    if prefix < 1:
        raise DomainError("need at least one factor")
    if prefix > _PREFIX_CAP or order > _PREFIX_ORDER_CAP or q_degree > _PREFIX_QDEG_CAP:
        raise ResourceLimitError("prefix expansion caps exceeded")
    if not isinstance(b, MotivicClass):
        b = MotivicClass(b)
    zb = zeta_series(b, order)

    def tables_for(count: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        prod = TruncatedSeries.one(MOTIVIC, order)
        for i in range(count):
            prod = prod * zb.scale_t(_q_power(m + i * n))
        return tuple(
            tuple(sorted(c.q_expansion(q_degree).items())) for c in prod.coefficients
        )

    tables = tables_for(prefix)
    stabilized: bool | None = None
    if m + prefix * n > q_degree:
        stabilized = tables == tables_for(prefix + 1)
    return PrefixReport(prefix, order, q_degree, tables, stabilized)
