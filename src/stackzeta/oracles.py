"""Independent routes to the engine's values, for ``verify`` and the tests.

The engine (``zeta``, ``power``) is Newton's identity on Adams operations.
Each route here reaches its values another way: the source paper's partition
formula (``zeta_from_sigma``) over distinct-exponent sums, their Taylor
expansions against brute-force enumeration, geometric products for
polynomial classes, the functional equation and the infinite product.

The partition formula.  Writing a = b * q^m / (1 - q^n), the coefficient of
T^k in zeta_a is

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

Distinct-exponent sums.  For commuting quantities x_1..x_k, the sum of
x_1^{i_1}...x_k^{i_k} over all tuples of pairwise-distinct nonnegative
exponents has the closed form

    sum over permutations s of {1..k} of
        prod_t x_{s(t)}^{k-t}  /  prod_{t=1..k} (1 - x_{s(1)}...x_{s(t)})

(one summand per ordering of the exponents; the numerator accounts for the
strict gaps, the telescoping denominators for the free part).  The block
variant constrains the exponents within blocks of repeated arguments to be
strictly increasing (each unordered choice counted once); it equals the full
sum divided by the product of the block factorials.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial
from typing import NamedTuple, Sequence

from ._frozen import Frozen
from .errors import DomainError, ResourceLimitError
from .laurent import IntLaurent
from .motivic import MotivicClass
from .multipoly import MultiPoly
from .series import TruncatedSeries
from .zeta import MOTIVIC, zeta_series

#: Largest number k of arguments the closed form accepts: its prefix
#: recurrence fills 2^k subset entries in 2^k * k products.
PERMUTATION_CAP = 8

#: Hard caps for the brute-force enumeration oracles.
ORACLE_MAX_VARS = 4
ORACLE_MAX_DEGREE = 12


# -- integer partitions ----------------------------------------------------------


class Partition(Frozen):
    """A partition of k as multiplicities (k_1, ..., k_s): k_j parts equal j.

    The tuple is trimmed, so k_s > 0 (the empty tuple is the partition of 0),
    and the weight is sum(j * k_j).  Partitions are hashable, equal when
    their multiplicities are.
    """

    __slots__ = _fields = ("multiplicities",)

    def __init__(self, multiplicities: tuple[int, ...]):
        m = tuple(multiplicities)
        if any(type(x) is not int for x in m):
            raise DomainError("multiplicities must be ints")
        if any(x < 0 for x in m):
            raise DomainError("multiplicities must be nonnegative")
        if m and m[-1] == 0:
            raise DomainError("trailing zero multiplicity; trim the tuple")
        object.__setattr__(self, "multiplicities", m)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash((self.multiplicities,))

    def nonzero_blocks(self) -> tuple[tuple[int, int], ...]:
        """Pairs (j, k_j) for the part sizes that actually occur, ascending j."""
        return tuple((j, kj) for j, kj in enumerate(self.multiplicities, start=1) if kj)

    def __str__(self) -> str:
        parts = []
        for j, kj in reversed(self.nonzero_blocks()):
            parts.extend([str(j)] * kj)
        return "(" + " ".join(parts) + ")" if parts else "()"


def _part_lists(k: int, max_part: int):
    # nonincreasing part tuples, largest first
    if k == 0:
        yield ()
        return
    for p in range(min(k, max_part), 0, -1):
        for rest in _part_lists(k - p, p):
            yield (p,) + rest


def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, deterministic order (largest part descending)."""
    if k < 0:
        raise DomainError("partitions are defined for k >= 0")
    out = []
    for parts in _part_lists(k, k):
        s = parts[0] if parts else 0
        mult = [0] * s
        for p in parts:
            mult[p - 1] += 1
        out.append(Partition(tuple(mult)))
    return tuple(out)


# -- distinct-exponent sums in closed form -----------------------------------------


def distinct_exponent_sum(args: Sequence[MotivicClass]) -> MotivicClass:
    """Closed form of the pairwise-distinct exponent sum at the given arguments.

    Exact over motivic classes; every 1 - (partial product) must be a unit
    of the ring, which holds whenever each argument is a nontrivial power
    of L or of q.  The k! summands are grouped by prefix: for a set S of
    argument indices (a bitmask), f[S] sums the first |S| numerator and
    denominator factors over all orderings of S, so

        f[S] = (1 - prod_{i in S} x_i)^{-1} * sum_{i in S} f[S - i] * x_i^{k-|S|}

    and f[all] is the sum, in 2^k * k products instead of k! * 2k.
    """
    k = len(args)
    if k == 0:
        raise DomainError("the distinct-exponent sum needs at least one argument")
    if k > PERMUTATION_CAP:
        raise ResourceLimitError(f"closed form with k={k} exceeds the permutation cap {PERMUTATION_CAP}")
    one = MotivicClass.one()
    ptab = []
    for a in args:
        row = [one]
        for _ in range(1, k):
            row.append(row[-1] * a)
        ptab.append(row)
    prod = [one] * (1 << k)
    f = [one] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        prod[mask] = prod[mask & (mask - 1)] * args[low]
        exp = k - bin(mask).count("1")
        acc = MotivicClass.zero()
        for i in range(k):
            if mask >> i & 1:
                acc = acc + f[mask ^ (1 << i)] * ptab[i][exp]
        f[mask] = acc * (one - prod[mask]).inverse()
    return f[-1]


def block_distinct_sum(mults: Sequence[int], args: Sequence[MotivicClass]) -> MotivicClass:
    """Block-increasing variant: argument j repeated mults[j] times, exponents
    strictly increasing inside each block and distinct across blocks.

    Equals the full distinct sum at the expanded argument list divided by
    prod(mults[j]!); that division is exact by symmetry, and a failed
    integer division is reported as an internal inconsistency.
    """
    if len(mults) != len(args):
        raise DomainError("one multiplicity per argument")
    if any(m < 1 for m in mults):
        raise DomainError("multiplicities must be positive")
    expanded: list[MotivicClass] = []
    for m, a in zip(mults, args):
        expanded.extend([a] * m)
    full = distinct_exponent_sum(expanded)
    denom = 1
    for m in mults:
        denom *= factorial(m)
    return full.divide_exact_int(denom)


# -- truncated Taylor expansions and enumeration oracles -----------------------


def _check_oracle_caps(nvars: int, degree_cap: int):
    if nvars < 1:
        raise DomainError("need at least one variable")
    if degree_cap < 0:
        raise DomainError("degree cap must be nonnegative")
    if nvars > ORACLE_MAX_VARS or degree_cap > ORACLE_MAX_DEGREE:
        raise ResourceLimitError(
            f"expansion with k={nvars}, degree cap {degree_cap} exceeds caps "
            f"({ORACLE_MAX_VARS}, {ORACLE_MAX_DEGREE})"
        )


def distinct_exponent_sum_taylor(
    k: int, degree_cap: int, *, var_of: Sequence[int] | None = None, nvars: int | None = None
) -> MultiPoly:
    """Taylor expansion of the closed form, total degree <= degree_cap.

    ``var_of`` assigns a polynomial variable to each of the k argument
    positions (default: position i gets its own variable q_{i+1}); repeated
    variables give the expansion at repeated arguments.  Expanded per
    permutation summand, geometric factors truncated as they are multiplied
    in; this never consults the enumeration oracle, so the two sides of the
    closed-form identity stay independent.
    """
    _check_oracle_caps(k, degree_cap)
    if var_of is None:
        var_of = tuple(range(k))
        nvars = k
    else:
        var_of = tuple(var_of)
        if len(var_of) != k:
            raise DomainError("var_of must assign a variable to each argument position")
        if nvars is None:
            nvars = max(var_of) + 1
    total = MultiPoly.zero(nvars)
    for perm in permutations(range(k)):
        exps = [0] * nvars
        for t in range(k):
            exps[var_of[perm[t]]] += k - 1 - t
        if sum(exps) > degree_cap:
            continue
        summand = MultiPoly.monomial(exps)
        for t in range(k):
            step = [0] * nvars
            for u in range(t + 1):
                step[var_of[perm[u]]] += 1
            mono = MultiPoly.monomial(step)
            geo = MultiPoly.one(nvars)
            power = MultiPoly.one(nvars)
            for _ in range(degree_cap // (t + 1)):
                power = power * mono
                geo = geo + power
            summand = MultiPoly(nvars, [(e, c) for e, c in (summand * geo).items() if sum(e) <= degree_cap])
        total = total + summand
    return total


def distinct_exponent_oracle(k: int, degree_cap: int) -> MultiPoly:
    """Brute-force enumeration of distinct-exponent monomials, degree <= cap."""
    _check_oracle_caps(k, degree_cap)
    tuples = product(range(degree_cap + 1), repeat=k)
    return MultiPoly(k, {tup: 1 for tup in tuples if sum(tup) <= degree_cap and len(set(tup)) == k})


def block_distinct_oracle(mults: Sequence[int], degree_cap: int) -> MultiPoly:
    """Brute-force block variant: one variable per block, exponent sums recorded.

    Enumerates strictly-increasing exponent tuples per block, globally
    distinct, total sum <= degree_cap; block j contributes its exponent sum
    to variable j.
    """
    if any(m < 1 for m in mults):
        raise DomainError("multiplicities must be positive")
    _check_oracle_caps(sum(mults), degree_cap)
    s = len(mults)
    terms: dict[tuple[int, ...], int] = {}

    def rec(j: int, used: frozenset[int], budget: int, exps: tuple[int, ...]):
        if j == s:
            terms[exps] = terms.get(exps, 0) + 1
            return
        for combo in combinations(range(degree_cap + 1), mults[j]):
            total = sum(combo)
            if total > budget:
                continue
            if used & set(combo):
                continue
            rec(j + 1, used | set(combo), budget - total, exps + (total,))

    rec(0, frozenset(), degree_cap, ())
    return MultiPoly(s, terms)


# -- zeta by the paper's formula and by products -----------------------------------


def _q_power(j: int) -> MotivicClass:
    return MotivicClass.l_power(-j)


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
    must be sym^{j}(b).  The partition 1^order feeds the closed form order
    arguments, so an order above PERMUTATION_CAP is refused before any work.
    """
    if n == 0:
        raise DomainError("the twist exponent n must be nonzero")
    if order < 0:
        raise DomainError("series order must be nonnegative")
    sigma_b = tuple(sigma_b)
    if len(sigma_b) < order:
        raise DomainError(f"need sym powers up to {order}, got {len(sigma_b)}")
    if order > PERMUTATION_CAP:
        raise ResourceLimitError(f"closed form with k={order} exceeds the permutation cap {PERMUTATION_CAP}")
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
