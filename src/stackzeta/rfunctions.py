"""Generating functions for monomials with pairwise-distinct exponents.

For commuting quantities x_1..x_k, the sum of x_1^{i_1}...x_k^{i_k} over all
tuples of pairwise-distinct nonnegative exponents has the closed form

    sum over permutations s of {1..k} of
        prod_t x_{s(t)}^{k-t}  /  prod_{t=1..k} (1 - x_{s(1)}...x_{s(t)})

(one summand per ordering of the exponents; the numerator accounts for the
strict gaps, the telescoping denominators for the free part).  This module
evaluates that closed form exactly over motivic classes, expands it as a
truncated multivariate Taylor series, and provides brute-force enumeration
oracles that the verification suite compares against.

The block variant constrains the exponents within blocks of repeated
arguments to be strictly increasing (each unordered choice counted once);
it equals the full sum divided by the product of the block factorials.
"""

from __future__ import annotations

from itertools import permutations, product, combinations
from math import factorial
from typing import Sequence

from .errors import DomainError, ResourceLimitError
from .motivic import MotivicClass
from .multipoly import MultiPoly

#: Largest k the closed form accepts; it is a sum of k! permutation summands.
PERMUTATION_CAP = 8

#: Hard caps for the brute-force enumeration oracles.
ORACLE_MAX_VARS = 4
ORACLE_MAX_DEGREE = 12


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
    args = tuple(a.normalize() for a in args)
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
            summand = summand.mul_truncated(geo, degree_cap)
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
