"""Distinct-exponent generating sums: closed forms against enumeration."""

from itertools import permutations
from math import factorial

import pytest

from stackzeta import (
    DomainError,
    MotivicClass,
    ResourceLimitError,
    block_distinct_oracle,
    block_distinct_sum,
    distinct_exponent_oracle,
    distinct_exponent_sum,
    distinct_exponent_sum_taylor,
)
from stackzeta.oracles import PERMUTATION_CAP


def q_power(j):
    return MotivicClass.l_power(-j)


def test_single_argument_is_a_geometric_series():
    # sum over e >= 0 of q^e = 1/(1-q)
    got = distinct_exponent_sum((q_power(1),))
    assert got == (MotivicClass.one() - q_power(1)).inverse()
    assert got.q_expansion(6) == {k: 1 for k in range(7)}


def test_closed_form_matches_enumeration():
    for k in (1, 2, 3):
        assert distinct_exponent_sum_taylor(k, 8) == distinct_exponent_oracle(k, 8)


def test_blocks_match_enumeration():
    # the expanded sum counts each block's orderings, hence the factorials
    for mults in ((2,), (1, 1), (2, 1)):
        k = sum(mults)
        var_of = [j for j, m in enumerate(mults) for _ in range(m)]
        taylor = distinct_exponent_sum_taylor(k, 8, var_of=var_of, nvars=len(mults))
        scale = 1
        for m in mults:
            scale *= factorial(m)
        assert taylor == block_distinct_oracle(mults, 8) * scale
    # without nvars, the variables are 0..max(var_of)
    inferred = distinct_exponent_sum_taylor(2, 4, var_of=(0, 0))
    assert inferred.nvars == 1
    assert inferred == block_distinct_oracle((2,), 4) * 2


def test_closed_form_q_expansion_matches_taylor():
    # weighted specialization q_i -> q^{n_i}; weights >= 1 keep the cap aligned
    for ns in ((1, 2), (2, 3), (1, 1)):
        k = len(ns)
        args = tuple(q_power(n) for n in ns)
        closed = distinct_exponent_sum(args)
        taylor = distinct_exponent_sum_taylor(k, 8)
        expected: dict[int, int] = {}
        for exps, c in taylor.items():
            w = sum(e * n for e, n in zip(exps, ns))
            if w <= 8:
                expected[w] = expected.get(w, 0) + c
        expected = {w: c for w, c in expected.items() if c}
        assert closed.q_expansion(8) == expected


def test_closed_form_is_symmetric_in_the_arguments():
    args = (q_power(1), q_power(2), q_power(3))
    base = distinct_exponent_sum(args)
    for perm in permutations(args):
        assert distinct_exponent_sum(perm) == base


def test_block_sum_division_is_exact():
    args = (q_power(1), q_power(2))
    full = distinct_exponent_sum((q_power(1), q_power(1), q_power(2)))
    assert block_distinct_sum((2, 1), args) * 2 == full


def test_block_validation():
    with pytest.raises(DomainError):
        block_distinct_sum((1, 1), (q_power(1),))
    with pytest.raises(DomainError):
        block_distinct_sum((0,), (q_power(1),))
    with pytest.raises(DomainError):
        block_distinct_oracle((0,), 4)


def test_caps():
    with pytest.raises(DomainError):
        distinct_exponent_sum(())
    # one over the fixed cap: rejected before any arithmetic
    assert PERMUTATION_CAP == 8
    with pytest.raises(ResourceLimitError):
        distinct_exponent_sum(tuple(q_power(j) for j in range(1, PERMUTATION_CAP + 2)))
    with pytest.raises(ResourceLimitError):
        distinct_exponent_sum_taylor(5, 4)
    with pytest.raises(ResourceLimitError):
        distinct_exponent_sum_taylor(2, 13)
    with pytest.raises(DomainError):
        distinct_exponent_sum_taylor(0, 4)
    with pytest.raises(DomainError):
        distinct_exponent_sum_taylor(2, -1)
    with pytest.raises(DomainError):
        distinct_exponent_sum_taylor(2, 4, var_of=(0,))

