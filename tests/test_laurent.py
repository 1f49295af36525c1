"""Sparse integer Laurent polynomials: ring laws, exact division, rendering."""

import time
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stackzeta import DomainError, IntLaurent, InternalConsistencyError, L, MultiPoly
from stackzeta import laurent
from stackzeta.laurent import cyclotomic, divisors

from _reference import denominator_product, dense, long_divide, phi
from _strategies import EVAL_POINTS, laurents


def l_minus_one(n):
    return IntLaurent({n: 1, 0: -1})


@given(laurents(), laurents(), laurents())
def test_ring_laws(a, b, c):
    zero, one = IntLaurent.zero(), IntLaurent.one()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero
    assert -(-a) == a


@given(laurents(), laurents())
def test_evaluation_respects_arithmetic(a, b):
    for t in EVAL_POINTS:
        assert (a + b).eval_rational(t) == a.eval_rational(t) + b.eval_rational(t)
        assert (a * b).eval_rational(t) == a.eval_rational(t) * b.eval_rational(t)


@given(laurents(), laurents(), st.integers(1, 4), st.integers(1, 4))
def test_adams_is_multiplicative_and_composes(p, q, r, s):
    assert (p * q).adams(r) == p.adams(r) * q.adams(r)
    assert p.adams(r).adams(s) == p.adams(r * s)


def test_adams_needs_a_positive_index():
    for r in (0, -1):
        with pytest.raises(DomainError):
            L.adams(r)


@given(laurents(), st.integers(-5, 5))
def test_int_scaling_matches_the_constant_product(p, k):
    assert p * k == k * p == p * IntLaurent.from_int(k)


@given(laurents(), st.integers(min_value=-3, max_value=3))
def test_shift_multiplies_by_l_power(a, k):
    shifted = a.shift(k)
    for t in EVAL_POINTS:
        assert shifted.eval_rational(t) == a.eval_rational(t) * t ** k


@given(laurents(), st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(a, n):
    expected = IntLaurent.one()
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@pytest.mark.parametrize("terms", [{0.5: 1}, {1.0: 1}, {True: 1}, [("1", 1)]])
def test_degrees_must_be_ints(terms):
    with pytest.raises(DomainError, match="degrees must be ints"):
        IntLaurent(terms)


@pytest.mark.parametrize("terms", [{1: 0.5}, {0: 1.0}, {2: True}, [(0, 1), (1, Fraction(1))], MappingProxyType({0: "1"})])
def test_coefficients_must_be_ints(terms):
    # a float coefficient once built the class 0.5*L, whose zeta series then
    # reported the bad input as an inexact division inside the library
    with pytest.raises(DomainError, match="IntLaurent coefficients must be ints"):
        IntLaurent(terms)


def test_pow_rejects_negative_and_non_int():
    with pytest.raises(DomainError):
        L ** -1
    with pytest.raises(DomainError):
        L ** 1.5


@given(laurents(), st.integers(min_value=1, max_value=40))
def test_div_cyclotomic_inverts_cyclotomic_multiples(p, d):
    assert (p * cyclotomic(d)).div_cyclotomic(d) == p
    q = p.div_cyclotomic(d)
    if q is not None:
        assert q * cyclotomic(d) == p


@given(
    st.integers(min_value=1, max_value=60),
    laurents(min_deg=-60, max_deg=600, max_terms=6),
    st.sampled_from(("multiple", "shifted multiple", "as drawn")),
)
@example(2, L ** 10000 + L ** 9999 + L + 1, "as drawn")
@example(3, L ** 5000 - IntLaurent.term(-7), "multiple")
@example(12, L ** 3001 + IntLaurent.term(-40, 2), "shifted multiple")
@example(2, 1 + IntLaurent.term(-3), "as drawn")
@example(2, 1 - IntLaurent.term(-3), "as drawn")
@example(2, IntLaurent.term(-5, 3) + IntLaurent.term(-2, 3) - IntLaurent.term(-1) + L ** 7, "as drawn")
@example(2, IntLaurent.term(-7) + L ** 4, "shifted multiple")
@example(1, IntLaurent.term(-3) - IntLaurent.term(-1), "as drawn")
@example(1, IntLaurent.term(-3, 2) - L ** 5, "as drawn")
@example(1, IntLaurent.term(-9) + L ** 2, "shifted multiple")
def test_div_cyclotomic_agrees_with_long_division(d, p, kind):
    """Wide sparse numerators with negative degrees: exact multiples of
    Phi_d, multiples moved by one term (rarely divisible), and the numerators
    as drawn, all against long division on coefficient lists.  The examples
    at d = 1 and 2, the tests by the value at 1 and -1, put odd degrees
    below 0, where the sign of (-1)^e rests on the parity of e."""
    phi_d = IntLaurent(dict(enumerate(phi(d))))
    if kind != "as drawn":
        p = p * phi_d
    if kind == "shifted multiple":
        p = p + L ** 7
    got = p.div_cyclotomic(d)
    if p.is_zero:
        assert got == p
        return
    lo, coeffs = dense(p.items())
    quot, rem = long_divide(coeffs, list(phi(d)))
    if any(rem):
        assert got is None
    else:
        assert got == IntLaurent({lo + i: c for i, c in enumerate(quot)})
    if kind == "multiple":
        assert got is not None


def test_cyclotomic_products_are_the_binomials():
    for n in range(1, 401):
        product = IntLaurent.one()
        for d in divisors(n):
            product = product * cyclotomic(d)
        assert product == l_minus_one(n), n


def test_binomial_quotients_match_the_reference_products():
    # GL(n)'s numerator, and Gr(k, n) as the long quotient of its two expanded products
    for n in range(41):
        factors = range(1, n + 1)
        assert laurent.binomial_quotient(factors, ()) == IntLaurent(enumerate(denominator_product(0, factors)))
    for n in range(31):
        for k in (0, 1, 2, n // 3, n // 2, n - 1, n):
            top, bottom = range(n - k + 1, n + 1), range(1, k + 1)
            quot, rem = long_divide(denominator_product(0, top), denominator_product(0, bottom))
            assert not any(rem)
            assert laurent.binomial_quotient(top, bottom) == IntLaurent(enumerate(quot)), (k, n)


def test_inexact_binomial_quotients_raise():
    with pytest.raises(InternalConsistencyError, match="binomial quotient was not exact"):
        laurent.binomial_quotient([3], [2])
    with pytest.raises(InternalConsistencyError):
        laurent.binomial_quotient((), [1])
    assert laurent.binomial_quotient([6, 2], [3, 1]) == (L ** 3 + 1) * (L + 1)


def test_sparse_quotients_do_not_walk_the_degree_span():
    # the quotient visits only the nonzero terms, not the 10^6 degrees of the span
    target = L ** 10 ** 6 + 1
    for d in (2, 3, 12):
        product = target * cyclotomic(d)
        start = time.perf_counter()
        got = product.div_cyclotomic(d)
        elapsed = time.perf_counter() - start
        assert got == target
        assert elapsed < 0.05, f"dividing by Phi_{d} took {elapsed:.3f}s, budget 0.05s"


def test_a_second_division_by_phi_d_factors_nothing(monkeypatch):
    # phi(d) and the lower terms of Phi_d are built once per d, not per call
    factored = []
    prime_factors = laurent.prime_factors

    def counting(n):
        factored.append(n)
        return prime_factors(n)

    monkeypatch.setattr(laurent, "prime_factors", counting)
    for d in (1, 2, 3, 12, 30, 97):
        p = (L ** 40 + 3) * cyclotomic(d)
        assert p.div_cyclotomic(d) == L ** 40 + 3
        factored.clear()
        assert p.div_cyclotomic(d) == L ** 40 + 3
        assert (p + 1).div_cyclotomic(d) is None
        assert factored == [], d


def test_the_quotient_walk_stops_below_the_dividend():
    # (L^2 + 1) / (L - 1) is not exact; the walk must not run on below degree 0
    with pytest.raises(InternalConsistencyError):
        laurent._monic_quotient({2: 1, 0: 1}, 1, [(0, -1)])


def test_cyclotomic_polynomials():
    assert [str(cyclotomic(d)) for d in (1, 2, 3, 4, 6, 12)] == [
        "L - 1", "L + 1", "L^2 + L + 1", "L^2 + 1", "L^2 - L + 1", "L^4 - L^2 + 1",
    ]
    for n in (1, 12, 30, 36, 105):
        product = IntLaurent.one()
        for d in divisors(n):
            product = product * cyclotomic(d)
        assert product == l_minus_one(n)
    # Phi_105 is the first with a coefficient other than 0, 1, -1
    assert cyclotomic(105).coefficient(7) == -2
    assert (L ** 2 + L).div_cyclotomic(2) == L
    assert (L ** 2 + 1).div_cyclotomic(2) is None
    with pytest.raises(DomainError):
        cyclotomic(0)


def test_each_phi_d_is_kept_once(monkeypatch):
    # one cache keeps every product of Phi_d, a lone Phi_d included
    for d in range(1, 65):
        assert cyclotomic(d) is laurent.cyclotomic_product(((d, 1),))
    # a lone Phi_d with d not squarefree is Phi_r stretched, for the product
    # r of the primes of d, so Phi_720720 costs one quotient at r = 30030
    built = []
    binomial_quotient = laurent.binomial_quotient

    def counting(tops, bottoms):
        built.append(max(tops + bottoms))
        return binomial_quotient(tops, bottoms)

    monkeypatch.setattr(laurent, "binomial_quotient", counting)
    laurent.cyclotomic_product.cache_clear()
    assert [cyclotomic(d).max_deg for d in (720720, 36, 12)] == [138240, 12, 4]
    assert built == [30030, 6]


def test_large_cyclotomic_polynomials_match_closed_forms():
    # forms that owe nothing to the Moebius quotient that builds Phi_d
    p = 65537
    assert cyclotomic(p) == IntLaurent({i: 1 for i in range(p)})
    for k in range(1, 21):
        assert cyclotomic(2 ** k) == L ** 2 ** (k - 1) + 1
    for p in (3, 5, 7, 101, 65537):
        # Phi_2p(L) = Phi_p(-L) for odd p
        assert cyclotomic(2 * p) == IntLaurent({d: c * (-1) ** d for d, c in cyclotomic(p).items()})
    product = IntLaurent.one()
    for d in divisors(2310):
        product = product * cyclotomic(d)
    assert product == l_minus_one(2310)
    # 720720 = 2^4 3^2 5 7 11 13, whose distinct primes multiply to 30030
    phi_30030 = cyclotomic(30030)
    assert cyclotomic(720720) == IntLaurent({24 * d: c for d, c in phi_30030.items()})
    assert (phi_30030.max_deg, len(cyclotomic(720720))) == (5760, len(phi_30030))


def test_divide_exact_int():
    p = IntLaurent({3: 4, 0: -6, -1: 2})
    assert p.divide_exact_int(2) == IntLaurent({3: 2, 0: -3, -1: 1})
    assert p.divide_exact_int(-2) == IntLaurent({3: -2, 0: 3, -1: -1})
    assert p.divide_exact_int(1) is p
    assert IntLaurent.zero().divide_exact_int(7) == IntLaurent.zero()
    with pytest.raises(InternalConsistencyError):
        p.divide_exact_int(4)
    with pytest.raises(DomainError):
        p.divide_exact_int(0)


def test_degree_bounds():
    a = IntLaurent({-2: 1, 3: 4})
    assert a.min_deg == -2
    assert a.max_deg == 3
    assert a.coefficient(3) == 4
    assert a.coefficient(0) == 0
    with pytest.raises(DomainError):
        IntLaurent.zero().min_deg
    with pytest.raises(DomainError):
        IntLaurent.zero().max_deg


def test_int_coercion_both_sides():
    assert 2 * L == L + L
    assert 1 + L == L + 1
    assert 1 - L == -(L - 1)
    assert IntLaurent.from_int(0) == IntLaurent.zero()


def schoolbook(a, b):
    """Reference product: every pair of terms, one at a time."""
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return IntLaurent(out)


@st.composite
def wide_laurents(draw, min_terms=8, max_terms=200):
    """8 to 200 terms, gaps of 1 to 3 between degrees (so both dense and
    sparse operands), negative degrees, coefficients up to 10^40."""
    n = draw(st.integers(min_terms, max_terms))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    scale = draw(st.sampled_from((9, 10 ** 6, 10 ** 40)))
    coeffs = draw(st.lists(st.integers(-scale, scale), min_size=n, max_size=n))
    deg, terms = draw(st.integers(-60, 10)), {}
    for gap, c in zip(gaps, coeffs):
        deg += gap
        terms[deg] = c
    return IntLaurent(terms)


binomials = st.builds(
    lambda lo, n, c, d: IntLaurent({lo: c, lo + n: d}),
    st.integers(-5, 5),
    st.integers(1, 6),
    st.sampled_from((1, -1, 10 ** 40)),
    st.sampled_from((1, -1, -(10 ** 40))),
)


@given(wide_laurents(), st.one_of(wide_laurents(), binomials))
def test_product_matches_schoolbook(a, b):
    assert a * b == schoolbook(a, b)
    assert b * a == schoolbook(a, b)
    assert a * a == schoolbook(a, a)
    assert a * b + (-a) * b == IntLaurent.zero()


@pytest.mark.parametrize("n", [12, 13, 64, 200])
@pytest.mark.parametrize("scale", [1, 127, 10 ** 40])
def test_product_at_the_coefficient_bound(n, scale):
    # The middle coefficient of each product is exactly +-n * scale^2, the
    # bound the digit width is sized from.
    ones = IntLaurent({d: scale for d in range(-(n // 2), n - n // 2)})
    alternating = IntLaurent({d: scale * (-1) ** d for d in range(n)})
    for a, b in ((ones, ones), (ones, -ones), (alternating, alternating.shift(-3)), (ones, alternating)):
        assert a * b == schoolbook(a, b)
    assert max(c for _, c in (ones * ones).items()) == n * scale * scale
    # (1 + L + ... + L^(n-1)) (1 - L + L^2 - ...): every odd coefficient cancels
    cancelled = ones * alternating
    if n % 2 == 0:
        assert all(d % 2 == 0 for d, _ in cancelled.items())


def test_only_dense_wide_products_are_packed(monkeypatch):
    calls = []
    real = laurent._kronecker_mul

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laurent, "_kronecker_mul", counting)
    dense = IntLaurent({d: d + 1 for d in range(laurent.KRONECKER_MIN_TERMS)})
    dense * dense
    assert len(calls) == 1
    dense * l_minus_one(3)  # a binomial factor, as in GL(n)
    dense * IntLaurent({d: 1 for d in range(laurent.KRONECKER_MIN_TERMS - 1)})
    dense * IntLaurent({3 * d: 1 for d in range(40)})  # fills a third of its span
    assert len(calls) == 1


def term_by_term(p, image):
    """Reference substitution of image for L: sum of coeff * image^deg over
    the terms; the Hodge-Deligne realization is checked against it."""
    out = MultiPoly.zero(image.nvars)
    for deg, coeff in p.items():
        out = out + image ** deg * coeff
    return out


def test_eval_at_zero_with_negative_degrees():
    with pytest.raises(DomainError):
        IntLaurent.term(-1).eval_rational(0)


def test_rendering():
    assert str(L ** 4 - L ** 3 - L ** 2 + L) == "L^4 - L^3 - L^2 + L"
    assert str(IntLaurent({2: 2, 0: 3})) == "2*L^2 + 3"
    assert str(IntLaurent({-1: 1, 0: 1})) == "1 + L^-1"
    assert str(IntLaurent.zero()) == "0"


def test_constructor_accepts_mappings_and_pairs():
    want = IntLaurent({2: 3, -1: 1})
    for terms in (
        Counter({2: 3, -1: 1}),
        MappingProxyType({2: 3, -1: 1}),
        [(2, 1), (-1, 1), (2, 2)],
        ((d, c) for d, c in [(2, 3), (-1, 1)]),
    ):
        assert IntLaurent(terms) == want
    assert IntLaurent([(1, 2), (1, -2)]).is_zero


@given(laurents(), laurents())
def test_equal_laurents_hash_equal(a, b):
    same = (a + b) - b
    assert same == a
    assert hash(same) == hash(a)
    assert len({a, same, IntLaurent(list(a.items())[::-1])}) == 1


@given(laurents())
def test_iteration_skips_zeros(a):
    assert all(c != 0 for _, c in a.items())
    assert len(a) == sum(1 for _ in a.items())
    assert bool(a) == (not a.is_zero)
