"""Exact integer Laurent polynomials in the Lefschetz symbol L.

Polynomials are sparse maps from degree to nonzero integer coefficient, so
arithmetic is exact.  The part without key arithmetic (accumulating terms,
addition, negation, subtraction, scaling by an int, powers, exact division by
an int, the Adams operations, ``as_int``, ``==``, the hash, rendering) is
``multipoly._TermPoly``, the term-map kernel shared with ``MultiPoly`` and all
this module takes from it; ``IntLaurent`` gives it the hooks ``_coerce``,
``_new``, ``_monomial``, ``_unit`` (degree 0) and ``_stretch`` (every degree
times r).  This module adds products, shifts, evaluation at a rational
point, the exact division by a cyclotomic polynomial Phi_d, and the dense
binomial kernel: every product of Phi_d is one quotient of products of
binomials L^n - 1, kept once per exponent tuple (``cyclotomic_product``), and
``unit_part`` runs its list steps back.  Negative degrees are allowed; the
class layer clears them where it needs nonnegative numerators, and maps L to
uv (``MotivicClass.hd_realization``).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import neg, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InternalConsistencyError
from .multipoly import _INT, _TermPoly

if TYPE_CHECKING:
    from fractions import Fraction


#: Products are packed (Kronecker substitution) when both operands have at
#: least this many terms and each fills at least half of its degree span;
#: below that, or on sparser operands, the schoolbook loop is faster.
KRONECKER_MIN_TERMS = 12


class IntLaurent(_TermPoly):
    """Sparse Laurent polynomial in one symbol with int coefficients.

    Hashable; the zero polynomial is the empty term map, and no stored
    coefficient is ever zero.
    """

    __slots__ = ()
    _unit = 0

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        out = self._accumulate({}, self._pairs(terms))
        if not set(map(type, out)) <= _INT:
            raise DomainError("IntLaurent degrees must be ints")
        object.__setattr__(self, "_terms", out)

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> IntLaurent:
        # internal: terms must already be zero-free; the dict is adopted as is
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", terms)
        return obj

    _new = _raw

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> IntLaurent:
        return cls()

    @classmethod
    def one(cls) -> IntLaurent:
        return cls({0: 1})

    @classmethod
    def term(cls, deg: int, coeff: int = 1) -> IntLaurent:
        return cls({deg: coeff})

    @classmethod
    def from_int(cls, n: int) -> IntLaurent:
        return cls({0: n})

    # -- inspection --------------------------------------------------------

    @property
    def min_deg(self) -> int:
        if not self._terms:
            raise DomainError("the zero polynomial has no degree")
        return min(self._terms)

    @property
    def max_deg(self) -> int:
        if not self._terms:
            raise DomainError("the zero polynomial has no degree")
        return max(self._terms)

    def coefficient(self, deg: int) -> int:
        return self._terms.get(deg, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (degree, coefficient), ascending by degree."""
        return iter(sorted(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> IntLaurent | None:
        if isinstance(other, IntLaurent):
            return other
        if isinstance(other, int):
            return IntLaurent.from_int(other)
        return None

    def __mul__(self, other) -> IntLaurent:
        if isinstance(other, int):
            return self._scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if len(a) >= KRONECKER_MIN_TERMS and len(b) >= KRONECKER_MIN_TERMS:
            lo_a, lo_b = min(a), min(b)
            span_a, span_b = max(a) - lo_a, max(b) - lo_b
            if span_a < 2 * len(a) and span_b < 2 * len(b):
                return _kronecker_mul(a, b, lo_a, lo_b, span_a + span_b + 1)
        out: dict[int, int] = {}
        get = out.get
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                d = d1 + d2
                v = get(d, 0) + c1 * c2
                if v:
                    out[d] = v
                elif d in out:
                    del out[d]
        return IntLaurent._raw(out)

    __rmul__ = __mul__

    def _stretch(self, r: int) -> dict[int, int]:
        return {d * r: c for d, c in self._terms.items()}

    def shift(self, k: int) -> IntLaurent:
        """Multiply by L^k."""
        if type(k) is not int:
            raise DomainError("shifts take an int power of L")
        if k == 0:
            return self
        return IntLaurent._raw({d + k: c for d, c in self._terms.items()})

    # -- division ----------------------------------------------------------

    def div_cyclotomic(self, d: int) -> IntLaurent | None:
        """Exact quotient self / Phi_d by the d-th cyclotomic polynomial, or None
        when Phi_d does not divide self.  This is the library's one division
        of a polynomial it did not build itself (``binomial_quotient`` divides
        only products of binomials that it multiplied out).

        Phi_d divides self exactly when self vanishes at a primitive d-th root
        of unity.  For Phi_1 = L - 1 and Phi_2 = L + 1 that root is 1 or -1,
        so the test is one sum of the coefficients, with the sign of each
        odd degree flipped for -1.  For d >= 3, Phi_d divides L^d - 1, so it
        divides self exactly when it divides the remainder of self mod
        L^d - 1: d residue sums, reduced mod Phi_d.  Only when the test passes
        is the quotient built, by one synthetic division by the monic Phi_d
        that visits only nonzero terms (``_monic_quotient``).  The degree and
        the lower terms of Phi_d come from ``_divisor``, built once per d.
        """
        if not self._terms:
            return self
        top, tail = _divisor(d)
        if d == 1:
            if sum(self._terms.values()):
                return None
        elif d == 2:
            if sum(-c if e & 1 else c for e, c in self._terms.items()):
                return None
        else:
            rem = [0] * d
            for e, c in self._terms.items():
                rem[e % d] += c
            for i in range(d - 1, top - 1, -1):
                q = rem[i]
                if q:
                    for e, c in tail:
                        rem[i - top + e] -= q * c
            if any(rem[:top]):
                return None
        return IntLaurent._raw(_monic_quotient(self._terms, top, tail))

    # -- evaluation ------------------------------------------------------------

    def eval_rational(self, t: Fraction | int) -> Fraction:
        """Exact value at L = t."""
        import fractions  # a from-import here would cost about 1 us more per call on CPython 3.11

        t = _rational(t)
        if t == 0 and not self.is_zero and self.min_deg < 0:
            raise DomainError("evaluation at 0 with negative powers of L")
        total = fractions.Fraction(0)
        for deg, coeff in self._terms.items():
            total += coeff * t ** deg
        return total

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _monomial(deg: int) -> str:
        return "" if deg == 0 else "L" if deg == 1 else f"L^{deg}"

    def __repr__(self) -> str:
        return f"IntLaurent({self})"


def _rational(t) -> Fraction:
    """t as a Fraction, for an int (not a bool) or a Fraction, else DomainError."""
    import fractions

    if type(t) is not int and not isinstance(t, fractions.Fraction):
        raise DomainError("evaluation points must be ints or Fractions")
    return fractions.Fraction(t)


def _kronecker_mul(a: dict[int, int], b: dict[int, int], lo_a: int, lo_b: int, slots: int) -> IntLaurent:
    """The product of two term maps by Kronecker substitution.

    Both operands are evaluated at X = 2^w, the big ints multiplied, and the
    product's coefficients read back as w-bit digits.  No product
    coefficient exceeds bound = min(len) * max|a| * max|b| in magnitude, so
    w > bit_length(bound) keeps every digit apart; adding 2^(w-1) to each
    digit makes it nonnegative, so the digits carry nothing into each other.
    """
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    width = min((word for word in _WORD_FORMATS if word >= width), default=width)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    packed = _evaluate(a, lo_a, width)
    # a square (as in __pow__) lets the big-int multiply use its squaring path
    value = packed * (packed if b is a else _evaluate(b, lo_b, width)) + offset
    digits = _from_bytes(value.to_bytes(width * slots, "little"), width)
    lo = lo_a + lo_b
    return IntLaurent._raw({lo + i: d - half for i, d in enumerate(digits) if d != half})


def _evaluate(terms: dict[int, int], lo: int, width: int) -> int:
    """sum c * 2^(8*width*(d - lo)) over the terms."""
    dense = [0] * (max(terms) - lo + 1)
    for d, c in terms.items():
        dense[d - lo] = c
    pos = _to_bytes([c if c > 0 else 0 for c in dense], width)
    neg = _to_bytes([-c if c < 0 else 0 for c in dense], width)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


#: struct formats of unsigned words by size in bytes: digits of these widths
#: are converted in one call rather than one at a time.
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _to_bytes(digits: list[int], width: int) -> bytes:
    """Nonnegative digits below 2^(8*width) as one little-endian byte string."""
    fmt = _WORD_FORMATS.get(width)
    if fmt is None:
        return b"".join(d.to_bytes(width, "little") for d in digits)
    return struct.pack(f"<{len(digits)}{fmt}", *digits)


def _from_bytes(raw: bytes, width: int) -> Sequence[int]:
    """Inverse of _to_bytes."""
    fmt = _WORD_FORMATS.get(width)
    if fmt is None:
        return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    return struct.unpack(f"<{len(raw) // width}{fmt}", raw)


#: The symbol L itself.
L = IntLaurent.term(1)


def binomial_quotient(tops: Sequence[int], bottoms: Sequence[int]) -> IntLaurent:
    """prod(L^a - 1 for a in tops) / prod(L^b - 1 for b in bottoms), for
    exponents >= 1, which the caller knows to be a polynomial.

    One dense coefficient list carries the work, as C-level list operations:
    times 1 - L^a, the list minus itself shifted up by a; over 1 - L^b, a
    running sum along each residue class mod b, whose top b sums are zero
    exactly when the division is exact (else InternalConsistencyError).  The
    products come first, so each division is exact when the whole quotient
    is; the sign of prod(1 - L^a) / prod(1 - L^b) is put right at the end.
    """
    coeffs = [1]
    for a in tops:
        coeffs += [0] * a
        _times_one_minus(coeffs, a)
    for b in bottoms:
        _over_one_minus(coeffs, b)
        if any(coeffs[-b:]):
            raise InternalConsistencyError("a binomial quotient was not exact")
        del coeffs[-b:]
    if (len(tops) + len(bottoms)) % 2:
        coeffs = map(neg, coeffs)
    return IntLaurent._raw({d: c for d, c in enumerate(coeffs) if c})


def _times_one_minus(coeffs: list[int], n: int) -> None:
    """coeffs times 1 - L^n in place, cut to the list's length."""
    coeffs[n:] = map(sub, coeffs[n:], coeffs[:-n])


def _over_one_minus(coeffs: list[int], n: int) -> None:
    """coeffs over 1 - L^n in place, as a power series cut to the list's length."""
    for r in range(min(n, len(coeffs) - n)):
        coeffs[r::n] = accumulate(coeffs[r::n])


#: The bound, in entries, of every cache of the cyclotomic layer; it only stops unbounded growth.
CACHE_SIZE = 1024
_ONE = IntLaurent.one()  # the empty product, one object, which the class layer tests by identity


@lru_cache(maxsize=CACHE_SIZE)
def cyclotomic_product(exponents: tuple[tuple[int, int], ...]) -> IntLaurent:
    """prod(Phi_d^e for (d, e) in exponents), built once per exponent tuple.

    A lone Phi_d is Phi_r(L^(d/r)) for the product r of the distinct primes
    of d; any other product is one ``binomial_quotient``, as Phi_d =
    prod(L^k - 1)^mu(d/k) over the divisors k of d, where mu(d/k) is (-1)^|S|
    for k = d/prod(S), S a set of distinct primes of d, and else 0.  Each
    binomial's multiplicity is summed over the pairs first, so a binomial on
    both sides cancels before any list work.
    """
    if not exponents:
        return _ONE
    d, e = exponents[0]
    if len(exponents) == 1 and e == 1 and (r := prod(set(prime_factors(d)))) < d:
        return cyclotomic_product(((r, 1),)).adams(d // r)
    mult: dict[int, int] = {}
    for d, e in exponents:
        terms = [(d, e)]
        for p in set(prime_factors(d)):
            terms += [(k // p, -m) for k, m in terms]
        for k, m in terms:
            mult[k] = mult.get(k, 0) + m
    tops = [k for k, m in mult.items() for _ in range(m)]
    return binomial_quotient(tops, [k for k, m in mult.items() for _ in range(-m)])


def prime_factors(n: int) -> tuple[int, ...]:
    """The prime factors of n >= 1 with multiplicity, ascending."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return (*out, n) if n > 1 else tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending."""
    out = [1]
    for p in sorted(set(prime_factors(n))):
        power, powers = 1, []
        while n % (power * p) == 0:
            power *= p
            powers.append(power)
        out += [d * q for d in out for q in powers]
    return tuple(sorted(out))


def totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n."""
    for p in set(prime_factors(n)):
        n = n // p * (p - 1)
    return n


def _monic_quotient(terms: dict[int, int], top: int, tail: Sequence[tuple[int, int]]) -> dict[int, int]:
    """The quotient of terms by the monic L^top + (sum of tail), which must
    divide them exactly.

    Synthetic division from the top: the leading term c*L^e of what is left
    gives the quotient term c*L^(e - top), and taking that multiple of the
    divisor away changes only the degrees e - top + k of the tail, all among
    the top degrees below e.  So what is left is the dividend's terms not yet
    visited plus at most top near ones, and the next degree to visit is the
    largest of either: the work is the terms of the dividend and the quotient
    times the terms of the tail, plus a C-level max over the near terms,
    whatever the degree span.  The quotient starts at the dividend's lowest
    degree, since the tail has a constant term, so a visit below it means
    the division was not exact.
    """
    degrees = sorted(terms)  # popped from the end, so largest first
    lo = degrees[0]
    near: dict[int, int] = {}
    quot: dict[int, int] = {}
    while degrees or near:
        e = max(near) if near else degrees[-1]
        if degrees and degrees[-1] >= e:
            e = degrees.pop()
            c = terms[e] + near.pop(e, 0)
        else:
            c = near.pop(e)
        if not c:
            continue
        q = e - top
        if q < lo:
            raise InternalConsistencyError("a cyclotomic quotient was not exact")
        quot[q] = c
        for k, a in tail:
            t = q + k
            v = near.get(t, 0) - c * a
            if v:
                near[t] = v
            else:
                del near[t]
    return quot


def cyclotomic(d: int) -> IntLaurent:
    """The d-th cyclotomic polynomial Phi_d, kept by ``cyclotomic_product``
    (0.1 s on first use for d = 30030, CPython 3.11, x86-64)."""
    if type(d) is not int or d < 1:
        raise DomainError("cyclotomic polynomials are indexed by d >= 1")
    return cyclotomic_product(((d, 1),))


#: One power-axioms pass (seed 1) asks 1,246 times for 6 d, and
#: zeta_series(bgl_class(1), 30) 1,690 times for 28.
@lru_cache(maxsize=CACHE_SIZE)
def _divisor(d: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """What ``IntLaurent.div_cyclotomic`` divides by, built once per d: the
    degree phi(d) of the monic Phi_d and its terms below that degree."""
    top = totient(d)
    return top, tuple((e, c) for e, c in cyclotomic(d)._terms.items() if e < top)


def _index_bound(deg: int) -> int:
    """An upper bound on every d with phi(d) <= deg.

    If d has w distinct primes, phi(d) >= prod(p - 1) over them is at least
    the product over the first w primes, which caps w at the largest k whose
    first-k product of (p - 1) is at most deg; and d / phi(d) = prod p/(p - 1)
    over the primes of d is at most that product over the first k primes.
    """
    num, den, p = 1, 1, 2
    while den * (p - 1) <= deg:
        num, den = num * p, den * (p - 1)
        p += 1
        while len(prime_factors(p)) > 1:
            p += 1
    return deg * num // den


def _peel(body: IntLaurent, bound: int) -> tuple[tuple[int, int], ...] | None:
    """The exponents e_d with body = +-prod Phi_d^e, d <= bound, or None.

    body has constant term c0 = +-1.  As a power series, body/c0 is
    prod_n (1 - L^n)^{c_n} with integer c_n: the lowest term left after the
    factors below n are removed is -c_n L^n.  They are removed in turn to
    order bound, by the list steps of ``binomial_quotient``, and e_d = sum of
    c_n over the multiples n of d.  Two polynomials of degree at most bound
    that agree to that order are equal, so the result is exact when every
    e_d >= 0 and sum e_d phi(d) = deg(body).  A unit has |c_n| phi(n) <=
    deg(body), as every d that n divides has phi(d) >= phi(n), and
    sum |c_n| <= sum e_d 2^w(d) <= 2 deg(body); these stop a non-unit early.
    """
    deg, c0 = body.max_deg, body.coefficient(0)
    s = [0] * (bound + 1)
    for d, c in body._terms.items():
        s[d] = c * c0
    budget = 2 * deg
    exps: dict[int, int] = {}
    for n in range(1, bound + 1):
        c = -s[n]
        if not c:
            continue
        budget -= abs(c)
        if budget < 0 or abs(c) * totient(n) > deg:
            return None
        step = _times_one_minus if c < 0 else _over_one_minus
        for _ in range(abs(c)):
            step(s, n)
        for d in divisors(n):
            exps[d] = exps.get(d, 0) + c
    if any(e < 0 for e in exps.values()) or sum(e * totient(d) for d, e in exps.items()) != deg:
        return None
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def unit_part(p: IntLaurent) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
    """Factor p as sign * L^a * prod Phi_d^e, returned as (sign, a, exponents),
    or None if p is not of that shape, that is not a unit of the ring.

    The peel runs to the degree of p first, which finds every unit whose
    cyclotomic indices stay within it (all products of L^n - 1 among them),
    and then to the bound on every index that a factor of that degree can
    have, so every unit is found.
    """
    if p.is_zero:
        return None
    a = p.min_deg
    body = p.shift(-a)
    deg, c0 = body.max_deg, body.coefficient(0)
    if c0 not in (1, -1) or body.coefficient(deg) not in (1, -1):
        return None
    for bound in (deg, _index_bound(deg)):
        cyc = _peel(body, bound)
        if cyc is not None:
            # prod (1 - L^n)^{c_n} = (-1)^{sum c_n} prod Phi_d^e, and sum c_n = e_1
            return (-c0 if dict(cyc).get(1, 0) % 2 else c0), a, cyc
    return None
