"""Exact integer Laurent polynomials in the Lefschetz symbol L.

Polynomials are sparse maps from degree to nonzero integer coefficient, so
arithmetic is exact at every step.  The key-blind part of the arithmetic
(accumulating terms, addition, negation, subtraction, powers, exact division
by an int, rendering) is the term-map kernel ``multipoly._TermPoly``, shared
with ``MultiPoly``; this module adds what reads the degrees: products, exact
division by the binomials L^a * (L^n - 1) that denominators are made of,
Adams operations, shifts and maps out of the ring.
Negative degrees are allowed; the class layer on top of this module is
responsible for clearing them where its invariants demand nonnegative
numerators.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError
from .multipoly import MultiPoly, _TermPoly


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

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "_terms", self._accumulate({}, self._pairs(terms)))

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

    def coeff_sum(self) -> int:
        """Sum of all coefficients; the value at L = 1."""
        return sum(self._terms.values())

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
            if not other:
                return IntLaurent.zero()
            return IntLaurent._raw({d: other * c for d, c in self._terms.items()})
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

    def adams(self, r: int) -> IntLaurent:
        """The Adams operation psi^r: the polynomial at L^r, for r >= 1."""
        if r < 1:
            raise DomainError("Adams operations psi^r need r >= 1")
        if r == 1:
            return self
        return IntLaurent._raw({d * r: c for d, c in self._terms.items()})

    def shift(self, k: int) -> IntLaurent:
        """Multiply by L^k."""
        if k == 0:
            return self
        return IntLaurent._raw({d + k: c for d, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- division ----------------------------------------------------------

    def divexact(self, other) -> IntLaurent | None:
        """Exact quotient self/other for a divisor L^a * (L^n - 1), n >= 1, or
        None when it does not divide.

        These are the only divisors the class layer divides by.  Any other
        divisor, zero included, is a domain error rather than None: it
        signals a caller bug, not a failed divisibility test.
        """
        o = self._coerce(other)
        if o is not None and len(o._terms) == 2:
            lo, hi = min(o._terms), max(o._terms)
            if o._terms[hi] == 1 and o._terms[lo] == -1:
                return self._div_binomial(hi - lo, lo) if self._terms else IntLaurent.zero()
        raise DomainError("divexact divides only by L^a * (L^n - 1)")

    def _div_binomial(self, n: int, lo: int) -> IntLaurent | None:
        """Exact quotient by L^lo * (L^n - 1), linear in the output size.

        Working per residue class mod n, the quotient coefficient at degree e
        is the sum of the dividend coefficients strictly above e in the same
        class, and the division is exact iff every class sums to zero.
        """
        va = self.min_deg
        sums: dict[int, int] = {}
        for d, c in self._terms.items():
            r = (d - va) % n
            sums[r] = sums.get(r, 0) + c
        if any(sums.values()):
            return None
        classes: dict[int, list[tuple[int, int]]] = {}
        for d, c in self._terms.items():
            classes.setdefault((d - va) % n, []).append((d - va, c))
        quot: dict[int, int] = {}
        for terms in classes.values():
            terms.sort(reverse=True)
            s = 0
            for i in range(len(terms) - 1):
                d, c = terms[i]
                s += c
                if not s:
                    continue
                floor = terms[i + 1][0]
                for e in range(d - n, floor - 1, -n):
                    quot[e] = s
        return IntLaurent._raw(quot).shift(va - lo)

    # -- maps out of the ring ------------------------------------------------

    def substitute(self, image: MultiPoly) -> MultiPoly:
        """Evaluate at L = image inside a multivariate polynomial ring.

        Negative degrees have no polynomial image: callers clear them first.
        """
        if not self.is_zero and self.min_deg < 0:
            raise DomainError("negative powers of L must be cleared before substitution")
        if len(image) == 1:
            # c*x^e: each a*L^d goes to a*c^d*x^(d*e) (a constant image collides)
            ((exps, c),) = image.items()
            pairs = [(tuple(d * e for e in exps), coeff * c ** d) for d, coeff in self._terms.items()]
        else:
            pairs = []
            power, at = MultiPoly.one(image.nvars), 0
            for deg, coeff in sorted(self._terms.items()):
                power, at = power * image ** (deg - at), deg
                pairs.extend((exps, coeff * c) for exps, c in power.items())
        return MultiPoly(image.nvars, pairs)

    def eval_rational(self, t: Fraction | int) -> Fraction:
        """Exact value at L = t."""
        t = Fraction(t)
        if t == 0 and not self.is_zero and self.min_deg < 0:
            raise DomainError("evaluation at 0 with negative powers of L")
        total = Fraction(0)
        for deg, coeff in self._terms.items():
            total += coeff * t ** deg
        return total

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _monomial(deg: int) -> str:
        return "" if deg == 0 else "L" if deg == 1 else f"L^{deg}"

    def __repr__(self) -> str:
        return f"IntLaurent({self})"


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


def l_minus_one(n: int) -> IntLaurent:
    """The polynomial L^n - 1."""
    if n < 1:
        raise DomainError("l_minus_one needs n >= 1")
    return IntLaurent({n: 1, 0: -1})
