"""Classes in the Grothendieck ring of algebraic stacks.

The ring is the localization of the Grothendieck ring of varieties at the
Lefschetz class L and at L^n - 1 for every n >= 1.  Every element used here
is a fraction

    num(L) / (L^e * (L^{n_1} - 1) * ... * (L^{n_r} - 1))

with an integer-polynomial numerator (nonnegative degrees only; negative
powers of L are folded into e on construction) and a structured denominator
``DenomForm``.  The denominator factors are kept as the multiset of the
exponents n_i, sorted ascending, so classes such as 1/[GL(n)] keep the shape
in which they arise and normalization can cancel factor by factor via exact
division.

Equality is mathematical, by cross-multiplication, so two representations of
the same class always compare equal.  Consequently MotivicClass is not
hashable; ``structural_key`` is a hashable key of one exact representation,
not of the class.

Writing q = L^{-1}, the fractions above are exactly the classes of the form
b * q^m / ((1-q^{n_1})...(1-q^{n_r})) that the zeta engine consumes, since
1/(1-q^n) = L^n/(L^n - 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import DomainError, InternalConsistencyError, NonInvertibleError
from .laurent import IntLaurent, l_minus_one
from .multipoly import MultiPoly


class DenomForm:
    """Structured denominator L^l_exp * prod(L^n - 1 for n in factors).

    Invariant: l_exp >= 0, and factors is a multiset of integers >= 1 stored
    as an ascending tuple.  The public constructor checks the first two and
    sorts; ``_raw`` trusts a caller that already holds all three.  The
    trivial denominator is DenomForm(0, ()).  Instances are immutable and
    hashable, equal when both fields are.
    """

    __slots__ = ("l_exp", "factors")

    def __init__(self, l_exp: int = 0, factors: tuple[int, ...] = ()):
        if l_exp < 0:
            raise DomainError("denominator L-exponent must be nonnegative")
        if any(n < 1 for n in factors):
            raise DomainError("denominator factors must be exponents >= 1")
        object.__setattr__(self, "l_exp", l_exp)
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @classmethod
    def _raw(cls, l_exp: int, factors: tuple[int, ...]) -> DenomForm:
        # internal: the class invariant must already hold
        obj = object.__new__(cls)
        object.__setattr__(obj, "l_exp", l_exp)
        object.__setattr__(obj, "factors", factors)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return DenomForm, (self.l_exp, self.factors)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.l_exp == other.l_exp and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.l_exp, self.factors))

    def __repr__(self) -> str:
        return f"DenomForm(l_exp={self.l_exp!r}, factors={self.factors!r})"

    @property
    def is_trivial(self) -> bool:
        return self.l_exp == 0 and not self.factors

    def expand(self) -> IntLaurent:
        """The denominator as an honest polynomial in L."""
        return _expand(self.l_exp, self.factors)

    def times(self, other: DenomForm) -> DenomForm:
        return DenomForm._raw(self.l_exp + other.l_exp, tuple(sorted(self.factors + other.factors)))

    def lcm(self, other: DenomForm) -> DenomForm:
        """Smallest shape both denominators divide (per-factor max multiplicity)."""
        mine, theirs = self.factors, other.factors
        merged: list[int] = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            n, m = mine[i], theirs[j]
            merged.append(min(n, m))
            i += n <= m
            j += m <= n
        merged.extend(mine[i:] or theirs[j:])
        return DenomForm._raw(max(self.l_exp, other.l_exp), tuple(merged))

    def complement_in(self, target: DenomForm) -> IntLaurent:
        """The polynomial target/self; target must be a multiple of self."""
        mine, theirs = self.factors, target.factors
        missing: list[int] = []
        j = 0
        for n in theirs:
            if j < len(mine) and mine[j] == n:
                j += 1
            else:
                missing.append(n)
        # an unmatched mine[j] is absent from target, or has extra multiplicity
        if j < len(mine) or target.l_exp < self.l_exp:
            raise DomainError("complement_in needs a denominator multiple")
        return _expand(target.l_exp - self.l_exp, tuple(missing))

    def eval_rational(self, t: Fraction) -> Fraction:
        """The value at L = t, on integers: for t = p/r in lowest terms,
        p^l_exp * prod(p^n - r^n) / r^(l_exp + sum(n)) is in lowest terms too."""
        p, r = t.numerator, t.denominator
        num = p ** self.l_exp
        for n in self.factors:
            num *= p ** n - r ** n
        return Fraction(num, r ** (self.l_exp + sum(self.factors)))

    def __str__(self) -> str:
        return " * ".join(_denominator_parts(self.l_exp, self.factors, "L")) or "1"


_TRIVIAL_DEN = DenomForm()
_ONE_NUM = IntLaurent.one()


def _denominator_parts(l_exp: int, factors: tuple[int, ...], base: str) -> list[str]:
    """The factors of base^l_exp * prod(base^n - 1) as text, L-power first."""
    parts = [base if l_exp == 1 else f"{base}^{l_exp}"] if l_exp else []
    parts.extend(f"({base}-1)" if n == 1 else f"({base}^{n}-1)" for n in factors)
    return parts


def _render_fraction(num: str, l_exp: int, factors: tuple[int, ...], base: str) -> str:
    """The text of num / (base^l_exp * prod(base^n - 1)); base is L, or (u*v)
    for a Hodge-Deligne realization.  A trivial denominator prints num alone."""
    parts = _denominator_parts(l_exp, factors, base)
    if not parts:
        return num
    if " " in num or num.startswith("-"):
        num = f"({num})"
    den = " * ".join(parts)
    return f"{num} / ({den})" if len(parts) > 1 else f"{num} / {den}"


#: Distinct denominators kept expanded; one cli-mix pass uses 17 and one
#: power-axioms pass 69, so the bound only stops unbounded growth.
EXPAND_CACHE_SIZE = 1024


def _denominator_product(l_exp: int, factors: Sequence[int]) -> IntLaurent:
    """L^l_exp * prod(L^n - 1 for n in factors), multiplied in balanced halves,
    so the products of many factors reach the packed multiply of IntLaurent."""
    if len(factors) > 1:
        mid = len(factors) // 2
        return _denominator_product(l_exp, factors[:mid]) * _denominator_product(0, factors[mid:])
    return (l_minus_one(factors[0]) if factors else _ONE_NUM).shift(l_exp)


_expand = lru_cache(maxsize=EXPAND_CACHE_SIZE)(_denominator_product)


def unit_part(p: IntLaurent) -> tuple[int, int, tuple[int, ...]] | None:
    """Factor p as sign * L^a * prod(L^n - 1), or None if p is not of that shape.

    This is the invertibility test: only units of this shape are inverted.
    They are not all the units of the ring: L + 1 = (L^2 - 1)/(L - 1) is one,
    but it has no such factorization, so 1/(L + 1) is rejected.  Factors
    peel off from the bottom: once L^a is stripped, the lowest non-constant
    term of sign * prod(L^{n_i} - 1) has degree m = min n_i and a coefficient
    of -sign times the multiplicity of m, never 0, so each factor costs one
    exact division by L^m - 1.
    """
    if p.is_zero:
        return None
    val = p.min_deg
    body = p.shift(-val)
    factors: list[int] = []  # ascending: no factor of a quotient is below m
    while len(body) > 1:
        terms = body.items()
        next(terms)  # the constant term, which every quotient keeps
        m = next(terms)[0]
        body = body.divexact(l_minus_one(m))
        if body is None:
            return None
        factors.append(m)
    c = body.coefficient(0)
    return (c, val, tuple(factors)) if c in (1, -1) else None


class MotivicClass:
    """An element of the Grothendieck ring of stacks, kept as an exact fraction.

    Construction folds negative numerator degrees into the denominator
    L-power and canonicalizes zero; full cancellation is ``normalize``.
    Arithmetic coerces ints and IntLaurent values on either side.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: IntLaurent | int, den: DenomForm = _TRIVIAL_DEN):
        if isinstance(num, int):
            num = IntLaurent.from_int(num)
        if not isinstance(num, IntLaurent) or not isinstance(den, DenomForm):
            raise DomainError("MotivicClass needs an IntLaurent numerator and a DenomForm")
        if num.is_zero:
            num, den = IntLaurent.zero(), _TRIVIAL_DEN
        elif num.min_deg < 0:
            shift = -num.min_deg
            num = num.shift(shift)
            den = DenomForm(den.l_exp + shift, den.factors)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _raw(cls, num: IntLaurent, den: DenomForm) -> MotivicClass:
        # internal: num has no negative degree; a zero num comes with the
        # trivial den, or the result is normalized at once
        obj = object.__new__(cls)
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MotivicClass is immutable")

    def __reduce__(self):
        # the constructor keeps a representation that already holds the invariant
        return MotivicClass, (self._num, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MotivicClass:
        return cls(IntLaurent.zero())

    @classmethod
    def one(cls) -> MotivicClass:
        return cls(IntLaurent.one())

    @classmethod
    def l_power(cls, k: int) -> MotivicClass:
        """L^k for any integer k; negative k lands in the denominator."""
        if k >= 0:
            return cls(IntLaurent.term(k))
        return cls(IntLaurent.one(), DenomForm(-k, ()))

    # -- inspection --------------------------------------------------------

    @property
    def num(self) -> IntLaurent:
        return self._num

    @property
    def den(self) -> DenomForm:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def structural_key(self) -> tuple:
        """Hashable key of this exact representation (not of the class)."""
        return (tuple(self._num.items()), self._den.l_exp, self._den.factors)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._num.is_zero or o._num.is_zero:
            return self._num.is_zero and o._num.is_zero
        if self._den == o._den:
            return self._num == o._num
        return self._num * o._den.expand() == o._num * self._den.expand()

    __hash__ = None  # mathematical equality is incompatible with structural hashing

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._num.is_zero:
            return o
        if o._num.is_zero:
            return self
        if self._den == o._den:
            # what the lcm route computes, with both complements equal to 1
            return MotivicClass._raw(self._num + o._num, self._den).normalize()
        den = self._den.lcm(o._den)
        num = self._num * self._den.complement_in(den) + o._num * o._den.complement_in(den)
        return MotivicClass(num, den).normalize()

    __radd__ = __add__

    def __neg__(self) -> MotivicClass:
        return MotivicClass._raw(-self._num, self._den)

    def __sub__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    @property
    def _is_one(self) -> bool:
        return self._den.is_trivial and self._num == _ONE_NUM

    def __mul__(self, other) -> MotivicClass:
        if isinstance(other, int):
            # L^n - 1 is primitive, so it divides k * num exactly when it divides
            # num: normalize() keeps the shape the general product keeps
            if other == 1:
                return self
            return MotivicClass._raw(self._num * other, self._den).normalize()
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._num.is_zero or o._num.is_zero:
            return MotivicClass.zero()
        if o._is_one:
            return self
        if self._is_one:
            return o
        num = self._num * o._num
        if self._den.is_trivial and o._den.is_trivial:
            return MotivicClass._raw(num, _TRIVIAL_DEN)
        return MotivicClass._raw(num, self._den.times(o._den)).normalize()

    __rmul__ = __mul__

    def divide_exact_int(self, d: int) -> MotivicClass:
        """self/d for an integer d that must divide every numerator coefficient.

        Failure means an identity that guarantees exactness was violated, so it
        raises InternalConsistencyError rather than DomainError.
        """
        return MotivicClass._raw(self._num.divide_exact_int(d), self._den)

    def __truediv__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> MotivicClass:
        if not isinstance(n, int):
            raise DomainError("class exponents must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return MotivicClass.one()
        if n == 1:
            return self
        den = DenomForm(self._den.l_exp * n, self._den.factors * n)
        return MotivicClass(self._num ** n, den).normalize()

    # -- canonicalization ----------------------------------------------------

    def normalize(self) -> MotivicClass:
        """Cancel denominator factors and shared L-powers by exact division."""
        if self._num.is_zero:
            return MotivicClass.zero()
        num = self._num
        l_exp = self._den.l_exp
        kept: list[int] = []
        pending = sorted(self._den.factors, reverse=True)
        while pending:
            if num.coeff_sum() != 0:
                # num(1) != 0 rules out division by any L^n - 1
                kept.extend(pending)
                break
            n = pending.pop(0)
            q = num.divexact(l_minus_one(n))
            if q is None:
                kept.append(n)
            else:
                num = q
        val = num.min_deg
        if val > 0 and l_exp > 0:
            g = min(val, l_exp)
            num = num.shift(-g)
            l_exp -= g
        # kept is descending: factors were tried from the largest down
        return MotivicClass._raw(num, DenomForm._raw(l_exp, tuple(reversed(kept))))

    def inverse(self) -> MotivicClass:
        """1/self; defined exactly for units sign * L^a * prod(L^n - 1)."""
        a = self.normalize()
        uf = unit_part(a._num)
        if uf is None:
            raise NonInvertibleError(f"class is not a unit of the ring: {a}")
        sign, lpow, factors = uf
        num = a._den.expand()
        if sign < 0:
            num = -num
        return MotivicClass(num, DenomForm(lpow, factors)).normalize()

    # -- maps out of the ring --------------------------------------------------

    def adams(self, r: int) -> MotivicClass:
        """The Adams operation psi^r: num(L^r) / (L^{r e} prod(L^{r n} - 1)) for
        self = num / (L^e prod(L^n - 1)), r >= 1."""
        if r == 1:
            return self
        # scaling every degree and factor by r >= 1 keeps both invariants
        den = DenomForm._raw(self._den.l_exp * r, tuple(n * r for n in self._den.factors))
        return MotivicClass._raw(self._num.adams(r), den)

    def eval_rational(self, t: Fraction | int) -> Fraction:
        """Exact value at L = t; poles raise DomainError."""
        t = Fraction(t)
        den = self._den.eval_rational(t)
        if den == 0:
            raise DomainError(f"denominator vanishes at L = {t}")
        return self._num.eval_rational(t) / den

    def q_expansion(self, max_degree: int) -> dict[int, int]:
        """Laurent expansion in q = L^{-1}, kept to q-degree <= max_degree.

        Each 1/(L^n - 1) = q^n/(1-q^n) expands as the geometric series
        q^n + q^{2n} + ...; the result is the truncated product.
        """
        e = self._den.l_exp
        shift = e + sum(self._den.factors)
        cur = {shift - d: c for d, c in self._num.items()}  # one key per numerator degree
        for n in self._den.factors:
            nxt: dict[int, int] = {}
            for exp, c in cur.items():
                t = exp
                while t <= max_degree:
                    nxt[t] = nxt.get(t, 0) + c
                    t += n
            cur = {k: v for k, v in nxt.items() if v}
        return {k: v for k, v in cur.items() if v and k <= max_degree}

    def hd_realization(self) -> HDRealization:
        """Hodge-Deligne realization: L goes to uv, denominator kept structured."""
        a = self.normalize()
        uv = MultiPoly.monomial((1, 1))
        return HDRealization(a._num.substitute(uv), a._den.l_exp, a._den.factors)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return _render_fraction(str(self._num), self._den.l_exp, self._den.factors, "L")

    def __repr__(self) -> str:
        return f"MotivicClass({self})"

    def to_json(self) -> dict:
        if self._num.is_zero:
            num = {"min_deg": 0, "coeffs": [0]}
        else:
            lo, hi = self._num.min_deg, self._num.max_deg
            num = {"min_deg": lo, "coeffs": [self._num.coefficient(d) for d in range(lo, hi + 1)]}
        return {"num": num, "den": {"l_exp": self._den.l_exp, "factors": list(self._den.factors)}}

    @classmethod
    def from_json(cls, data: dict) -> MotivicClass:
        lo = data["num"]["min_deg"]
        num = IntLaurent({lo + i: c for i, c in enumerate(data["num"]["coeffs"])})
        den = DenomForm(data["den"]["l_exp"], tuple(data["den"]["factors"]))
        return cls(num, den)


def _coerce(x) -> MotivicClass | None:
    if isinstance(x, MotivicClass):
        return x
    if isinstance(x, int):
        return MotivicClass(x)
    if isinstance(x, IntLaurent):
        return MotivicClass(x)
    return None


class HDRealization(NamedTuple):
    """Image of a class under E: num(uv) / ((uv)^l_exp * prod((uv)^n - 1))."""

    num: MultiPoly
    l_exp: int
    factors: tuple[int, ...]

    @property
    def is_polynomial(self) -> bool:
        return self.l_exp == 0 and not self.factors

    def __str__(self) -> str:
        return _render_fraction(str(self.num), self.l_exp, self.factors, "(u*v)")

    def to_json(self) -> dict:
        return {
            "num": self.num.to_json(),
            "den": {"l_exp": self.l_exp, "factors": list(self.factors), "base": "u*v"},
        }


# -- standard classes ---------------------------------------------------------


def standard_forms(name: str, args: Sequence[int]) -> tuple[DenomForm, DenomForm]:
    """The standard class GL(n), BGL(n) or Gr(k, n) as the quotient top/bottom
    of two shapes L^a * prod(L^n - 1); the class constructors and evaluation
    at a point both read it from here, so they share one domain check."""
    if name == "Gr":
        k, n = args
        if not 0 <= k <= n:
            raise DomainError("Gr(k, n) needs 0 <= k <= n")
        k = min(k, n - k)  # Gr(k, n) = Gr(n - k, n): the shorter products
        return DenomForm._raw(0, tuple(range(n - k + 1, n + 1))), DenomForm._raw(0, tuple(range(1, k + 1)))
    (n,) = args
    if n < 0:
        raise DomainError(f"{name}(n) needs n >= 0")
    gl = DenomForm._raw(n * (n - 1) // 2, tuple(range(1, n + 1)))
    return (gl, _TRIVIAL_DEN) if name == "GL" else (_TRIVIAL_DEN, gl)


def gl_class(n: int) -> MotivicClass:
    """[GL(n)] = prod_{j=0}^{n-1} (L^n - L^j) = L^{n(n-1)/2} prod_{i=1}^{n} (L^i - 1),
    a polynomial class."""
    gl, _ = standard_forms("GL", (n,))
    return MotivicClass(_denominator_product(gl.l_exp, gl.factors))


def bgl_class(n: int) -> MotivicClass:
    """[BGL(n)] = 1/[GL(n)], stored with the denominator in factored shape."""
    return MotivicClass(IntLaurent.one(), standard_forms("BGL", (n,))[1])


def grassmannian_class(k: int, n: int) -> MotivicClass:
    """[Gr(k, n)], the Gaussian binomial (n choose k)_L; normalize() cancels the
    bottom shape, one factor L^m - 1 at a time, so it is always a polynomial."""
    top, bottom = standard_forms("Gr", (k, n))
    gr = MotivicClass._raw(_denominator_product(0, top.factors), bottom).normalize()
    if not gr.den.is_trivial:
        raise InternalConsistencyError("Gaussian binomial division failed")
    return gr
