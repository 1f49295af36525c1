"""Classes in the Grothendieck ring of algebraic stacks.

The ring is the localization of the Grothendieck ring of varieties at the
Lefschetz class L and at L^n - 1 for every n >= 1, that is at L and at every
cyclotomic polynomial Phi_d, since L^n - 1 is the product of the Phi_d over
the divisors d of n.  Every class is stored as the reduced fraction

    num(L) / (L^a * Phi_{d_1}^{e_1} * ... * Phi_{d_r}^{e_r})

with an integer-polynomial numerator (nonnegative degrees only; negative
powers of L fold into a), the cyclotomic exponents as an ascending tuple of
(d, e) pairs with e >= 1, and no common factor: no Phi_d of the denominator
divides num, and L divides num only when a = 0.  Every constructor and every
operation returns this form, and it is unique, so equality and the hash are
structural and every route to a class gives the same value in the same shape.

Text, JSON and the ``num``/``den`` accessors show the class in the shape
num' / (L^a * (L^{n_1} - 1) * ... * (L^{n_r} - 1)) through one cover rule:
take the largest d whose exponent is still positive, write the factor
L^d - 1, and lower the exponent of Phi_k by one for every divisor k of d; a
Phi_k whose exponent is already 0 is multiplied into the numerator instead.
So [BGL(n)] prints as 1 / (L^{n(n-1)/2} * prod_{j<=n}(L^j - 1)), and
1/(L + 1) as (L - 1)/(L^2 - 1).

Writing q = L^{-1}, these fractions are exactly the classes of the form
b * q^m / ((1-q^{n_1})...(1-q^{n_r})) that the zeta engine consumes, since
1/(1-q^n) = L^n/(L^n - 1).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from ._frozen import Frozen
from .errors import DomainError, NonInvertibleError
from .laurent import CACHE_SIZE, IntLaurent, binomial_quotient, cyclotomic, cyclotomic_product, divisors
from .laurent import _rational, prime_factors, unit_part
from .multipoly import MultiPoly, _json_field

if TYPE_CHECKING:
    from fractions import Fraction

#: Cyclotomic exponents: ascending (d, e) pairs, e >= 1, for prod Phi_d^e.
Exponents = tuple[tuple[int, int], ...]


class DenomForm(Frozen):
    """The shape L^l_exp * prod(L^n - 1 for n in factors) in which a
    denominator is written and read.

    Invariant: l_exp >= 0, and factors is a multiset of integers >= 1 stored
    as an ascending tuple.  The public constructor checks the first two
    (``bool`` is not an integer here) and sorts; ``_raw`` trusts a caller
    that already holds all three.  The trivial denominator is
    DenomForm(0, ()).  Instances are hashable, equal when both fields are.
    """

    __slots__ = _fields = ("l_exp", "factors")

    def __init__(self, l_exp: int = 0, factors: tuple[int, ...] = ()):
        factors = tuple(factors)
        if type(l_exp) is not int or any(type(n) is not int for n in factors):
            raise DomainError("denominator exponents must be ints")
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

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.l_exp == other.l_exp and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.l_exp, self.factors))

    @property
    def is_trivial(self) -> bool:
        return self.l_exp == 0 and not self.factors

    def eval_rational(self, t: Fraction | int) -> Fraction:
        """The value at L = t, on integers: for t = p/r in lowest terms,
        p^l_exp * prod(p^n - r^n) / r^(l_exp + sum(n)) is in lowest terms too."""
        import fractions  # a from-import here would cost about 1 us more per call on CPython 3.11

        t = _rational(t)
        p, r = t.numerator, t.denominator
        num = p ** self.l_exp
        for n in self.factors:
            num *= p ** n - r ** n
        return fractions.Fraction(num, r ** (self.l_exp + sum(self.factors)))

    def __str__(self) -> str:
        return " * ".join(_denominator_parts(self.l_exp, self.factors, "L")) or "1"


_CyclotomicDenom = namedtuple("_CyclotomicDenom", "l_exp exponents")
_CyclotomicDenom.__doc__ = """The stored denominator L^l_exp * prod(Phi_d^e for (d, e) in exponents),
with l_exp >= 0 and ascending (d, e) pairs (``Exponents``), d and e >= 1.
Built only inside this module, through ``_denominator``; the trivial one
is ``_NO_DEN``."""


_TRIVIAL_DEN = DenomForm()
_NO_DEN = _CyclotomicDenom(0, ())
_ONE_NUM = cyclotomic_product(())  # the shared 1, which the fast paths test by identity
_ZERO_NUM = IntLaurent.zero()


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


def _binomial_exponents(factors: tuple[int, ...]) -> Exponents:
    """The cyclotomic exponents of prod(L^n - 1 for n in factors)."""
    exps: dict[int, int] = {}
    for n in factors:
        for d in divisors(n):
            exps[d] = exps.get(d, 0) + 1
    return tuple(sorted(exps.items()))


def _cover(cyc: Exponents) -> tuple[tuple[int, ...], IntLaurent]:
    """The cover rule: the factors n of the shape prod(L^n - 1) that
    prod Phi_d^e is written in, largest d first, and the product of the
    Phi_k the shape adds, by which the numerator is multiplied."""
    left = dict(cyc)
    factors: list[int] = []
    extra: dict[int, int] = {}
    while left:
        n = max(left)
        factors.append(n)
        for k in divisors(n):
            if k in left:
                left[k] -= 1
                if not left[k]:
                    del left[k]
            else:
                extra[k] = extra.get(k, 0) + 1
    return tuple(reversed(factors)), cyclotomic_product(tuple(sorted(extra.items())))


def _adams_exponents(cyc: Exponents, r: int) -> Exponents:
    """The exponents of prod Phi_d(L^r)^e, prime by prime over r:
    Phi_d(L^p) is Phi_{dp} when p divides d, and Phi_{dp} * Phi_d otherwise."""
    exps = dict(cyc)
    for p in prime_factors(r):
        nxt: dict[int, int] = {}
        for d, e in exps.items():
            nxt[d * p] = nxt.get(d * p, 0) + e
            if d % p:
                nxt[d] = nxt.get(d, 0) + e
        exps = nxt
    return tuple(sorted(exps.items()))


def _cancel(num: IntLaurent, den: _CyclotomicDenom, tested=None) -> tuple[IntLaurent, _CyclotomicDenom]:
    """num / den in lowest terms, for num of nonnegative degree, as the pair
    (num, den): shared powers of L cancel, and each Phi_d of den divides num
    out as often as it goes, at most e times.  Only the d in tested are tried
    when it is given; a monomial has no cyclotomic factor.  When nothing
    cancels, den itself comes back."""
    if num.is_zero:
        return num, _NO_DEN
    l_exp, exps = den
    g = min(num.min_deg, l_exp) if l_exp else 0
    left = exps
    if exps and len(num) > 1:
        left = []
        for d, e in exps:
            if tested is None or d in tested:
                while e:
                    q = num.div_cyclotomic(d)
                    if q is None:
                        break
                    num, e = q, e - 1
            if e:
                left.append((d, e))
        left = tuple(left)
    if not g and left == exps:
        return num, den
    return num.shift(-g), _denominator(l_exp - g, left)


class MotivicClass(Frozen):
    """An element of the Grothendieck ring of stacks, kept as a reduced fraction.

    ``MotivicClass(num, den)`` takes a numerator and a ``DenomForm`` shape
    and stores their reduced form (copy and pickle pass the stored
    denominator instead).  Equal classes are equal structurally and hash
    alike, and a class with no denominator hashes as its numerator, so it
    hashes as the int or IntLaurent it equals.  Arithmetic coerces ints and
    IntLaurent values on either side.
    """

    __slots__ = _fields = ("_num", "_den")

    def __init__(self, num: IntLaurent | int, den: DenomForm = _TRIVIAL_DEN):
        if isinstance(num, int):
            num = IntLaurent.from_int(num)
        if isinstance(den, DenomForm):
            den = _denominator(den.l_exp, _binomial_exponents(den.factors))
        elif isinstance(den, _CyclotomicDenom):
            den = _denominator(*den)  # a copied trivial denominator becomes _NO_DEN again
        else:
            den = None
        if not isinstance(num, IntLaurent) or den is None:
            raise DomainError("MotivicClass needs an IntLaurent numerator and a DenomForm")
        if not num.is_zero and num.min_deg < 0:
            den = _CyclotomicDenom(den.l_exp - num.min_deg, den.exponents)
            num = num.shift(-num.min_deg)
        num, den = _cancel(num, den)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _raw(cls, num: IntLaurent, den: _CyclotomicDenom) -> MotivicClass:
        # internal: num / den must already be reduced, with num of nonnegative degree
        obj = object.__new__(cls)
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MotivicClass:
        return _ZERO

    @classmethod
    def one(cls) -> MotivicClass:
        return _ONE

    @classmethod
    def l_power(cls, k: int) -> MotivicClass:
        """L^k for any integer k; negative k lands in the denominator."""
        if k >= 0:
            return cls._raw(IntLaurent.term(k), _NO_DEN)
        return cls._raw(_ONE_NUM, _CyclotomicDenom(-k, ()))

    # -- inspection --------------------------------------------------------

    @property
    def num(self) -> IntLaurent:
        """The numerator over ``den``, the cover of the reduced denominator."""
        return self.num_den()[0]

    @property
    def den(self) -> DenomForm:
        """The reduced denominator written as L^a * prod(L^n - 1) by the cover rule."""
        return self.num_den()[1]

    def num_den(self) -> tuple[IntLaurent, DenomForm]:
        """``num`` and ``den``, from one run of the cover rule."""
        factors, extra = _cover(self._den.exponents)
        return self._num if extra is _ONE_NUM else self._num * extra, DenomForm._raw(self._den.l_exp, factors)

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def structural_key(self) -> tuple:
        """Hashable key of the reduced form: equal exactly for equal classes."""
        return (tuple(self._num.items()), self._den.l_exp, self._den.exponents)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.as_int() == other
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self) -> int:
        return hash(self._num) if self._den is _NO_DEN else hash((self._num, self._den))

    def as_int(self) -> int | None:
        """The int this class equals, or None when it is not an integer."""
        return self._num.as_int() if self._den is _NO_DEN else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> MotivicClass:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._num.is_zero:
            return o
        if o._num.is_zero:
            return self
        mine, theirs = self._den, o._den
        if mine is theirs or mine == theirs:
            num, den = _cancel(self._num + o._num, mine)
        else:
            top, to_mine, to_theirs, shared = _sum_plan(mine, theirs)
            num = (self._num * to_mine if to_mine is not _ONE_NUM else self._num) + (
                o._num * to_theirs if to_theirs is not _ONE_NUM else o._num
            )
            num, den = _cancel(num, top, shared)
        return MotivicClass._raw(num, den)

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

    def __mul__(self, other) -> MotivicClass:
        if isinstance(other, int):
            # Phi_d is primitive, so it divides k * num exactly when it divides num
            if other == 1:
                return self
            if not other:
                return _ZERO
            return MotivicClass._raw(self._num * other, self._den)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._num.is_zero or o._num.is_zero:
            return _ZERO
        if o._den is _NO_DEN and o._num == _ONE_NUM:
            return self
        if self._den is _NO_DEN and self._num == _ONE_NUM:
            return o
        # each numerator cancels against the other denominator; after that
        # the product is reduced, as both factors were
        x, y, x_den, y_den = self._num, o._num, self._den, o._den
        if y_den is not _NO_DEN:
            x, y_den = _cancel(x, y_den)
        if x_den is not _NO_DEN:
            y, x_den = _cancel(y, x_den)
        den = y_den if x_den is _NO_DEN else x_den if y_den is _NO_DEN else _product_denominator(x_den, y_den)
        return MotivicClass._raw(x * y, den)

    __rmul__ = __mul__

    def divide_exact_int(self, d: int) -> MotivicClass:
        """self/d for an integer d that must divide every numerator coefficient.

        Failure means an identity that guarantees exactness was violated, so it
        raises InternalConsistencyError rather than DomainError.  Phi_d is
        primitive, so the quotient stays reduced.
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
            return _ONE
        if n == 1:
            return self
        # powers of coprime polynomials stay coprime
        den = self._den
        cyc = tuple((d, e * n) for d, e in den.exponents)
        return MotivicClass._raw(self._num ** n, _denominator(den.l_exp * n, cyc))

    def inverse(self) -> MotivicClass:
        """1/self; defined exactly for the units sign * L^a * prod Phi_d^e."""
        uf = unit_part(self._num)
        if uf is None:
            raise NonInvertibleError(f"class is not a unit of the ring: {self}")
        sign, l_exp, cyc = uf
        num = cyclotomic_product(self._den.exponents).shift(self._den.l_exp)
        # the two denominators share no factor, as self is reduced
        return MotivicClass._raw(-num if sign < 0 else num, _denominator(l_exp, cyc))

    # -- maps out of the ring --------------------------------------------------

    def adams(self, r: int) -> MotivicClass:
        """The Adams operation psi^r: num(L^r) / (L^{r a} prod Phi_d(L^r)^e), r >= 1.

        The result needs no reduction: a root z of a common factor of num(L^r)
        and Phi_d(L^r) would make z^r a common root of num and Phi_d."""
        num = self._num.adams(r)  # which checks r
        if r == 1:
            return self
        den = self._den
        return MotivicClass._raw(num, _denominator(den.l_exp * r, _adams_exponents(den.exponents, r)))

    def eval_rational(self, t: Fraction | int) -> Fraction:
        """Exact value at L = t; poles of the reduced denominator raise DomainError."""
        t = _rational(t)
        den = t ** self._den.l_exp
        for d, e in self._den.exponents:
            den *= cyclotomic(d).eval_rational(t) ** e
        if den == 0:
            raise DomainError(f"denominator vanishes at L = {t}")
        return self._num.eval_rational(t) / den

    def q_expansion(self, max_degree: int) -> dict[int, int]:
        """Laurent expansion in q = L^{-1}, kept to q-degree <= max_degree.

        Each 1/(L^n - 1) of ``den`` is q^n/(1-q^n), the geometric series
        q^n + q^{2n} + ...; the result is the truncated product.
        """
        num, den = self.num_den()
        shift = den.l_exp + sum(den.factors)
        cur = {shift - d: c for d, c in num.items()}  # one key per numerator degree
        for n in den.factors:
            nxt: dict[int, int] = {}
            for exp, c in cur.items():
                t = exp
                while t <= max_degree:
                    nxt[t] = nxt.get(t, 0) + c
                    t += n
            cur = {k: v for k, v in nxt.items() if v}
        return {k: v for k, v in cur.items() if v and k <= max_degree}

    def hd_realization(self) -> HDRealization:
        """Hodge-Deligne realization, the library's one map L -> uv: each
        c*L^d of ``num`` becomes c*u^d*v^d, the denominator kept in the shape
        of ``den``."""
        num, den = self.num_den()
        return HDRealization(MultiPoly(2, {(d, d): c for d, c in num.items()}), den.l_exp, den.factors)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        num, den = self.num_den()
        return _render_fraction(str(num), den.l_exp, den.factors, "L")

    def __repr__(self) -> str:
        return f"MotivicClass({self})"

    def to_json(self) -> dict:
        num, den = self.num_den()
        lo, hi = (0, 0) if num.is_zero else (num.min_deg, num.max_deg)
        coeffs = {"min_deg": lo, "coeffs": [num.coefficient(d) for d in range(lo, hi + 1)]}
        return {"num": coeffs, "den": {"l_exp": den.l_exp, "factors": list(den.factors)}}

    @classmethod
    def from_json(cls, data: dict) -> MotivicClass:
        lo, coeffs = _json_field(data, "num.min_deg"), _json_field(data, "num.coeffs", (list, tuple))
        if any(type(x) is not int for x in (lo, *coeffs)):
            raise DomainError("class JSON degrees and coefficients must be ints")
        num = IntLaurent({lo + i: c for i, c in enumerate(coeffs)})
        den = DenomForm(_json_field(data, "den.l_exp"), tuple(_json_field(data, "den.factors", (list, tuple))))
        return cls(num, den)


_ZERO = MotivicClass._raw(_ZERO_NUM, _NO_DEN)
_ONE = MotivicClass._raw(_ONE_NUM, _NO_DEN)


def _denominator(l_exp: int, cyc: Exponents) -> _CyclotomicDenom:
    return _CyclotomicDenom(l_exp, cyc) if l_exp or cyc else _NO_DEN


def _sorted_exponents(exps: dict[int, int]) -> Exponents:
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def _product_denominator(a: _CyclotomicDenom, b: _CyclotomicDenom) -> _CyclotomicDenom:
    exps = dict(a.exponents)
    for d, e in b.exponents:
        exps[d] = exps.get(d, 0) + e
    return _denominator(a.l_exp + b.l_exp, _sorted_exponents(exps))


@lru_cache(maxsize=CACHE_SIZE)
def _sum_plan(a: _CyclotomicDenom, b: _CyclotomicDenom) -> tuple:
    """How a/A + b/B is put over the exponent-wise max M of A and B: M, the
    complements M/A and M/B, and the d whose Phi_d can divide the sum.  Only
    a Phi_d with the same exponent on both sides can: on any other d, one
    term has it and the other, reduced, does not."""
    mine, theirs = dict(a.exponents), dict(b.exponents)
    top = {d: max(mine.get(d, 0), theirs.get(d, 0)) for d in mine.keys() | theirs.keys()}
    l_exp = max(a.l_exp, b.l_exp)

    def complement(den: _CyclotomicDenom, have: dict[int, int]) -> IntLaurent:
        rest = _sorted_exponents({d: e - have.get(d, 0) for d, e in top.items()})
        return cyclotomic_product(rest).shift(l_exp - den.l_exp)

    shared = frozenset(d for d, e in mine.items() if theirs.get(d) == e)
    return _denominator(l_exp, _sorted_exponents(top)), complement(a, mine), complement(b, theirs), shared


def _coerce(x) -> MotivicClass | None:
    if isinstance(x, MotivicClass):
        return x
    if isinstance(x, int):
        return MotivicClass(x)
    if isinstance(x, IntLaurent):
        return MotivicClass(x)
    return None


class HDRealization(namedtuple("HDRealization", "num l_exp factors")):
    """Image of a class under E: num(uv) / ((uv)^l_exp * prod((uv)^n - 1)),
    with num a MultiPoly in u, v and factors an ascending tuple of ints."""

    __slots__ = ()

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
    if any(type(x) is not int for x in args):
        raise DomainError(f"{name} needs int arguments")
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


#: The standard classes with n <= STANDARD_MEMO_MAX_N built so far, keyed by
#: their shapes from ``standard_forms``, which Gr(k, n) and Gr(n - k, n)
#: share.  The arguments bound the memo, so nothing is evicted: full, it holds
#: 97 classes with 2,277 numerator terms, about 0.12 MB under tracemalloc.
#: Larger classes are rebuilt on each call.
STANDARD_MEMO_MAX_N = 16
_STANDARD_CLASSES: dict[tuple[DenomForm, DenomForm], MotivicClass] = {}


def _standard_class(name: str, args: Sequence[int]) -> MotivicClass:
    """GL(n), BGL(n) or Gr(k, n), built on first use and kept for n <= 16."""
    shapes = standard_forms(name, args)
    cls = _STANDARD_CLASSES.get(shapes)
    if cls is None:
        top, bottom = shapes
        if top.is_trivial:  # BGL(n), kept with its denominator in factored shape
            cls = MotivicClass(_ONE_NUM, bottom)
        else:  # GL(n) and Gr(k, n) are polynomials
            cls = MotivicClass._raw(binomial_quotient(top.factors, bottom.factors).shift(top.l_exp), _NO_DEN)
        if args[-1] <= STANDARD_MEMO_MAX_N:
            _STANDARD_CLASSES[shapes] = cls
    return cls


def gl_class(n: int) -> MotivicClass:
    """[GL(n)] = prod_{j=0}^{n-1} (L^n - L^j) = L^{n(n-1)/2} prod_{i=1}^{n} (L^i - 1),
    a polynomial class, built by ``binomial_quotient`` on a dense coefficient
    list and kept for n <= 16."""
    return _standard_class("GL", (n,))


def bgl_class(n: int) -> MotivicClass:
    """[BGL(n)] = 1/[GL(n)], stored with the denominator in factored shape and
    kept for n <= 16."""
    return _standard_class("BGL", (n,))


def grassmannian_class(k: int, n: int) -> MotivicClass:
    """[Gr(k, n)], the Gaussian binomial (n choose k)_L =
    prod_{i=1}^{k} (L^{n-k+i} - 1) / (L^i - 1), a polynomial, built by
    ``binomial_quotient`` on the shorter of the two products of Gr(k, n) and
    Gr(n - k, n) and kept, once for both, for n <= 16."""
    return _standard_class("Gr", (k, n))
