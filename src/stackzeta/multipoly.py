"""Sparse integer polynomials: the term-map kernel and multivariate polynomials.

``_TermPoly`` is the kernel shared with ``laurent.IntLaurent``: a polynomial
is a sparse dict from a monomial key to a nonzero int coefficient, and every
operation that never looks inside a key (size, accumulating terms, addition,
negation, subtraction, scaling by an int, powers, exact division by an int,
rendering) is written once there.  ``MultiPoly`` keys the map by exponent tuples; it holds
Hodge-Deligne polynomials in u, v (two variables) and the truncated
expansions of the distinct-exponent generating functions in q_1..q_k.
"""

from __future__ import annotations

from itertools import chain
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping

from ._frozen import Frozen, power_by_squaring
from .errors import DomainError, InternalConsistencyError

Exponents = tuple[int, ...]

#: The one type a degree or an exponent may have (``bool`` is not an integer here).
_INT = {int}


def _json_field(data, path: str, kinds: type | tuple[type, ...] = object):
    """The field at a dotted path of a JSON document, of one of kinds, else DomainError."""
    for key in path.split("."):
        data = data.get(key, ...) if isinstance(data, dict) else ...
    if data is ... or not isinstance(data, kinds):
        raise DomainError(f"JSON field {path} is missing or malformed")
    return data


def _names(nvars: int) -> tuple[str, ...]:
    if nvars == 2:
        return ("u", "v")
    return tuple(f"q{i + 1}" for i in range(nvars))


class _TermPoly(Frozen):
    """Sparse map from a monomial key to a nonzero int coefficient.

    The zero polynomial is the empty map.  A subclass supplies three hooks:
    ``_coerce`` (an operand in the subclass's ring, or None), ``_new`` (the
    result built from a zero-free dict, adopted as is) and ``_monomial``
    (the text of a key, empty for the unit monomial).
    """

    __slots__ = ("_terms",)
    _fields = ("_terms",)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @classmethod
    def _pairs(cls, terms: Mapping | Iterable[tuple]) -> Iterable[tuple]:
        # a dict is tested first: the Mapping check alone is an ABC lookup per call
        mapped = isinstance(terms, dict) or isinstance(terms, Mapping)
        pairs = terms.items() if mapped else list(terms)
        if not set(map(type, terms.values() if mapped else map(itemgetter(1), pairs))) <= _INT:
            raise DomainError(f"{cls.__name__} coefficients must be ints")
        return pairs

    @staticmethod
    def _accumulate(out: dict, pairs: Iterable[tuple]) -> dict:
        """Add (key, coefficient) pairs into the zero-free dict out, in place."""
        for key, coeff in pairs:
            out[key] = out.get(key, 0) + coeff
            if not out[key]:
                del out[key]
        return out

    def __add__(self, other) -> _TermPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(self._accumulate(dict(self._terms), o._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> _TermPoly:
        return self._new({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> _TermPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> _TermPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __pow__(self, n: int) -> _TermPoly:
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"{type(self).__name__} exponents must be nonnegative integers")
        if n == 0:
            return self._coerce(1)
        return power_by_squaring(self, n)

    def _scale(self, k: int) -> _TermPoly:
        """self * k for an int k, without building k as a polynomial."""
        return self._new({key: k * c for key, c in self._terms.items()} if k else {})

    def divide_exact_int(self, d: int) -> _TermPoly:
        """self/d for an integer d that must divide every coefficient.

        Failure means an identity that guarantees exactness was violated, so it
        raises InternalConsistencyError rather than DomainError.
        """
        if d == 0:
            raise DomainError("division by zero")
        if d == 1:
            return self
        if any(c % d for c in self._terms.values()):
            raise InternalConsistencyError(f"inexact integer division of {self} by {d}")
        return self._new({k: c // d for k, c in self._terms.items()})

    def __str__(self) -> str:
        pieces: list[str] = []
        for key, coeff in sorted(self._terms.items(), reverse=True):
            stem, mag = self._monomial(key), abs(coeff)
            body = (stem if mag == 1 else f"{mag}*{stem}") if stem else str(mag)
            if pieces:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
            else:
                pieces.append(body if coeff > 0 else f"-{body}")
        return " ".join(pieces) or "0"


class MultiPoly(_TermPoly):
    """Sparse polynomial in a fixed number of variables."""

    __slots__ = ("_nvars",)
    _fields = ("_nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = ()):
        if nvars < 1:
            raise DomainError("MultiPoly needs at least one variable")
        pairs = [(tuple(exps), coeff) for exps, coeff in self._pairs(terms)]
        if not set(map(type, chain.from_iterable(map(itemgetter(0), pairs)))) <= _INT:
            raise DomainError("MultiPoly exponents must be ints")
        for exps, _ in pairs:
            if len(exps) != nvars or min(exps) < 0:
                raise DomainError(f"bad exponent tuple {exps!r} for {nvars} variables")
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", self._accumulate({}, pairs))

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, int]) -> MultiPoly:
        # internal: exponent tuples must already be valid and coefficients
        # nonzero; the dict is adopted as is
        obj = object.__new__(cls)
        object.__setattr__(obj, "_nvars", nvars)
        object.__setattr__(obj, "_terms", terms)
        return obj

    def _new(self, terms: dict[Exponents, int]) -> MultiPoly:
        return MultiPoly._raw(self._nvars, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> MultiPoly:
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> MultiPoly:
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, c: int) -> MultiPoly:
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MultiPoly:
        if not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> MultiPoly:
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def items(self) -> Iterator[tuple[Exponents, int]]:
        """Terms as (exponents, coefficient), descending lexicographic."""
        return iter(sorted(self._terms.items(), reverse=True))

    def total_degree(self) -> int:
        if not self._terms:
            raise DomainError("the zero polynomial has no degree")
        return max(sum(e) for e in self._terms)

    def top_part(self) -> MultiPoly:
        """Homogeneous part of highest total degree."""
        d = self.total_degree()
        return MultiPoly._raw(self._nvars, {e: c for e, c in self._terms.items() if sum(e) == d})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            if other._nvars != self._nvars:
                raise DomainError("variable-count mismatch")
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self._nvars, other)
        return None

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, int):
            return self._scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Exponents, int] = {}
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = tuple(map(add, e1, e2))
                v = get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return MultiPoly._raw(self._nvars, out)

    __rmul__ = __mul__

    def adams(self, r: int) -> MultiPoly:
        """The Adams operation psi^r: P(x_1^r, ..., x_n^r), for r >= 1."""
        if r < 1:
            raise DomainError("Adams operations psi^r need r >= 1")
        if r == 1:
            return self
        return MultiPoly._raw(self._nvars, {tuple(e * r for e in exps): c for exps, c in self._terms.items()})

    def as_int(self) -> int | None:
        """The int this polynomial equals, or None when it is not a constant."""
        terms = self._terms
        if len(terms) > 1:
            return None
        return terms.get((0,) * self._nvars) if terms else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.as_int() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        c = self.as_int()
        if c is not None:
            return hash(c)
        return hash((self._nvars, tuple(sorted(self._terms.items()))))

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _monomial(exps: Exponents) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(_names(len(exps)), exps) if e)

    def __repr__(self) -> str:
        return f"MultiPoly({self._nvars}, {self})"

    def to_json(self) -> dict:
        return {
            "nvars": self._nvars,
            "terms": [[list(e), c] for e, c in sorted(self._terms.items(), reverse=True)],
        }

    @classmethod
    def from_json(cls, data: dict) -> MultiPoly:
        nvars, terms = _json_field(data, "nvars"), _json_field(data, "terms", (list, tuple))
        if not all(isinstance(t, (list, tuple)) and len(t) == 2 and isinstance(t[0], (list, tuple)) for t in terms):
            raise DomainError("polynomial JSON terms must be [exponents, coefficient] pairs")
        if type(nvars) is not int or any(type(x) is not int for e, c in terms for x in (*e, c)):
            raise DomainError("polynomial JSON exponents and coefficients must be ints")
        return cls(nvars, {tuple(e): c for e, c in terms})
