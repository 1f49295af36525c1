"""Truncated formal power series T^0..T^N over an exact coefficient ring.

Series are eager tuples of coefficients, not lazy streams: every zeta and
power-structure computation here works to a fixed order, and eager tuples
keep equality, hashing of keys, and JSON forms trivial.  Binary operations
require the same coefficient ring and truncate to the smaller order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import DomainError
from .motivic import MotivicClass
from .multipoly import MultiPoly


@dataclass(frozen=True, eq=False)
class Ring:
    """Coefficient-ring descriptor: a name plus its zero and one elements.

    Coefficients must support +, -, * and == among themselves and have an
    ``is_zero`` property; that is all the series layer uses.  The power
    structure (``power``) also divides them by integers with
    ``divide_exact_int(d)``, which raises InternalConsistencyError when d
    does not divide exactly.
    """

    name: str
    zero: Any
    one: Any

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.name == other.name

    def is_member(self, x) -> bool:
        if type(x) is not type(self.zero):
            return False
        # polynomial coefficients must also match in their number of variables
        return getattr(x, "nvars", None) == getattr(self.zero, "nvars", None)


def motivic_ring() -> Ring:
    return Ring("motivic", MotivicClass.zero(), MotivicClass.one())

def hd_ring(nvars: int = 2) -> Ring:
    return Ring(f"int-poly-{nvars}", MultiPoly.zero(nvars), MultiPoly.one(nvars))


class TruncatedSeries:
    """Immutable series sum_{k=0}^{N} c_k T^k with exact coefficients."""

    __slots__ = ("_ring", "_coeffs")

    def __init__(self, ring: Ring, coeffs: Iterable[Any]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a truncated series needs at least the T^0 coefficient")
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, ring: Ring, value: Any, order: int) -> TruncatedSeries:
        return cls(ring, (value,) + (ring.zero,) * order)

    @classmethod
    def one(cls, ring: Ring, order: int) -> TruncatedSeries:
        return cls.constant(ring, ring.one, order)

    @classmethod
    def build(cls, ring: Ring, order: int, fn: Callable[[int], Any]) -> TruncatedSeries:
        return cls(ring, tuple(fn(k) for k in range(order + 1)))

    # -- inspection --------------------------------------------------------

    @property
    def ring(self) -> Ring:
        return self._ring

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, k: int) -> Any:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self._coeffs[k]

    def _check_ring(self, other: TruncatedSeries):
        if self._ring != other._ring:
            raise DomainError(f"coefficient-ring mismatch: {self._ring.name} vs {other._ring.name}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        return TruncatedSeries(self._ring, tuple(self._coeffs[k] + other._coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self._ring, tuple(-c for c in self._coeffs))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        zero = self._ring.zero
        out = []
        for k in range(n + 1):
            acc = zero
            for j in range(k + 1):
                cj = self._coeffs[j]
                if cj.is_zero:
                    continue
                dj = other._coeffs[k - j]
                if dj.is_zero:
                    continue
                acc = acc + cj * dj
            out.append(acc)
        return TruncatedSeries(self._ring, tuple(out))

    def __pow__(self, n: int) -> TruncatedSeries:
        if not isinstance(n, int):
            raise DomainError("series exponents must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out = TruncatedSeries.one(self._ring, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; requires constant term exactly one."""
        if not self._coeffs[0] == self._ring.one:
            raise DomainError("series inverse needs constant term 1")
        inv = [self._ring.one]
        for k in range(1, self.order + 1):
            acc = self._ring.zero
            for j in range(1, k + 1):
                cj = self._coeffs[j]
                if cj.is_zero or inv[k - j].is_zero:
                    continue
                acc = acc + cj * inv[k - j]
            inv.append(-acc)
        return TruncatedSeries(self._ring, tuple(inv))

    def scale_t(self, c: Any) -> TruncatedSeries:
        """Substitute T -> c*T: coefficient k becomes c^k * c_k."""
        if not self._ring.is_member(c):
            raise DomainError("scale factor must lie in the coefficient ring")
        out = []
        power = self._ring.one
        for k, ck in enumerate(self._coeffs):
            out.append(power * ck if k else ck)
            power = power * c
        return TruncatedSeries(self._ring, tuple(out))

    def substitute_tk(self, k: int) -> TruncatedSeries:
        """Substitute T -> T^k at the same truncation order."""
        if not isinstance(k, int) or k < 1:
            raise DomainError("T -> T^k substitution needs k >= 1")
        zero = self._ring.zero
        out = [zero] * (self.order + 1)
        for j, cj in enumerate(self._coeffs):
            if j * k > self.order:
                break
            out[j * k] = cj
        return TruncatedSeries(self._ring, tuple(out))

    def truncate(self, order: int) -> TruncatedSeries:
        if not 0 <= order <= self.order:
            raise DomainError(f"cannot truncate order-{self.order} series to order {order}")
        return TruncatedSeries(self._ring, self._coeffs[: order + 1])

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self._ring == other._ring
            and self.order == other.order
            and all(a == b for a, b in zip(self._coeffs, other._coeffs))
        )

    __hash__ = None

    def first_divergence(self, other: TruncatedSeries) -> int | None:
        """Smallest k (up to the common order) where coefficients differ."""
        self._check_ring(other)
        n = min(self.order, other.order)
        for k in range(n + 1):
            if not self._coeffs[k] == other._coeffs[k]:
                return k
        return None

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        zero = self._ring.zero
        pieces = []
        for k, c in enumerate(self._coeffs):
            if c == zero:
                continue
            if k == 0:
                pieces.append(str(c))
                continue
            t = "T" if k == 1 else f"T^{k}"
            pieces.append(t if c == self._ring.one else f"({c})*{t}")
        if not pieces:
            return "0"
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"TruncatedSeries[{self._ring.name}]({self})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [_coeff_json(c) for c in self._coeffs]}


def _coeff_json(c):
    if hasattr(c, "to_json"):
        return c.to_json()
    return c
