"""Truncated formal power series T^0..T^N over an exact coefficient ring.

Series are eager tuples of coefficients, not lazy streams: every zeta and
power-structure computation here works to a fixed order, and eager tuples
keep equality, hashing of keys, and JSON forms trivial.  Binary operations
require the same coefficient ring and truncate to the smaller order.

This module owns the triangular recurrences (product, inverse and the ghost
transforms of T d/dT log), all one zero-skipping fold, and knows coefficients
only through the ``Ring`` protocol: ``zeta`` and ``hodge`` build the rings.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Sequence

from ._frozen import Frozen
from .errors import DomainError


class Ring(Frozen):
    """Coefficient-ring descriptor: a name plus its zero and one elements.

    Coefficients must support +, -, * and == among themselves, be
    multiplied by ints, and have an ``is_zero`` property.  The ghost
    transform ``TruncatedSeries.from_ghosts`` also divides them by integers
    with ``divide_exact_int(d)``, which raises InternalConsistencyError when
    d does not divide exactly.  Rings are equal by name and unhashable.
    """

    __slots__ = _fields = ("name", "zero", "one")

    def __init__(self, name: str, zero: Any, one: Any):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.name == other.name

    def is_member(self, x) -> bool:
        if type(x) is not type(self.zero):
            return False
        # polynomial coefficients must also match in their number of variables
        return getattr(x, "nvars", None) == getattr(self.zero, "nvars", None)


def _fold(acc, xs, ys, lo, hi, top, op=operator.add):
    """acc op xs[j] * ys[top - j] for j = lo, ..., hi in turn, skipping pairs with
    a zero factor; normalize() is not canonical, so the order fixes the shapes."""
    for j in range(lo, hi + 1):
        x, y = xs[j], ys[top - j]
        if not (x.is_zero or y.is_zero):
            acc = op(acc, x * y)
    return acc


class TruncatedSeries(Frozen):
    """The series sum_{k=0}^{N} c_k T^k with exact coefficients."""

    __slots__ = _fields = ("_ring", "_coeffs")

    def __init__(self, ring: Ring, coeffs: Iterable[Any]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a truncated series needs at least the T^0 coefficient")
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

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

    @classmethod
    def from_ghosts(cls, ring: Ring, ghosts: Sequence[Any]) -> TruncatedSeries:
        """The series 1 + c_1 T + ... + c_N T^N whose ghost components are
        ghosts[1..N] (ghosts[0] is ignored): n c_n = sum_{j=1..n} g_j c_{n-j}."""
        coeffs = [ring.one]
        for n in range(1, len(ghosts)):
            coeffs.append(_fold(ring.zero, ghosts, coeffs, 1, n, n).divide_exact_int(n))
        return cls(ring, coeffs)

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
        a, b, zero = self._coeffs, other._coeffs, self._ring.zero
        n = min(self.order, other.order)
        return TruncatedSeries(self._ring, tuple(_fold(zero, a, b, 0, k, k) for k in range(n + 1)))

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
            inv.append(-_fold(self._ring.zero, self._coeffs, inv, 1, k, k))
        return TruncatedSeries(self._ring, tuple(inv))

    def ghosts(self) -> tuple:
        """Ghost components (0, g_1, ..., g_N): the coefficients of
        T d/dT log of this series, which needs constant term exactly one.
        g_n = n a_n - sum_{j=1..n-1} g_j a_{n-j}."""
        a = self._coeffs
        if not a[0] == self._ring.one:
            raise DomainError("ghost components need constant term 1")
        g = [self._ring.zero]
        for n in range(1, len(a)):
            g.append(_fold(n * a[n], g, a, 1, n - 1, n, operator.sub))
        return tuple(g)

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
        same_shape = self._ring == other._ring and self.order == other.order
        return same_shape and self.first_divergence(other) is None

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
