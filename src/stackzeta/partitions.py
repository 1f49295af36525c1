"""Integer partitions in multiplicity form."""

from __future__ import annotations

from .errors import DomainError


class Partition:
    """A partition of k as multiplicities (k_1, ..., k_s): k_j parts equal j.

    The tuple is trimmed, so k_s > 0 (the empty tuple is the partition of 0),
    and the weight is sum(j * k_j).  Partitions are immutable and hashable,
    equal when their multiplicities are.
    """

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: tuple[int, ...]):
        m = tuple(multiplicities)
        if any(x < 0 for x in m):
            raise DomainError("multiplicities must be nonnegative")
        if m and m[-1] == 0:
            raise DomainError("trailing zero multiplicity; trim the tuple")
        object.__setattr__(self, "multiplicities", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return Partition, (self.multiplicities,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash((self.multiplicities,))

    def __repr__(self) -> str:
        return f"Partition(multiplicities={self.multiplicities!r})"

    @property
    def weight(self) -> int:
        return sum(j * kj for j, kj in enumerate(self.multiplicities, start=1))

    @property
    def largest_part(self) -> int:
        return len(self.multiplicities)

    def nonzero_blocks(self) -> tuple[tuple[int, int], ...]:
        """Pairs (j, k_j) for the part sizes that actually occur, ascending j."""
        return tuple((j, kj) for j, kj in enumerate(self.multiplicities, start=1) if kj)

    def __str__(self) -> str:
        parts = []
        for j, kj in reversed(self.nonzero_blocks()):
            parts.extend([str(j)] * kj)
        return "(" + " ".join(parts) + ")" if parts else "()"


def _part_lists(k: int, max_part: int):
    # nonincreasing part tuples, largest first
    if k == 0:
        yield ()
        return
    for p in range(min(k, max_part), 0, -1):
        for rest in _part_lists(k - p, p):
            yield (p,) + rest


def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, deterministic order (largest part descending)."""
    if k < 0:
        raise DomainError("partitions are defined for k >= 0")
    out = []
    for parts in _part_lists(k, k):
        s = parts[0] if parts else 0
        mult = [0] * s
        for p in parts:
            mult[p - 1] += 1
        out.append(Partition(tuple(mult)))
    return tuple(out)
