"""Integer partitions in multiplicity form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Partition:
    """A partition of k as multiplicities (k_1, ..., k_s): k_j parts equal j.

    The tuple is trimmed, so k_s > 0 (the empty tuple is the partition of 0),
    and the weight is sum(j * k_j).
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        m = tuple(self.multiplicities)
        if any(x < 0 for x in m):
            raise DomainError("multiplicities must be nonnegative")
        if m and m[-1] == 0:
            raise DomainError("trailing zero multiplicity; trim the tuple")
        object.__setattr__(self, "multiplicities", m)

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
