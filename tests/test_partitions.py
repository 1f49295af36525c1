"""Integer partitions stored by part multiplicities."""

import pytest

from stackzeta import DomainError, Partition, partitions_of

# number of partitions of 0..8
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_counts_match_the_partition_numbers():
    for k, expected in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(k)) == expected


def test_every_partition_has_the_right_weight():
    for k in range(9):
        for p in partitions_of(k):
            assert sum(j * m for j, m in p.nonzero_blocks()) == k


def test_enumeration_is_largest_part_descending():
    parts = partitions_of(4)
    assert [str(p) for p in parts] == ["(4)", "(3 1)", "(2 2)", "(2 1 1)", "(1 1 1 1)"]
    largest = [len(p.multiplicities) for p in parts]
    assert largest == sorted(largest, reverse=True)


def test_enumeration_is_deterministic():
    assert partitions_of(6) == partitions_of(6)


def test_multiplicity_validation():
    with pytest.raises(DomainError):
        Partition((2, 1, 0))
    with pytest.raises(DomainError):
        Partition((-1,))
    with pytest.raises(DomainError):
        partitions_of(-1)


def test_block_structure():
    p = Partition((2, 1))
    assert len(p.multiplicities) == 2
    assert p.nonzero_blocks() == ((1, 2), (2, 1))
    assert str(p) == "(2 1 1)"


def test_empty_partition():
    p = Partition(())
    assert len(p.multiplicities) == 0
    assert p.nonzero_blocks() == ()
    assert str(p) == "()"
    assert partitions_of(0) == (p,)


def test_blocks_skip_zero_multiplicities():
    p = Partition((0, 0, 2))
    assert p.nonzero_blocks() == ((3, 2),)


@pytest.mark.parametrize("multiplicities", [(1.5,), (1, True), (2.0,)])
def test_multiplicities_must_be_ints(multiplicities):
    with pytest.raises(DomainError, match="multiplicities must be ints"):
        Partition(multiplicities)
