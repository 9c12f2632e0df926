import math

import numpy as np
import pytest

from uncpool import (DomainError, Partition, PartitionSpace, bell_number, display_label_l3,
                     enumerate_partitions)
from uncpool.partitions import growth_codes, growth_labels, member_masks


def bell_oracle(n: int) -> int:
    """Independent Bell numbers via B(n+1) = sum C(n,k) B(k)."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def growth_strings(l: int):
    """Independent enumeration: yield restricted growth strings by lexicographic successor."""
    a = [0] * l
    mx = [0] * l  # mx[i] = max(a[:i+1])
    while True:
        yield tuple(a)
        i = l - 1
        while i > 0 and a[i] == mx[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        mx[i] = max(mx[i - 1], a[i])
        for j in range(i + 1, l):
            a[j] = 0
            mx[j] = mx[i]


@pytest.mark.parametrize("l,expected", [(1, 1), (3, 5), (11, 678570)])
def test_bell_number_examples(l, expected):
    assert bell_number(l) == expected


def test_bell_number_matches_oracle():
    for l in range(1, 15):
        assert bell_number(l) == bell_oracle(l)


def test_bell_number_rejects_zero():
    with pytest.raises(DomainError):
        bell_number(0)


@pytest.mark.parametrize("l", range(1, 11))
def test_enumeration_count_matches_bell(l):
    assert enumerate_partitions(l).g == bell_oracle(l)


def test_l3_contains_the_five_partitions():
    space = enumerate_partitions(3)
    notations = [p.notation() for p in space.partitions]
    assert notations == ["{1,2,3}", "{1,2}|{3}", "{1,3}|{2}", "{1}|{2,3}", "{1}|{2}|{3}"]


def test_l1_single_partition():
    space = enumerate_partitions(1)
    assert space.g == 1
    assert space.partitions[0].d == 1
    assert space.partitions[0].clusters == ((0,),)


def test_l11_count():
    assert enumerate_partitions(11).g == 678570


def test_enumeration_is_lexicographic_and_pure():
    a = enumerate_partitions(5)
    b = enumerate_partitions(5)
    assignments = [p.assignment for p in a.partitions]
    assert assignments == sorted(assignments)
    assert assignments == [p.assignment for p in b.partitions]
    assert len(set(assignments)) == a.g


@pytest.mark.parametrize("l", [2, 4, 6])
def test_clusters_roundtrip(l):
    for p in enumerate_partitions(l).partitions:
        rebuilt = Partition.from_clusters(p.clusters, l)
        assert rebuilt.assignment == p.assignment
        # clusters are disjoint, nonempty, cover everything, canonically ordered
        members = [i for c in p.clusters for i in c]
        assert sorted(members) == list(range(l))
        assert all(c for c in p.clusters)
        assert [min(c) for c in p.clusters] == sorted(min(c) for c in p.clusters)
        assert 1 <= p.d <= l


@pytest.mark.parametrize("l", [0, 13])
def test_enumeration_bounds(l):
    with pytest.raises(DomainError, match="Bell"):
        enumerate_partitions(l)
    with pytest.raises(DomainError, match="Bell"):
        PartitionSpace(l)


def test_invalid_growth_strings_rejected():
    with pytest.raises(DomainError):
        Partition((1, 0))
    with pytest.raises(DomainError):
        Partition((0, 2))
    with pytest.raises(DomainError):
        Partition(())
    for clusters in ([(0, 1), (1, 2)], [(0,), (2,)]):   # overlapping; missing source 1
        with pytest.raises(DomainError, match="disjointly cover"):
            Partition.from_clusters(clusters, 3)


def test_display_labels_l3():
    space = enumerate_partitions(3)
    by_notation = {p.notation(): p for p in space.partitions}
    assert display_label_l3(by_notation["{1,2,3}"]) == 1
    assert display_label_l3(by_notation["{1,3}|{2}"]) == 2
    assert display_label_l3(by_notation["{1,2}|{3}"]) == 3
    assert display_label_l3(by_notation["{1}|{2,3}"]) == 4
    assert display_label_l3(by_notation["{1}|{2}|{3}"]) == 5
    assert sorted(display_label_l3(p) for p in space.partitions) == [1, 2, 3, 4, 5]


def test_display_labels_require_l3():
    with pytest.raises(DomainError):
        display_label_l3(Partition((0, 1)))


@pytest.mark.parametrize("l", range(1, 10))
def test_array_matches_growth_string_oracle(l):
    space = enumerate_partitions(l)
    a = space.assignment_array
    assert a.dtype == np.int64 and a.shape == (bell_oracle(l), l)
    assert a.tolist() == [list(t) for t in growth_strings(l)]
    assert not a.flags.writeable


@pytest.mark.parametrize("l", [1, 2, 4, 7])
def test_masks_and_counts_match_partition_objects(l):
    space = enumerate_partitions(l)
    parts = [Partition(t) for t in growth_strings(l)]
    cluster = [[sum(1 << i for i in c) for c in p.clusters] + [0] * (l - p.d) for p in parts]
    member = [[cluster[g][k] for k in p.assignment] for g, p in enumerate(parts)]
    assert space.cluster_masks.tolist() == cluster
    assert member_masks(space.assignment_array).tolist() == member
    assert space.d_array.tolist() == [p.d for p in parts]


def test_partitions_behave_like_the_tuple():
    space = enumerate_partitions(4)
    parts = tuple(Partition(t) for t in growth_strings(4))
    seq = space.partitions
    assert len(seq) == space.g == 15
    assert tuple(seq) == parts
    assert seq[0] == parts[0] and seq[-1] == parts[-1] and seq[7] == parts[7]
    assert seq[np.int64(3)] == parts[3]
    assert seq[2:9:3] == parts[2:9:3] and seq[::-1] == parts[::-1] and seq[20:] == ()
    with pytest.raises(IndexError):
        seq[15]
    for g, p in enumerate(parts):
        assert seq.index(p) == g and p in seq
    with pytest.raises(ValueError):
        seq.index(Partition((0, 1)))
    assert Partition((0, 1, 2)) not in seq and (0, 0, 0, 0) not in seq
    assert list(zip(seq, range(2))) == [(parts[0], 0), (parts[1], 1)]


def test_spaces_compare_by_their_partitions():
    assert enumerate_partitions(3) == enumerate_partitions(3)
    assert enumerate_partitions(3) != enumerate_partitions(4)
    assert hash(enumerate_partitions(3)) == hash(enumerate_partitions(3))
    assert PartitionSpace(3) == enumerate_partitions(3)


@pytest.mark.parametrize("l", [2, 3, 6])
def test_growth_codes_follow_enumeration_order(l):
    space = enumerate_partitions(l)
    codes = growth_codes(space.assignment_array)
    assert np.all(np.diff(codes) > 0)
    picks = np.random.default_rng(l).integers(0, space.g, size=50)
    assert np.array_equal(space.index_of_codes(codes[picks]), picks)
    assert np.array_equal(growth_labels(codes, l), space.assignment_array)
    not_growth = growth_codes(np.array([[0, 2] + [0] * (l - 2)]))   # skips label 1
    with pytest.raises(DomainError, match="not in the partition space"):
        space.index_of_codes(not_growth)
