"""Set partitions of {1..L}: enumeration, canonical form, and display helpers.

A partition is stored as a restricted growth string: ``assignment[0] == 0``
and every later entry is at most ``1 + max(assignment[:i])``.  Cluster k of
the partition is the set of positions holding value k, so clusters are
automatically ordered by their smallest member.  Enumeration is lexicographic
in the growth string, which gives a total, scale-independent order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

#: Largest L enumerated by default; Bell(12) = 4,213,597 partitions is the
#: practical memory bound for exhaustive enumeration.
DEFAULT_MAX_L = 12


def bell_number(l: int) -> int:
    """Number of set partitions of an l-element set, by the Bell triangle.

    Parameters
    ----------
    l : int
        Set size, at least 1.

    Returns
    -------
    int
        The Bell number B(l).  Python integers are unbounded, so there is
        no overflow for any practical l.
    """
    if l < 1:
        raise DomainError(f"set size must be >= 1, got {l}")
    row = [1]
    for _ in range(l - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


@dataclass(frozen=True)
class Partition:
    """One set partition of {1..L} in canonical (restricted growth) form."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        a = self.assignment
        if not a:
            raise DomainError("empty assignment")
        if a[0] != 0:
            raise DomainError("restricted growth string must start at 0")
        mx = 0
        for x in a[1:]:
            if not 0 <= x <= mx + 1:
                raise DomainError(f"invalid restricted growth string {a}")
            mx = max(mx, x)

    @property
    def l(self) -> int:
        return len(self.assignment)

    @property
    def d(self) -> int:
        """Number of clusters."""
        return max(self.assignment) + 1

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Clusters as tuples of 0-based member indices, ordered by smallest member."""
        out: list[list[int]] = [[] for _ in range(self.d)]
        for i, c in enumerate(self.assignment):
            out[c].append(i)
        return tuple(tuple(c) for c in out)

    def notation(self) -> str:
        """Cluster-set display form with 1-based labels, e.g. ``{1,3}|{2}``."""
        return "|".join("{" + ",".join(str(i + 1) for i in c) + "}" for c in self.clusters)

    @classmethod
    def from_clusters(cls, clusters, l: int) -> "Partition":
        """Build the canonical partition holding the given clusters of {0..l-1}."""
        assign = [-1] * l
        ordered = sorted((min(c), tuple(sorted(c))) for c in clusters)
        for k, (_, members) in enumerate(ordered):
            for i in members:
                if not 0 <= i < l or assign[i] != -1:
                    raise DomainError("clusters must disjointly cover {0..l-1}")
                assign[i] = k
        if any(a == -1 for a in assign):
            raise DomainError("clusters must disjointly cover {0..l-1}")
        return cls(tuple(assign))


@dataclass(frozen=True)
class PartitionSpace:
    """All partitions of {1..L} in lexicographic restricted-growth order."""

    l: int
    partitions: tuple[Partition, ...]

    @property
    def g(self) -> int:
        """Total partition count; equals the Bell number B(L)."""
        return len(self.partitions)

    @cached_property
    def assignment_array(self) -> np.ndarray:
        """(G, L) int64 matrix of growth strings, for the numeric kernels."""
        return np.array([p.assignment for p in self.partitions], dtype=np.int64)

    @cached_property
    def d_array(self) -> np.ndarray:
        """(G,) cluster counts."""
        return self.assignment_array.max(axis=1) + 1

    @cached_property
    def cluster_masks(self) -> np.ndarray:
        """(G, L) subset bitmask of cluster k of each partition, 0 past the last.

        Bit i is set when source i is a member; these index the rows of
        ``kernels.SubsetTable``.
        """
        assign = self.assignment_array
        out = np.zeros(assign.shape, dtype=np.int64)
        rows = np.arange(assign.shape[0])
        for i in range(self.l):
            out[rows, assign[:, i]] |= 1 << i
        return out

    @cached_property
    def member_masks(self) -> np.ndarray:
        """(G, L) subset bitmask of the cluster holding source i in each partition."""
        return np.take_along_axis(self.cluster_masks, self.assignment_array, axis=1)

    def index_of(self, p: Partition) -> int:
        return self.partitions.index(p)


def _growth_strings(l: int):
    """Yield all restricted growth strings of length l, lexicographically."""
    a = [0] * l
    mx = [0] * l  # mx[i] = max(a[:i+1])
    while True:
        yield tuple(a)
        # advance to the lexicographic successor
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


def enumerate_partitions(l: int, max_l: int = DEFAULT_MAX_L) -> PartitionSpace:
    """Enumerate every set partition of {1..l}.

    Parameters
    ----------
    l : int
        Number of elements, 1 <= l <= max_l.
    max_l : int
        Enumeration bound; raise above the default (12) only if the
        Bell-number memory cost is acceptable.

    Returns
    -------
    PartitionSpace
        All B(l) partitions in lexicographic restricted-growth order.
        Pure function of ``l``: repeated calls give identical output.
    """
    if l < 1 or l > max_l:
        raise DomainError(
            f"source count must satisfy 1 <= L <= {max_l} "
            f"(Bell({max_l}) = {bell_number(max_l)} partitions is the enumeration bound); got {l}"
        )
    parts = tuple(Partition(a) for a in _growth_strings(l))
    return PartitionSpace(l=l, partitions=parts)


# Conventional 1..5 numbering used in three-source reports.  Keys are growth
# strings in canonical order; values follow the customary listing
# {(123)}, {(13),(2)}, {(12),(3)}, {(23),(1)}, {(1),(2),(3)}.
_L3_LABELS = {
    (0, 0, 0): 1,
    (0, 1, 0): 2,
    (0, 0, 1): 3,
    (0, 1, 1): 4,
    (0, 1, 2): 5,
}


def display_label_l3(p: Partition) -> int:
    """Conventional 1..5 label for a partition of three sources.

    Only defined for L = 3; reports at other sizes key partitions by
    cluster-set notation instead.
    """
    if p.l != 3:
        raise DomainError(f"display labels are defined only for L=3, got L={p.l}")
    return _L3_LABELS[p.assignment]
