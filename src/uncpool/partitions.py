"""Set partitions of {1..L}: enumeration, canonical form, and display helpers.

A partition is stored as a restricted growth string: ``assignment[0] == 0``
and every later entry is at most ``1 + max(assignment[:i])``.  Cluster k of
the partition is the set of positions holding value k, so clusters are
automatically ordered by their smallest member.  Enumeration is lexicographic
in the growth string, which gives a total, scale-independent order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

#: Largest L enumerated; Bell(12) = 4,213,597 partitions is the practical
#: memory bound for exhaustive enumeration.
MAX_L = 12


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


class _PartitionSequence(Sequence):
    """Read-only sequence of partitions over a (G, L) array of growth strings.

    Behaves like a tuple of :class:`Partition` (indexing, slices, iteration)
    but builds each ``Partition`` only when it is asked for.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return Partition(tuple(self.array[i].tolist()))

    def __iter__(self):
        return (Partition(tuple(a)) for a in self.array.tolist())

    def __repr__(self) -> str:
        return f"<{len(self)} partitions of {self.array.shape[1]}>"


@dataclass(frozen=True)
class PartitionSpace:
    """All B(L) partitions of {1..L}, in lexicographic restricted-growth order.

    The space is always the full enumeration, so it is fixed by ``l``
    alone: spaces compare and hash by ``l``.  The (G, L) growth-string
    array is built on first read; ``partitions`` reads it as a sequence
    of :class:`Partition` and the numeric kernels read it directly.
    """

    l: int

    def __post_init__(self):
        if not 1 <= self.l <= MAX_L:
            raise DomainError(
                f"source count must satisfy 1 <= L <= {MAX_L} (Bell({MAX_L}) = "
                f"{bell_number(MAX_L)} partitions is the enumeration bound); got {self.l}"
            )

    @property
    def g(self) -> int:
        """Total partition count, the Bell number B(L)."""
        return bell_number(self.l)

    @cached_property
    def assignment_array(self) -> np.ndarray:
        """(G, L) int64 matrix of growth strings, for the numeric kernels (read-only)."""
        return _growth_string_array(self.l)

    @cached_property
    def partitions(self) -> Sequence[Partition]:
        """The partitions in enumeration order, built from the array on demand."""
        return _PartitionSequence(self.assignment_array)

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
    def _codes(self) -> np.ndarray:
        """(G,) growth-string codes of the partitions, ascending with the enumeration."""
        return growth_codes(self.assignment_array)

    def index_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Index in this space of the partition behind each growth-string code.

        ``codes`` come from :func:`growth_codes`; a code that is not of a
        growth string of length L raises ``DomainError``.
        """
        known = self._codes
        pos = np.minimum(np.searchsorted(known, codes), known.shape[0] - 1)
        if not np.array_equal(known[pos], codes):
            raise DomainError("a partition is not in the partition space")
        return pos


def growth_codes(assignments: np.ndarray) -> np.ndarray:
    """(n,) integer code of each row of an (n, L) array of cluster labels.

    A row is read as the base-L digits of its code, so codes of growth
    strings sort in enumeration (lexicographic) order.  Exact up to L = 15,
    where L^L still fits in int64.
    """
    l = assignments.shape[-1]
    return assignments @ (l ** np.arange(l - 1, -1, -1, dtype=np.int64))


def growth_labels(codes: np.ndarray, l: int) -> np.ndarray:
    """(n, L) cluster labels behind (n,) codes of length-L rows: :func:`growth_codes` undone."""
    labels = np.empty((codes.shape[0], l), dtype=np.int64)
    for k in range(l - 1, -1, -1):     # a scalar divisor: 3x faster than one broadcast
        codes, labels[:, k] = np.divmod(codes, l)
    return labels


def member_masks(labels: np.ndarray) -> np.ndarray:
    """(..., L) subset bitmask of the cluster holding source i, for (..., L) cluster labels."""
    masks = np.zeros(labels.shape, dtype=np.int64)
    for k in range(labels.shape[-1]):  # bit k: source k shares source i's label
        masks |= (labels == labels[..., k, None]) << k
    return masks


@lru_cache(maxsize=None)
def _subset_names(l: int) -> tuple[str, ...]:
    """(2^L,) the ``{1,3}`` display form of every subset bitmask of L sources."""
    return tuple("{" + ",".join(str(i + 1) for i in range(l) if s >> i & 1) + "}"
                 for s in range(1 << l))


#: Rows :func:`notations` takes at once, so that its (n, L) masks stay small.
_NAME_ROWS = 1 << 14


def notations(labels: np.ndarray) -> list[str]:
    """The :meth:`Partition.notation` of each row of an (n, L) array of growth strings.

    Joins the cached names of each row's cluster bitmasks in order of first
    appearance, which for a growth string is the order of the clusters'
    smallest members; no ``Partition`` is built.  Rows are named
    ``_NAME_ROWS`` at a time.
    """
    name = _subset_names(labels.shape[1]).__getitem__
    return ["|".join(map(name, dict.fromkeys(row)))
            for c0 in range(0, labels.shape[0], _NAME_ROWS)
            for row in member_masks(labels[c0:c0 + _NAME_ROWS]).tolist()]


def _growth_string_array(l: int) -> np.ndarray:
    """(B(l), l) array of all restricted growth strings of length l, lexicographically.

    A string whose largest value is m has the children that append 0..m+1
    (Knuth, TAOCP 4A, 7.2.1.5, Algorithm H).  Each step repeats every parent
    row once per child and numbers the children within each group, so
    parents in lexicographic order with ascending children stay in order.
    Only the per-step parent links and new columns are kept; the full rows
    are gathered once at the end.
    """
    links = []                                   # (parent row, new value) per step
    top = np.zeros(1, dtype=np.int64)            # largest value of each string
    for _ in range(1, l):
        fanout = top + 2
        parent = np.repeat(np.arange(top.shape[0]), fanout)
        value = np.arange(parent.shape[0]) - np.repeat(np.cumsum(fanout) - fanout, fanout)
        links.append((parent, value))
        top = np.maximum(top[parent], value)
    out = np.zeros((top.shape[0], l), dtype=np.int64)
    row = np.arange(top.shape[0])
    for i in range(l - 1, 0, -1):
        parent, value = links[i - 1]
        out[:, i] = value[row]
        row = parent[row]
    out.flags.writeable = False
    return out


def enumerate_partitions(l: int) -> PartitionSpace:
    """Every set partition of {1..l}, 1 <= l <= MAX_L, as a :class:`PartitionSpace`.

    The B(l) partitions come in lexicographic restricted-growth order, held
    as one growth-string array; ``Partition`` objects are built only when
    ``space.partitions`` is indexed or iterated.  Pure function of ``l``:
    repeated calls give identical output.
    """
    return PartitionSpace(l)


#: Conventional 1..5 numbering used in three-source reports.  Keys are growth
#: strings in canonical order; values follow the customary listing
#: {(123)}, {(13),(2)}, {(12),(3)}, {(23),(1)}, {(1),(2),(3)}.
L3_LABELS = {
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
    return L3_LABELS[p.assignment]
