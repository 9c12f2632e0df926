"""The per-subset engine, erfc and normal-mixture quantiles.

Everything a partition contributes at a grid point depends only on sums over
its clusters.  With w_i = 1/(delta2 + V_i), cluster S has precision
A_S = sum w_i, precision-weighted mean ybar_S = B_S / A_S and within-cluster
misfit

    q_S = sum_{i in S} w_i * (y_i - ybar_S)^2 = C_S - B_S^2 / A_S

where B_S and C_S are the cluster sums of w_i*y_i and w_i*y_i^2.
:func:`subset_table` computes (A_S, ybar_S, q_S) once for every subset of
the sources on the whole grid.  The partition misfit, the mixture moments,
the posterior draws, complete pooling and the exact DPM oracle all read that
one table; ``model.py`` keeps the scalar per-cluster formulas as the
reference.

The table's work splits in two.  w, A_S, 1/A_S, 1 - lam_i and
delta2 (1 - lam_i), with the shrinkage factor lam_i = delta2/(delta2 + V_i),
and the CDF component SDs depend on V and the grid alone:
:func:`variance_terms` builds them once per (V, grid), keeps a few such
sets in a cache and hands out read-only arrays, so the replicates of a
simulation, which share V, build them once.  B_S, C_S, ybar_S and q_S
depend on the estimates, and :func:`subset_table` can write them into
arrays the caller gives it.

C - B^2/A cancels catastrophically when the estimates share a large offset,
so y is first centred on its precision-weighted mean (Chan, Golub & LeVeque
1983, "Algorithms for computing the sample variance").  :func:`centre` is
the one place that shift is computed.  The table stores ``ybar`` centred
and records the offset as ``shift``; ``baselines`` forms the DPM's
hyperpriors, quadrature box and chain about the same shift.

The model's weight of a (partition, grid point) pair is a per-point factor
times a product over the partition's clusters of phi(S) = exp(-q_S/2 - 1/2)
(a product partition model: Hartigan 1990, "Partition models", Comm.
Statist. 19).  So every sum over partitions is a recursion over subsets,
:func:`partition_sums`, which visits each split of a subset into a block and
a rest once: (3^L - 1)/2 splits per grid point instead of Bell(L)
partitions.  :func:`subset_splits` lists those splits once per L.  The DPM
at fixed base parameters is a product partition model too, whose block
scores span more than a double's range; :func:`log_partition_sums` runs the
same recursion in log space for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ComputationError
from .model import log_inv_beta_prior


@dataclass(frozen=True)
class SubsetTable:
    """(A_S, ybar_S, q_S) for every subset S of the L sources at each grid point.

    Rows are indexed by the subset's bitmask, bit i set when source i is a
    member.  Row 0, the empty set, is all zeros; it pads the cluster lists
    of partitions with fewer than L clusters.  ``terms`` are the V-only
    arrays the table was built on, so its readers need not look them up.
    """

    terms: VarianceTerms
    shift: float         # precision-weighted mean of y, removed before summing
    ybar: np.ndarray     # (2^L, R) ybar_S - shift
    q: np.ndarray        # (2^L, R) q_S


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _subset_sums(per_source: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill row S of ``out`` (..., 2^L, R) with the sum over i in S of ``per_source`` (..., L, R).

    The subsets holding source i as their highest member are the subsets of
    sources 0..i-1 with i added, so one block addition per source builds
    all 2^L rows; row 0, the empty set, is 0.  Returns ``out``.
    """
    out[..., 0, :] = 0.0
    for i in range(per_source.shape[-2]):
        lo = 1 << i
        np.add(out[..., :lo, :], per_source[..., i, None, :], out=out[..., lo:2 * lo, :])
    return out


class VarianceTerms:
    """What the grid analysis needs of the variances V and the grid alone.

    Every array is read-only: one instance is shared by every analysis of
    the same (V, grid) through :func:`variance_terms`.  Rows of ``a`` and
    ``inv_a`` are subsets by bitmask; row 0 of ``inv_a`` is 0.
    """

    def __init__(self, v: np.ndarray, deltas2: np.ndarray):
        d2 = deltas2[None, :]
        vc = v[:, None]
        self.deltas2 = deltas2
        self.w = 1.0 / (d2 + vc)                      # (L, R)
        self.a = _subset_sums(self.w, np.empty((1 << v.shape[0], deltas2.shape[0])))   # A_S
        self.inv_a = np.zeros_like(self.a)            # (2^L, R) 1/A_S
        np.divide(1.0, self.a[1:], out=self.inv_a[1:])
        self.oml = vc / (d2 + vc)                     # (L, R) 1 - lam
        self.within = d2 * self.oml                   # (L, R) delta2 (1 - lam)
        _read_only(self.w, self.a, self.inv_a, self.oml, self.within)

    @cached_property
    def log_cell(self) -> np.ndarray:
        """(R,) 1/2 sum_i log(1 - lam_i) + log f(delta2): the V-only part of a cell's log weight.

        Built on first read: it needs delta2 > 0, which the DPM's delta2 = 0
        table never has.
        """
        out = 0.5 * np.log(self.oml).sum(axis=0) + log_inv_beta_prior(self.deltas2)
        _read_only(out)
        return out

    @cached_property
    def cdf_sd(self) -> np.ndarray:
        """(L, 2^(L-1), R) sqrt(2 s^2) of the mixture component of source i in block S.

        s^2 = delta2 (1 - lam_i) + (1 - lam_i)^2 / A_S for the S in row i of
        :func:`holders`; built on the first mixture CDF.
        """
        sd = self.a.take(holders(self.w.shape[0]), axis=0)
        np.divide((2.0 * self.oml * self.oml)[:, None, :], sd, out=sd)
        sd += (self.within * 2.0)[:, None, :]
        np.sqrt(sd, out=sd)
        _read_only(sd)
        return sd


@lru_cache(maxsize=4)   # bounded, like simulation._shared: one entry per (V, grid) in use
def _cached_terms(v: bytes, deltas2: bytes) -> VarianceTerms:
    return VarianceTerms(np.frombuffer(v), np.frombuffer(deltas2))


def variance_terms(v: np.ndarray, deltas2: np.ndarray) -> VarianceTerms:
    """The :class:`VarianceTerms` of these float64 V and delta2, built once and cached.

    Keyed on the bytes of both arrays, so equal values share an entry
    whichever arrays hold them.
    """
    as_bytes = (np.ascontiguousarray(x, dtype=np.float64).tobytes() for x in (v, deltas2))
    return _cached_terms(*as_bytes)


def centre(y, v) -> float:
    """The precision-weighted mean of y: the shift every analysis is taken about.

    y is scaled by 2^-k, k the binary exponent of max |y|, before it is
    divided by V, so that y / V cannot overflow.  Short of underflow, a
    power of two scales every rounding exactly, so the bits are those of
    (y / v).sum() / (1 / v).sum() wherever that is finite.  Equal
    estimates get their own value, which those sums can miss by an ulp.
    An overflow gives a non-finite shift without a numpy warning, for the
    caller's finite check to report.
    """
    lo, hi = y.min(), y.max()
    with np.errstate(over="ignore", invalid="ignore"):
        s = 2.0 ** -max(math.frexp(max(hi, -lo))[1], 0)
        shift = float((y * s / v).sum() / (1.0 / v).sum()) / s
    return float(lo) if lo == hi and math.isfinite(shift) else shift


def subset_table(y, v, deltas2, out=None) -> SubsetTable:
    """Per-subset sums of the centred estimates on the delta2 grid.

    B and C are summed by :func:`_subset_sums`, as :class:`VarianceTerms`
    sums A.  ``out``, if given, is a C-contiguous (3, 2^L, R) array:
    ``out[0]`` and ``out[1]`` become the table's ``ybar`` and ``q``, and
    ``out[2]`` is scratch, left holding garbage.  The table carries
    ``variance_terms(v, deltas2)``, its one lookup of them.
    """
    L = y.shape[0]
    terms = variance_terms(v, deltas2)
    if out is None:
        out = np.empty((3, 1 << L, deltas2.shape[0]))
    sums, scratch = out[:2], out[2]
    ybar, q = sums                 # B and C, overwritten in place below
    shift = centre(y, v)
    # Estimates near the float range overflow here; the posterior's finite
    # check reports them, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        yc = y - shift
        w = terms.w
        wy = scratch[:2 * L].reshape(2, L, -1)     # w y and w y^2 per source; 2L <= 2^L rows
        np.multiply(w, yc[:, None], out=wy[0])
        np.multiply(w, (yc * yc)[:, None], out=wy[1])
        _subset_sums(wy, sums)
        a = terms.a
        ybar[1:] /= a[1:]
        b2a = np.multiply(ybar[1:], ybar[1:], out=scratch[1:])
        b2a *= a[1:]
        q[1:] -= b2a
    return SubsetTable(terms=terms, shift=shift, ybar=ybar, q=q)


def q_matrix(rows: np.ndarray, cluster_masks: np.ndarray) -> np.ndarray:
    """(G, C) sum of per-subset ``rows`` over the blocks of every partition.

    ``rows`` is a (2^L, C) table indexed by subset bitmask whose row 0, the
    empty set, is 0; ``cluster_masks`` is ``PartitionSpace.cluster_masks``:
    row g lists the bitmasks of partition g's blocks, padded with the empty
    set.  Summing log block factors gives each partition's log weight, as
    ``JointGridPosterior.log_mass`` and ``baselines.dpm_exact`` do; nothing
    on the analysis path reads it.
    """
    out = np.take(rows, cluster_masks[:, 0], axis=0)
    scratch = np.empty_like(out)
    for k in range(1, cluster_masks.shape[1]):
        # masks are in range by construction; mode="raise" would buffer ``out``
        np.take(rows, cluster_masks[:, k], axis=0, out=scratch, mode="clip")
        out += scratch
    return out


@lru_cache(maxsize=None)
def membership(l: int) -> np.ndarray:
    """(L, 2^L) float 0/1 matrix, 1 where source i belongs to subset S (read-only)."""
    out = ((np.arange(1 << l) >> np.arange(l)[:, None]) & 1).astype(np.float64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def holders(l: int) -> np.ndarray:
    """(L, 2^(L-1)) the subsets holding source i, ascending, in row i (read-only)."""
    out = np.nonzero(membership(l))[1].reshape(l, -1)
    out.flags.writeable = False
    return out


class SubsetSplits(NamedTuple):
    """Every split of a nonempty subset U into a block T holding min U and the rest U - T.

    Rows are ordered by |U|, then U, then T.  Each popcount layer is thus
    one run of rows in which every U owns 2^(|U|-1) consecutive rows, and
    a subset's rest always lies in an earlier layer.
    """

    block: np.ndarray    # (N,) T, N = (3^L - 1) / 2
    rest: np.ndarray     # (N,) U - T
    start: np.ndarray    # (2^L,) U's first row
    count: np.ndarray    # (2^L,) 2^(|U|-1) rows per U, 0 for the empty set
    layers: tuple[tuple[np.ndarray, slice], ...]   # per |U| = 1..L: the U, their rows


@lru_cache(maxsize=None)
def subset_splits(l: int) -> SubsetSplits:
    """The splits of every nonempty subset of L sources, built once per L.

    Each U starts with the one block {min U}; for each other member i of U,
    every block so far is kept once without i and once with it.
    """
    sizes = membership(l).sum(axis=0).astype(np.int64)     # |S| for every subset S
    owner = np.arange(1, 1 << l, dtype=np.int64)
    block = owner & -owner
    for i in range(l):
        bit = 1 << i
        free = ((owner & bit) != 0) & ((owner & -owner) != bit)
        reps = 1 + free
        second = np.cumsum(reps)[free] - 1
        owner, block = np.repeat(owner, reps), np.repeat(block, reps)
        block[second] |= bit
    size = sizes[owner]
    order = np.argsort((size << (2 * l)) | (owner << l) | block)
    owner, block, size = owner[order], block[order], size[order]
    start = np.zeros(1 << l, dtype=np.int64)
    firsts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    start[owner[firsts]] = firsts
    count = np.zeros(1 << l, dtype=np.int64)
    count[1:] = 1 << (sizes[1:] - 1)
    bounds = np.searchsorted(size, np.arange(1, l + 2))
    layers = tuple((owner[lo:hi:1 << (c - 1)], slice(int(lo), int(hi)))
                   for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1))
    for a in (owner, block, start, count):
        a.flags.writeable = False
    return SubsetSplits(block=block, rest=owner ^ block, start=start, count=count,
                        layers=layers)


#: Most float64 values one layer of :func:`partition_sums` holds at once;
#: wider grids are summed in column blocks.
_SPLIT_CELLS = 1 << 22


def _walk_layers(src: np.ndarray, out: np.ndarray, combine) -> np.ndarray:
    """Fill ``out`` by the recursion of :func:`partition_sums` over ``src``.

    Per column block and |U| layer, singletons are copied from ``src``
    (Z({i}) = phi({i})).  Every other layer gathers its splits' blocks T
    from ``src`` and rests U - T from ``out``, each as a (U, 2^(|U|-1),
    columns) array, and rows U of ``out`` get ``combine(blocks, rests)``,
    which may overwrite both.  Row 0 of neither array is touched.  One
    layer's gathered arrays are freed before the next layer's are made: at
    L = 8, R = 200, where each is 1.4 MB, holding two layers' at once made
    :func:`partition_sums` about 50% slower.  Returns ``out``.
    """
    n_sub, r = src.shape
    splits = subset_splits(n_sub.bit_length() - 1)
    widest = max(rows.stop - rows.start for _, rows in splits.layers)
    step = max(1, _SPLIT_CELLS // widest)
    for c0 in range(0, r, step):
        s, o = src[:, c0:c0 + step], out[:, c0:c0 + step]   # views of one column block
        for us, rows in splits.layers:
            if us.shape[0] == rows.stop - rows.start:    # singletons
                o[us] = s[us]
                continue
            shape = (us.shape[0], -1, s.shape[1])
            o[us] = combine(s.take(splits.block[rows], axis=0).reshape(shape),
                            o.take(splits.rest[rows], axis=0).reshape(shape))
    return out


def partition_sums(phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(2^L, R) sums over the partitions of every subset U of products of phi.

    Z(empty) = 1 and Z(U, j) = sum over T in U holding min U of
    phi(T, j) Z(U - T, j), so Z(U, j) is the sum over all partitions of U
    of the product of phi over their blocks.  Built layer by layer in |U|
    by :func:`_walk_layers`, whose combine sums each U's 2^(|U|-1)
    products.  Costs (3^L - 1)/2 products per grid point.  Written into
    ``out``, of phi's shape, when it is given.
    """
    z = np.empty_like(phi) if out is None else out
    z[0] = 1.0
    return _walk_layers(phi, z, partial(np.einsum, "ukr,ukr->ur"))


def _log_sum_of_products(terms: np.ndarray, rests: np.ndarray) -> np.ndarray:
    """log sum_k exp(terms + rests) over axis 1, about each row's largest; overwrites ``terms``."""
    terms += rests
    top = terms.max(axis=1)
    terms -= top[:, None]
    np.exp(terms, out=terms)
    total = terms.sum(axis=1)
    np.log(total, out=total)
    total += top
    return total


def log_partition_sums(log_phi: np.ndarray) -> np.ndarray:
    """(2^L, C) log Z(U, c) of :func:`partition_sums`, computed in log space.

    The same layers, but each U's 2^(|U|-1) terms log phi(T) + log Z(U - T)
    are combined by log-sum-exp about their largest, so no block factor
    or partition sum is ever exponentiated whole and none can overflow or
    underflow, however far apart the scores of two partitions are.  Row 0
    of ``log_phi`` (the empty set, never a block) is not read.
    """
    lz = np.empty_like(log_phi)
    lz[0] = 0.0
    return _walk_layers(log_phi, lz, _log_sum_of_products)


# ---------------------------------------------------------------------------
# Complementary error function (Cody 1969, "Rational Chebyshev approximations
# for the error function", Math. Comp. 23); numpy has no erf.  The constants
# are Cody's double-precision ones.  Each range's numerator and denominator
# are listed by ascending power and evaluated by Horner's rule in his order.
# ---------------------------------------------------------------------------

#: erf(x) = x N(x^2) / D(x^2) for |x| <= 0.46875.
_ERFC_SMALL = np.array([
    [3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
     3.16112374387056560e00, 1.85777706184603153e-1],
    [2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
     2.36012909523441209e01, 1.0]])
#: erfc(y) = exp(-y^2) N(y) / D(y) for 0.46875 < y <= 4.
_ERFC_MID = np.array([
    [1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
     8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
     8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8],
    [1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
     3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
     1.17693950891312499e02, 1.57449261107098347e01, 1.0]])
#: erfc(y) = exp(-y^2) (1/sqrt(pi) - t N(t) / D(t)) / y, t = 1/y^2, for y > 4.
_ERFC_TAIL = np.array([
    [6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
     3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2],
    [2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
     1.87295284992346725e00, 2.56852019228982242e00, 1.0]])
#: erfc(y) underflows below the smallest normal double for y >= this.
_ERFC_XBIG = 26.543
#: exp(-u^2) at u = k/16 for the k = floor(16 y) of every y < _ERFC_XBIG.
_EXP_SIXTEENTHS = np.exp(-(np.arange(int(16 * _ERFC_XBIG) + 1) / 16.0) ** 2)


def _ratio(t: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """N(t) / D(t) for the (2, k) ascending coefficients; both polynomials in one array."""
    acc = coef[:, -1:] * t
    for k in range(coef.shape[1] - 2, 0, -1):
        acc += coef[:, k:k + 1]
        acc *= t
    acc += coef[:, :1]
    return np.divide(acc[0], acc[1], out=acc[0])


def _times_exp_minus_square(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """r * exp(-y^2) for 0 <= y < _ERFC_XBIG, overwriting r.

    As in Cody's routine, y^2 is split as u^2 + (y - u)(y + u) with u = floor(16 y)/16;
    u^2 is exact, so the rounding of y^2 does not reach the exponent, and
    exp(-u^2) is read from a table.
    """
    k = (y * 16.0).astype(np.intp)
    u = k * 0.0625
    d = u - y
    d *= y + u
    np.exp(d, out=d)
    r *= _EXP_SIXTEENTHS.take(k)
    r *= d
    return r


def erfc(x) -> np.ndarray:
    """Complementary error function of every element of ``x``, to a few ulps.

    Cody's three ranges: 1 - erf(x) for |x| <= 0.46875, then the rational
    approximations of erfc(|x|) for |x| <= 4 and beyond, 0 from 26.543 on
    (it underflows), and erfc(x) = 2 - erfc(|x|) for negative x.  NaN
    stays NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    y = np.abs(flat)
    out = np.full_like(y, np.nan)
    small = y <= 0.46875
    mid = y <= 4.0
    mid ^= small
    tail = y > 4.0
    xs = flat[small]
    r = _ratio(xs * xs, _ERFC_SMALL)
    r *= xs
    out[small] = 1.0 - r
    ym = y[mid]
    out[mid] = _times_exp_minus_square(_ratio(ym, _ERFC_MID), ym)
    if tail.any():
        yt = np.minimum(y[tail], _ERFC_XBIG)
        t = 1.0 / (yt * yt)
        r = _ratio(t, _ERFC_TAIL)
        r *= t
        np.subtract(0.5641895835477562869, r, out=r)    # 1/sqrt(pi)
        r /= yt
        r[yt >= _ERFC_XBIG] = 0.0
        out[tail] = _times_exp_minus_square(r, yt)
    small |= flat >= 0                  # the entries that need no reflection
    np.subtract(2.0, out, out=out, where=~small)
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Quantiles of finite normal mixtures
# ---------------------------------------------------------------------------

def negligible(w: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the smallest entries of ``w`` >= 0 whose total is at most ``budget``.

    Entries are bucketed by binary exponent and whole buckets dropped,
    smallest first, while their running total stays within the budget;
    one pass, no sort, and never more than the budget dropped.
    """
    _, exps = np.frexp(w)
    exps -= exps.min()
    total = np.cumsum(np.bincount(exps.ravel(), weights=w.ravel()))
    cut = np.searchsorted(total, budget, side="right")   # buckets 0..cut-1 fit the budget
    return exps < cut


#: Largest |F(x) - q| at which :func:`mixture_quantiles` accepts an endpoint.
_QUANTILE_TOL = 1e-12
#: Mass each mixture may lose in the successive solves of
#: :func:`mixture_quantiles`; the last solve keeps every component.
_STAGE_MASS = (1e-3, 1e-7, 0.0)
#: Newton or bisection steps before a solve gives up.
_QUANTILE_STEPS = 200
#: max |d/dz of the standard normal density|, reached at z = +-1.
_MAX_PDF_SLOPE = 1.0 / math.sqrt(2.0 * math.pi * math.e)
#: Components per level evaluated at once by :func:`_newton`; the erfc
#: temporaries of a block stay small enough to be reused from the heap.
_QUANTILE_BLOCK = 1 << 12


def _newton(w, m, s, owner, q, x, lo, hi, tol):
    """Safeguarded Newton on F(x) = q for every (level, mixture) endpoint at once.

    F(x) = 1/2 sum w erfc((m - x) / (s sqrt 2)) per mixture, and its
    density, are summed over blocks of ``_QUANTILE_BLOCK`` components.  A
    step that leaves the bracket [lo, hi], which shrinks around the root
    as F is evaluated, is replaced by bisection.  A Newton step of length
    d needs no further evaluation once |F''| d^2 / 2 <= tol / 2, with
    |F''| at most sum w * _MAX_PDF_SLOPE / s^2.  Returns the (P, K)
    endpoints once every one is within ``tol`` of its level or its
    bracket has closed.
    """
    p, k = x.shape
    inv = 1.0 / (s * math.sqrt(2.0))
    wpdf = w * inv / math.sqrt(math.pi)
    curve = np.bincount(owner, weights=w / (s * s), minlength=k) * _MAX_PDF_SLOPE
    rows = k * np.arange(p)[:, None]                   # endpoint (level, mixture) at rows + owner
    for _ in range(_QUANTILE_STEPS):
        r = np.zeros(p * k)
        pdf = np.zeros(p * k)
        for c in range(0, w.size, _QUANTILE_BLOCK):
            b = slice(c, c + _QUANTILE_BLOCK)
            u = m[b] - x[:, owner[b]]
            u *= inv[b]
            at = (rows + owner[b]).ravel()
            r += np.bincount(at, weights=(erfc(u) * w[b]).ravel(), minlength=p * k)
            np.square(u, out=u)
            np.negative(u, out=u)
            np.exp(u, out=u)
            u *= wpdf[b]
            pdf += np.bincount(at, weights=u.ravel(), minlength=p * k)
        r = r.reshape(p, k)
        r *= 0.5
        r -= q
        pdf = pdf.reshape(p, k)
        done = np.abs(r) <= tol
        if done.all():
            return x
        lo = np.where(r < 0, x, lo)
        hi = np.where(r > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / pdf
        newton = x - step
        inside = (newton > lo) & (newton < hi)
        bisect = 0.5 * (lo + hi)
        x = np.where(done, x, np.where(inside, newton, bisect))
        if np.all(done | (inside & (curve * step * step <= tol))):
            return x
        if np.all(done | (bisect == lo) | (bisect == hi)):
            return x
    raise ComputationError(f"mixture quantiles did not converge in {_QUANTILE_STEPS} steps")


def mixture_quantiles(w, m, s, owner, q) -> np.ndarray:
    """(K, P) q-quantiles of K normal mixtures, all K * P endpoints solved together.

    Component k of mixture ``owner[k]`` has weight ``w[k]``, mean ``m[k]``
    and SD ``s[k]``; every mixture 0..K-1 has a component, and each
    mixture's weights sum to 1.  Each endpoint starts at
    its mixture's mean mu plus its SD sigma times a logistic approximation
    of the normal quantile.  Its bracket is the one Cantelli's inequality
    gives every distribution with those moments, mu - sigma sqrt((1 - q) /
    q) to mu + sigma sqrt(q / (1 - q)), widened by 1%.  :func:`_newton`
    then solves on fewer components first: each solve of ``_STAGE_MASS``
    drops the lightest ones by :func:`negligible`, up to that mass per
    mixture, and stops within it, except the last, which keeps every
    component and stops within ``_QUANTILE_TOL``.  So the full mixture is
    evaluated once or twice.  An endpoint whose bracket closed to
    adjacent doubles is returned as it stands.
    """
    q = np.asarray(q, dtype=np.float64)[:, None]
    mean = np.bincount(owner, weights=w * m)
    sd = np.sqrt(np.maximum(np.bincount(owner, weights=w * (s * s + m * m)) - mean * mean, 0.0))
    odds = q / (1.0 - q)
    lo = mean - sd * (1.01 / np.sqrt(odds))        # Cantelli: F(lo) <= q <= F(hi)
    hi = mean + sd * (1.01 * np.sqrt(odds))
    x = np.clip(mean + sd * (math.sqrt(3.0) / math.pi) * np.log(odds), lo, hi)
    for drop in _STAGE_MASS:
        keep = np.flatnonzero(~negligible(w, drop)) if drop else slice(None)
        x = _newton(w[keep], m[keep], s[keep], owner[keep], q, x, lo, hi,
                    max(drop, _QUANTILE_TOL))
    return x.T
