import json
import math
from dataclasses import fields

import numpy as np
import pytest

from uncpool import (ComputationError, DomainError, JointGridPosterior, Partition,
                     SurveyData, build_grid, conditional_moments, display_label_l3,
                     enumerate_partitions, evaluate_joint, exact_mixture_moments, log_joint_kernel,
                     marginal_delta2, marginal_g, pool_all, q_statistic, sample_mu, summarize)
from uncpool import grid, kernels
from uncpool.grid import (PosteriorDraws, _draw_mu_for_partition, covers95, interval95,
                          mixture_cdf)
from uncpool.kernels import (SubsetTable, partition_sums, q_matrix, subset_table,
                             variance_terms)
from uncpool.partitions import growth_labels, member_masks

from conftest import make_dixie


def small_data(rng, l):
    return SurveyData(
        labels=[f"s{i}" for i in range(l)],
        y_hat=rng.normal(0.3, 0.08, size=l),
        v=rng.uniform(0.006, 0.04, size=l) ** 2,
    )


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_build_grid_r2():
    g = build_grid(2)
    assert g.deltas2 == pytest.approx([math.tan(math.pi / 8) ** 2,
                                       math.tan(3 * math.pi / 8) ** 2], rel=1e-14)
    assert np.exp(g.log_prior_mass) == pytest.approx([0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("r", [2, 17, 500])
def test_grid_masses_sum_to_one(r):
    g = build_grid(r)
    assert np.exp(g.log_prior_mass).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g.deltas2) > 0)
    assert np.all(g.deltas2 > 0)


def test_build_grid_rejects_small_r():
    with pytest.raises(DomainError):
        build_grid(1)


def test_grid_expectation_matches_quadrature():
    # bounded smooth functional of delta2 under the variance prior
    from scipy.integrate import quad

    g = build_grid(1000)
    h = lambda d2: d2 / (1.0 + d2) ** 2
    grid_val = float((np.exp(g.log_prior_mass) * h(g.deltas2)).sum())
    quad_val, _ = quad(lambda d2: h(d2) / (math.pi * (1 + d2) * math.sqrt(d2)), 0, np.inf)
    assert grid_val == pytest.approx(quad_val, abs=1e-6)


# ---------------------------------------------------------------------------
# joint evaluation and marginals
# ---------------------------------------------------------------------------

def test_single_source_has_unit_mass():
    data = SurveyData(["only"], [0.4], [0.01])
    jp = evaluate_joint(data, enumerate_partitions(1), build_grid(64))
    assert marginal_g(jp) == pytest.approx([1.0], abs=1e-12)


def test_joint_normalization(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(400))
    assert np.exp(jp.log_mass).sum() == pytest.approx(1.0, abs=1e-10)
    assert marginal_g(jp).sum() == pytest.approx(1.0, abs=1e-10)
    assert marginal_delta2(jp).sum() == pytest.approx(1.0, abs=1e-10)


def test_uniform_mass_gives_uniform_marginal():
    # q_S = |S| - 1 makes every partition's block product e^(-L/2), so with equal
    # cell factors every (partition, cell) pair carries the same mass
    grid = build_grid(8)
    size = np.array([bin(s).count("1") for s in range(8)])[:, None] * np.ones(8)
    v = np.ones(3)              # the terms are not read here; the table is not built from them
    table = SubsetTable(terms=variance_terms(v, grid.deltas2), shift=0.0,
                        ybar=np.zeros((8, 8)), q=np.maximum(size - 1.0, 0.0))
    phi = np.exp(-0.5 * size)
    phi[0] = 0.0
    z = partition_sums(phi)
    assert z[-1] == pytest.approx([5 * math.exp(-1.5)] * 8, rel=1e-15)
    log_cell = np.full(8, -math.log(8 * 5 * math.exp(-1.5)))
    p = np.full(8, 1 / 8)
    jp = JointGridPosterior(grid=grid, table=table, log_evidence=0.0, phi=phi,
                            z=z, block_mass=phi * z[::-1] * (p / z[-1]), log_cell=log_cell,
                            delta2_probs=p, y_hat=np.zeros(3), v=v)
    assert "space" not in {f.name for f in fields(JointGridPosterior)}
    assert jp.space == enumerate_partitions(3)   # built from the data's L on first read
    assert marginal_g(jp) == pytest.approx([0.2] * 5, abs=1e-12)
    assert marginal_delta2(jp) == pytest.approx([1 / 8] * 8, abs=1e-12)
    assert np.exp(jp.log_mass).sum(axis=1) == pytest.approx([0.2] * 5, abs=1e-12)


def test_mean_delta2_consistent_between_marginal_and_joint(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(300))
    d2 = jp.grid.deltas2
    from_marginal = float((marginal_delta2(jp) * d2).sum())
    from_joint = float((np.exp(jp.log_mass) * d2[None, :]).sum())
    assert from_marginal == pytest.approx(from_joint, abs=1e-12)


@pytest.mark.parametrize("l", [2, 3, 5, 8])
def test_lattice_matches_scalar_kernel(l):
    # log masses equal the scalar joint kernel up to one normalizing constant
    rng = np.random.default_rng(l)
    data = small_data(rng, l)
    space = enumerate_partitions(l)
    grid = build_grid(60)
    jp = evaluate_joint(data, space, grid)
    log_pg = -math.log(space.g)
    gs = range(space.g) if space.g <= 60 else rng.choice(space.g, 60, replace=False)
    diffs = [jp.log_mass[g, j] - log_joint_kernel(data, space.partitions[g],
                                                  float(grid.deltas2[j]), log_pg)
             for g in gs for j in (0, 7, 31, 59)]
    assert max(diffs) - min(diffs) < 1e-10


def test_scores_match_scalar_kernel(dixie_panel1):
    # vectorized grid scores agree with the scalar misfit statistic
    space = enumerate_partitions(3)
    grid = build_grid(40)
    q = q_matrix(subset_table(dixie_panel1.y_hat, dixie_panel1.v, grid.deltas2),
                 space.cluster_masks)
    for gi, p in enumerate(space.partitions):
        for j in (0, 13, 39):
            expect = q_statistic(dixie_panel1, p, float(grid.deltas2[j]))
            assert q[gi, j] == pytest.approx(expect, rel=1e-11, abs=1e-13)


def test_mismatched_space_rejected(dixie_panel1):
    with pytest.raises(DomainError):
        evaluate_joint(dixie_panel1, enumerate_partitions(2), build_grid(16))


def test_non_finite_weight_raises_named_cell():
    # estimates of 1e200 overflow the misfit sums to inf - inf
    data = SurveyData(["a", "b", "c"], [1e200, -1e200, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ComputationError, match=r"grid cell 0 "):
        evaluate_joint(data, enumerate_partitions(3), build_grid(16))


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    data = small_data(rng, 3)
    perm = [2, 0, 1]
    permuted = SurveyData([data.labels[i] for i in perm], data.y_hat[perm], data.v[perm])
    space = enumerate_partitions(3)
    grid = build_grid(200)
    jp_a = evaluate_joint(data, space, grid)
    jp_b = evaluate_joint(permuted, space, grid)
    # per-survey exact moments permute along with the data
    mean_a, sd_a = exact_mixture_moments(data, jp_a)
    mean_b, sd_b = exact_mixture_moments(permuted, jp_b)
    assert mean_b == pytest.approx(mean_a[perm], abs=1e-12)
    assert sd_b == pytest.approx(sd_a[perm], abs=1e-12)
    # partition masses map through the induced relabeling: original cluster
    # {i,j} corresponds to {pos(i),pos(j)} in the permuted order
    pos = np.argsort(perm)
    pg_a = marginal_g(jp_a)
    pg_b = marginal_g(jp_b)
    index_b = {frozenset(frozenset(c) for c in p.clusters): i
               for i, p in enumerate(space.partitions)}
    for gi, p in enumerate(space.partitions):
        image = frozenset(frozenset(int(pos[i]) for i in c) for c in p.clusters)
        assert pg_b[index_b[image]] == pytest.approx(pg_a[gi], abs=1e-12)


def test_moments_match_brute_force_mixture():
    # mixture of the scalar conditional moments over every (partition, cell)
    rng = np.random.default_rng(17)
    data = small_data(rng, 5)
    space = enumerate_partitions(5)
    jp = evaluate_joint(data, space, build_grid(40))
    w = np.exp(jp.log_mass)
    e1 = np.zeros(5)
    e2 = np.zeros(5)
    for g, p in enumerate(space.partitions):
        for j, d2 in enumerate(jp.grid.deltas2):
            cm = conditional_moments(data, p, float(d2))
            e1 += w[g, j] * cm.mean
            e2 += w[g, j] * (np.diag(cm.cov) + cm.mean ** 2)
    mean, sd = exact_mixture_moments(data, jp)
    assert np.max(np.abs(mean - e1)) < 1e-12
    assert np.max(np.abs(sd - np.sqrt(e2 - e1 ** 2))) < 1e-12


def precise_data(se):
    """Two sources at 0.30 and 0.31 with SE ``se``, a third at 0.20 with SE 0.02."""
    return SurveyData(("a", "b", "c"), [0.30, 0.31, 0.20], np.array([se, se, 0.02]) ** 2)


def _centred_moments(data, jp):
    """Mean and SD of each mu_i's mixture, in two passes over its (block, cell) components.

    Component means are differenced from y_i before they are squared, so
    no large terms cancel.
    """
    t, d2 = jp.table, jp.grid.deltas2
    mean, sd = np.empty(data.l), np.empty(data.l)
    for i, held in enumerate(kernels.holders(data.l)):
        oml = data.v[i] / (d2 + data.v[i])
        w = jp.block_mass[held]
        dev = oml * (t.ybar[held] - (data.y_hat[i] - t.shift))     # component mean - y_i
        s2 = d2 * oml + oml * oml / t.a[held]
        e = (w * dev).sum()
        mean[i] = data.y_hat[i] + e
        sd[i] = math.sqrt((w * (s2 + (dev - e) ** 2)).sum())
    return mean, sd


@pytest.mark.parametrize("se", [1e-8, 1e-9, 1e-10])
def test_moments_of_precise_sources_match_a_centred_reference(se):
    data = precise_data(se)
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(2000))
    mean, sd = exact_mixture_moments(data, jp)
    want_mean, want_sd = _centred_moments(data, jp)
    assert np.all(np.abs(mean - want_mean) <= 1e-12 * np.abs(want_mean))
    assert np.all(np.abs(sd - want_sd) <= 1e-12 * want_sd)


@pytest.mark.parametrize("se", [1e-8, 1e-9, 1e-10])
def test_mixture_cdf_of_precise_sources_is_a_cdf(se):
    data = precise_data(se)
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(2000))
    mean, sd = _centred_moments(data, jp)
    cdf = np.array([mixture_cdf(data, jp, mean + k * sd) for k in np.linspace(-6.0, 6.0, 121)])
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf, axis=0) >= 0.0)
    assert np.all(cdf[0] < 0.05) and np.all(cdf[-1] > 0.95)


@pytest.mark.parametrize("shift", [1e3, 1e6])
def test_translation_invariance(dixie_panel1, shift):
    # adding a constant to every estimate moves only the means, by the constant
    space = enumerate_partitions(3)
    grid = build_grid(2000)
    moved = SurveyData(dixie_panel1.labels, dixie_panel1.y_hat + shift, dixie_panel1.v)
    jp_a = evaluate_joint(dixie_panel1, space, grid)
    jp_b = evaluate_joint(moved, space, grid)
    assert np.max(np.abs(marginal_g(jp_b) - marginal_g(jp_a))) < 1e-8
    mean_a, sd_a = exact_mixture_moments(dixie_panel1, jp_a)
    mean_b, sd_b = exact_mixture_moments(moved, jp_b)
    assert np.max(np.abs(mean_b - shift - mean_a)) < 1e-8
    assert np.max(np.abs(sd_b - sd_a)) < 1e-8
    pa_a = pool_all(dixie_panel1, grid, b=10, jp=jp_a)
    pa_b = pool_all(moved, grid, b=10, jp=jp_b)
    assert abs(pa_b.mean - shift - pa_a.mean) < 1e-8
    assert abs(pa_b.sd - pa_a.sd) < 1e-8


def _mixture_cdf_oracle(data, jp, x):
    """F_i(x_i) summed over every (partition, cell) with the scalar conditional moments."""
    w = np.exp(jp.log_mass)
    out = np.zeros(data.l)
    for g, p in enumerate(jp.space.partitions):
        for j, d2 in enumerate(jp.grid.deltas2):
            cm = conditional_moments(data, p, float(d2))
            for i in range(data.l):
                z = (cm.mean[i] - x[i]) / math.sqrt(2.0 * cm.cov[i, i])
                out[i] += 0.5 * w[g, j] * math.erfc(z)
    return out


@pytest.mark.parametrize("l, r", [(3, 60), (5, 30)])
def test_mixture_cdf_matches_scalar_oracle(l, r):
    rng = np.random.default_rng(40 + l)
    data = small_data(rng, l)
    jp = evaluate_joint(data, enumerate_partitions(l), build_grid(r))
    mean, sd = exact_mixture_moments(data, jp)
    for k in (-2.5, -0.7, 0.0, 1.1, 3.0):
        x = mean + k * sd
        got = mixture_cdf(data, jp, x)
        assert np.max(np.abs(got - _mixture_cdf_oracle(data, jp, x))) < 1e-12, k
        assert np.all((got > 0.0) & (got < 1.0))


def test_mixture_cdf_is_unmoved_by_a_shift():
    # estimates and points on a 2^-16 lattice, so adding 1e6 rounds nothing
    rng = np.random.default_rng(8)
    y = np.round(rng.normal(0.3, 0.08, size=3) * 2 ** 16) / 2 ** 16
    data = SurveyData(("a", "b", "c"), y, rng.uniform(0.006, 0.04, size=3) ** 2)
    moved = SurveyData(("a", "b", "c"), y + 1e6, data.v)
    space, grid = enumerate_partitions(3), build_grid(2000)
    jp, jp_moved = evaluate_joint(data, space, grid), evaluate_joint(moved, space, grid)
    mean, sd = exact_mixture_moments(data, jp)
    for k in (-1.5, 0.0, 1.0):
        x = np.round((mean + k * sd) * 2 ** 16) / 2 ** 16
        want = mixture_cdf(data, jp, x)
        assert np.all((want > 0.01) & (want < 0.99))
        assert np.max(np.abs(mixture_cdf(moved, jp_moved, x + 1e6) - want)) < 1e-12


def test_mixture_cdf_is_non_decreasing(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(2000))
    cdf = np.array([mixture_cdf(dixie_panel1, jp, np.full(3, x))
                    for x in np.linspace(0.0, 0.6, 601)])
    assert np.all(np.diff(cdf, axis=0) >= 0.0)
    assert np.all(cdf[0] < 1e-6) and np.all(cdf[-1] > 1.0 - 1e-6)


def test_mixture_cdf_needs_one_point_per_source(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(20))
    with pytest.raises(DomainError, match="one point per source"):
        mixture_cdf(dixie_panel1, jp, np.zeros(2))


def _points_at(data, jp, q):
    """(L,) x with F_i(x_i) = q_i for the full mixture CDF, by bisection to the last bit."""
    lo, hi = np.full(data.l, -1.0), np.full(data.l, 2.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(data, jp, mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture
def full_cdf_calls(monkeypatch):
    """Count the full-grid CDF sums covers95 falls back to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return mixture_cdf(*args)
    monkeypatch.setattr(grid, "mixture_cdf", counted)
    return calls


@pytest.mark.parametrize("margin, full_sums", [(1e-3, 0), (1e-6, 1)])
@pytest.mark.parametrize("bound", [0.025, 0.975])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_covers95_decides_as_the_full_cdf_near_each_bound(dixie_panel1, full_cdf_calls, margin,
                                                          full_sums, bound, side):
    # 1e-3 from a bound the head of p(j) decides; 1e-6 from it the left-out
    # tail (up to 1e-4) could tip a decision, so the full sum decides
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(2000))
    x = _points_at(dixie_panel1, jp, np.full(3, bound + side * margin))
    f = mixture_cdf(dixie_panel1, jp, x)
    assert np.allclose(f, bound + side * margin, rtol=0.0, atol=1e-12)
    assert np.array_equal(covers95(dixie_panel1, jp, x), (f >= 0.025) & (f <= 0.975))
    assert len(full_cdf_calls) == full_sums


@pytest.mark.parametrize("bound", [0.025, 0.975])
def test_covers95_decides_as_the_full_cdf_at_every_margin(dixie_panel1, bound):
    # a coarse grid gives the cells next to the prefix cut much of the tail
    # mass, so a bracket that forgets any of it decides some margins wrongly
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(60))
    at = _points_at(dixie_panel1, jp, np.full(3, bound))
    pdf = (mixture_cdf(dixie_panel1, jp, at + 1e-7) - mixture_cdf(dixie_panel1, jp, at - 1e-7)) / 2e-7
    margins = np.geomspace(1e-7, 1e-3, 12)
    for margin in np.concatenate([-margins, margins]):
        x = at + margin / pdf
        f = mixture_cdf(dixie_panel1, jp, x)
        assert np.array_equal(covers95(dixie_panel1, jp, x), (f >= 0.025) & (f <= 0.975)), margin


def test_covers95_sums_every_cell_without_a_negligible_tail(full_cdf_calls):
    # on a 3-cell grid the last cell alone holds more than the tail budget
    data = SurveyData(("a", "b", "c"), [0.0, 3.0, 6.0], [1.0, 1.0, 1.0])
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(3))
    assert jp.delta2_probs[-1] > grid._TAIL_MASS
    mean, sd = exact_mixture_moments(data, jp)
    for k in (-3.0, 0.0, 3.0):
        x = mean + k * sd
        f = mixture_cdf(data, jp, x)
        del full_cdf_calls[:]
        assert np.array_equal(covers95(data, jp, x), (f >= 0.025) & (f <= 0.975))
        assert len(full_cdf_calls) == 1


def test_covers95_is_unmoved_by_a_shift(full_cdf_calls):
    # estimates and points on a 2^-16 lattice, so adding 1e6 rounds nothing
    rng = np.random.default_rng(8)
    y = np.round(rng.normal(0.3, 0.08, size=3) * 2 ** 16) / 2 ** 16
    data = SurveyData(("a", "b", "c"), y, rng.uniform(0.006, 0.04, size=3) ** 2)
    moved = SurveyData(("a", "b", "c"), y + 1e6, data.v)
    space, grid_ = enumerate_partitions(3), build_grid(2000)
    jp, jp_moved = evaluate_joint(data, space, grid_), evaluate_joint(moved, space, grid_)
    for q in (0.024, 0.026, 0.974, 0.976):
        x = np.round(_points_at(data, jp, np.full(3, q)) * 2 ** 16) / 2 ** 16
        want = covers95(data, jp, x)
        assert np.array_equal(covers95(moved, jp_moved, x + 1e6), want)
        f = mixture_cdf(data, jp, x)
        assert np.array_equal(want, (f >= 0.025) & (f <= 0.975))
    assert full_cdf_calls == []


@pytest.mark.parametrize("b", [0, -3])
def test_sample_mu_rejects_bad_draw_count(dixie_panel1, b):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(40))
    with pytest.raises(DomainError, match="draw count must be >= 1"):
        sample_mu(dixie_panel1, jp, b, seed=0)


def test_posterior_for_another_l_is_refused():
    jp = evaluate_joint(small_data(np.random.default_rng(1), 3), enumerate_partitions(3),
                        build_grid(40))
    data = small_data(np.random.default_rng(2), 4)
    draws = PosteriorDraws(b=2, mu=np.zeros((2, 4)), codes=np.zeros(2, dtype=np.int64),
                           delta2_values=jp.grid.deltas2[:2], seed=0)
    calls = [lambda: sample_mu(data, jp, 10, seed=0),
             lambda: summarize(data, jp, draws),
             lambda: exact_mixture_moments(data, jp),
             lambda: mixture_cdf(data, jp, np.zeros(4)),
             lambda: covers95(data, jp, np.zeros(4)),
             lambda: pool_all(data, jp.grid, b=10, jp=jp)]
    for call in calls:
        with pytest.raises(DomainError, match="data has L=4 but the posterior was built for L=3"):
            call()


@pytest.mark.parametrize("shift_y, scale_v, differ", [
    (5.0, 1.0, "estimates"), (0.0, 2.0, "variances"), (5.0, 2.0, "estimates and variances")])
def test_posterior_built_from_other_data_is_refused(shift_y, scale_v, differ):
    # the consumers read the V-only terms and the table from jp, so other data
    # of the same L would silently mix two data sets
    built = SurveyData(["a", "b", "c"], [0.25, 0.36, 0.36], [0.014 ** 2, 0.028 ** 2, 0.028 ** 2])
    jp = evaluate_joint(built, enumerate_partitions(3), build_grid(40))
    data = SurveyData(built.labels, built.y_hat + shift_y, built.v * scale_v)
    draws = PosteriorDraws(b=2, mu=np.zeros((2, 3)), codes=np.zeros(2, dtype=np.int64),
                           delta2_values=jp.grid.deltas2[:2], seed=0)
    calls = [lambda: sample_mu(data, jp, 10, seed=0),
             lambda: summarize(data, jp, draws),
             lambda: exact_mixture_moments(data, jp),
             lambda: mixture_cdf(data, jp, np.zeros(3)),
             lambda: covers95(data, jp, np.zeros(3)),
             lambda: pool_all(data, jp.grid, b=10, jp=jp)]
    for call in calls:
        with pytest.raises(DomainError, match=f"built from other {differ} than these data"):
            call()
    same = SurveyData(built.labels, built.y_hat.copy(), built.v.copy())   # equal values pass
    assert np.array_equal(exact_mixture_moments(same, jp)[0],
                          exact_mixture_moments(built, jp)[0])


def test_posterior_rows_share_one_allocation(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(50))
    rows = [jp.table.ybar, jp.table.q, jp.phi, jp.z, jp.block_mass]
    block = jp.phi.base
    assert block.shape == (5, 8, 50)
    for i, a in enumerate(rows):
        assert a.shape == (8, 50) and a.base is block and np.shares_memory(a, block)
        assert not any(np.shares_memory(a, b) for b in rows[i + 1:])   # disjoint rows


def test_cold_and_warm_cache_posteriors_are_bit_identical():
    data = small_data(np.random.default_rng(17), 4)
    space, g = enumerate_partitions(4), build_grid(300)
    kernels._cached_terms.cache_clear()
    cold = evaluate_joint(data, space, g)
    cold_out = (exact_mixture_moments(data, cold), mixture_cdf(data, cold, data.y_hat))
    warm = evaluate_joint(data, space, g)
    assert warm.table.terms is cold.table.terms
    for name in ("phi", "z", "block_mass", "delta2_probs", "log_cell"):
        assert np.array_equal(getattr(cold, name), getattr(warm, name)), name
    assert cold.log_evidence == warm.log_evidence
    warm_out = (exact_mixture_moments(data, warm), mixture_cdf(data, warm, data.y_hat))
    assert all(np.array_equal(a, b) for a, b in zip(cold_out[0], warm_out[0]))
    assert np.array_equal(cold_out[1], warm_out[1])


@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (15,)])
def test_summarize_refuses_draws_of_another_width(dixie_panel1, shape):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(40))
    draws = PosteriorDraws(b=5, mu=np.zeros(shape), codes=np.zeros(5, dtype=np.int64),
                           delta2_values=jp.grid.deltas2[:5], seed=0)
    with pytest.raises(DomainError, match=rf"one column per source, L=3; got shape \({shape[0]},"):
        summarize(dixie_panel1, jp, draws)


def test_refinement_stability(dixie_panel1):
    space = enumerate_partitions(3)
    m1, s1 = exact_mixture_moments(dixie_panel1, evaluate_joint(dixie_panel1, space, build_grid(2000)))
    m2, s2 = exact_mixture_moments(dixie_panel1, evaluate_joint(dixie_panel1, space, build_grid(4000)))
    assert np.max(np.abs(m1 - m2)) < 1e-3
    assert np.max(np.abs(s1 - s2)) < 1e-3


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# the second partition interleaves its clusters, where a wrong member mask shows
@pytest.mark.parametrize("assignment", [(0, 0, 1, 0), (0, 1, 0, 1)], ids=["0010", "0101"])
def test_two_stage_sampler_matches_closed_form_moments(assignment):
    rng = np.random.default_rng(21)
    data = small_data(rng, 4)
    p = Partition(assignment)
    d2 = 4e-4
    b = 200_000
    draws = _draw_mu_for_partition(data, p, np.full(b, d2), np.random.default_rng(99))
    cm = conditional_moments(data, p, d2)
    emp_mean = draws.mean(axis=0)
    emp_cov = np.cov(draws.T)
    for i in range(4):
        se = math.sqrt(cm.cov[i, i] / b)
        assert abs(emp_mean[i] - cm.mean[i]) < 4 * se
        for j in range(4):
            se_c = math.sqrt((cm.cov[i, i] * cm.cov[j, j] + cm.cov[i, j] ** 2) / b)
            assert abs(emp_cov[i, j] - cm.cov[i, j]) < 4 * se_c


def test_sample_mu_concentrates_when_variances_vanish():
    data = SurveyData(["a", "b", "c"], [0.2, 0.5, 0.8], [1e-12, 1e-12, 1e-12])
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(200))
    draws = sample_mu(data, jp, 2000, seed=1)
    assert np.max(np.abs(draws.mu - data.y_hat[None, :])) < 1e-4


def test_exact_moments_agree_with_draw_moments(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(500))
    mean, sd = exact_mixture_moments(dixie_panel1, jp)
    draws = sample_mu(dixie_panel1, jp, 200_000, seed=5)
    for i in range(3):
        se = sd[i] / math.sqrt(draws.b)
        assert abs(draws.mu[:, i].mean() - mean[i]) < 4 * se


def test_single_source_moments():
    data = SurveyData(["only"], [0.4], [0.01])
    jp = evaluate_joint(data, enumerate_partitions(1), build_grid(128))
    mean, sd = exact_mixture_moments(data, jp)
    assert mean[0] == pytest.approx(0.4, abs=1e-12)
    assert sd[0] == pytest.approx(0.1, abs=1e-12)


def test_identical_surveys_identical_posterior_means():
    data = SurveyData(["a", "b", "c"], [0.3, 0.3, 0.3], [0.01, 0.01, 0.01])
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(300))
    mean, _ = exact_mixture_moments(data, jp)
    assert mean == pytest.approx([0.3, 0.3, 0.3], abs=1e-10)


def test_draws_are_deterministic_given_seed(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(300))
    a = sample_mu(dixie_panel1, jp, 4000, seed=7)
    b = sample_mu(dixie_panel1, jp, 4000, seed=7)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.g_indices, b.g_indices)
    assert np.array_equal(a.delta2_values, b.delta2_values)
    c = sample_mu(dixie_panel1, jp, 4000, seed=8)
    assert not np.array_equal(a.mu, c.mu)


@pytest.mark.parametrize("l", [3, 5])
def test_cell_draws_equal_generator_choice(l):
    # the block holding source 0 and the cell are one inverse-CDF draw over the
    # block masses, index for index what Generator.choice(p=...) draws
    data = small_data(np.random.default_rng(40 + l), l)
    jp = evaluate_joint(data, enumerate_partitions(l), build_grid(150))
    draws = sample_mu(data, jp, 3000, seed=11)
    p = jp.block_mass[1::2].ravel()
    p = p / p.sum()
    expect = np.random.default_rng(11).choice(p.size, 3000, p=p)
    first = member_masks(growth_labels(draws.codes, l))[:, 0]
    cells = np.searchsorted(jp.grid.deltas2, draws.delta2_values)
    assert np.array_equal((first - 1) // 2 * jp.grid.r + cells, expect)


def test_enumeration_and_lattice_create_no_partition(monkeypatch):
    made = []
    check = Partition.__post_init__
    monkeypatch.setattr(Partition, "__post_init__", lambda p: made.append(p) or check(p))
    data = small_data(np.random.default_rng(8), 8)
    space = enumerate_partitions(8)
    jp = evaluate_joint(data, space, build_grid(20))
    draws = sample_mu(data, jp, 200, seed=0)
    exact_mixture_moments(data, jp)
    assert made == []
    table = summarize(data, jp, draws, threshold=1e-3)
    assert made == [] and 0 < len(table.partition_probs) < space.g


@pytest.mark.parametrize("l", [3, 8])
def test_labels_and_masks_per_distinct_partition_equal_per_draw(l):
    data = small_data(np.random.default_rng(60 + l), l)
    jp = evaluate_joint(data, enumerate_partitions(l), build_grid(50))
    codes = sample_mu(data, jp, 2000, seed=4).codes
    labels, masks = grid._labels_and_masks(codes, l)
    assert np.array_equal(labels, growth_labels(codes, l))
    assert np.array_equal(masks, member_masks(growth_labels(codes, l)))
    one = grid._labels_and_masks(codes[:1], l)
    assert np.array_equal(one[0], growth_labels(codes[:1], l))


@pytest.mark.parametrize("l", range(1, 8))
def test_summarize_names_every_partition_as_partition_does(l):
    data = small_data(np.random.default_rng(80 + l), l)
    space = enumerate_partitions(l)
    jp = evaluate_joint(data, space, build_grid(30))
    table = summarize(data, jp, sample_mu(data, jp, 50, seed=1), threshold=0.0)
    assert [pm.notation for pm in table.partition_probs] == [
        p.notation() for p in space.partitions]
    assert [pm.label for pm in table.partition_probs] == [
        display_label_l3(p) if l == 3 else None for p in space.partitions]


@pytest.mark.parametrize("threshold", [math.nan, -1.0, -1e-300, 1.5])
def test_summarize_rejects_threshold_outside_unit_interval(threshold):
    # nan listed nothing, and a negative threshold every partition
    data = small_data(np.random.default_rng(5), 4)
    jp = evaluate_joint(data, enumerate_partitions(4), build_grid(20))
    draws = sample_mu(data, jp, 10, seed=0)
    with pytest.raises(DomainError, match=r"threshold must be a probability in \[0, 1\]"):
        summarize(data, jp, draws, threshold=threshold)
    assert len(summarize(data, jp, draws, threshold=1.0).partition_probs) <= 1


@pytest.mark.parametrize("threshold", [0.0, 1e-3, 0.5])
def test_summarize_lists_what_a_loop_lists(threshold):
    data = small_data(np.random.default_rng(3), 5)
    jp = evaluate_joint(data, enumerate_partitions(5), build_grid(200))
    table = summarize(data, jp, sample_mu(data, jp, 100, seed=0), threshold=threshold)
    pg = marginal_g(jp)
    expect = [(p.notation(), float(pg[g])) for g, p in enumerate(jp.space.partitions)
              if pg[g] >= threshold]
    # the listing sums the subset recursion, the oracle the lattice: they agree
    # to rounding, not bit for bit
    assert [pm.notation for pm in table.partition_probs] == [n for n, _ in expect]
    assert [pm.prob for pm in table.partition_probs] == pytest.approx([p for _, p in expect],
                                                                      abs=1e-15)
    assert len(expect) == {0.0: 52, 1e-3: 5, 0.5: 1}[threshold]


def test_drawn_cells_exist_in_grid_support(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(64))
    draws = sample_mu(dixie_panel1, jp, 500, seed=3)
    assert draws.g_indices.min() >= 0 and draws.g_indices.max() < 5
    assert np.isin(draws.delta2_values, jp.grid.deltas2).all()


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_summarize_structure(dixie_panel1):
    jp = evaluate_joint(dixie_panel1, enumerate_partitions(3), build_grid(400))
    draws = sample_mu(dixie_panel1, jp, 3000, seed=0)
    table = summarize(dixie_panel1, jp, draws, threshold=0.001)
    assert table.labels == ("SAHIE", "HS", "CDC")
    assert all(lo < hi for lo, hi in zip(table.ci_lower, table.ci_upper))
    assert all(sd >= 0 for sd in table.post_sd)
    assert all(pm.prob >= 0.001 for pm in table.partition_probs)
    assert all(pm.label in {1, 2, 3, 4, 5} for pm in table.partition_probs)
    # raising the threshold can only shrink the listing
    strict = summarize(dixie_panel1, jp, draws, threshold=0.1)
    assert len(strict.partition_probs) <= len(table.partition_probs)
    json.dumps(table.to_dict())  # serializable


def test_bit_identical_rerun(dixie_panel1):
    def run():
        space = enumerate_partitions(3)
        jp = evaluate_joint(dixie_panel1, space, build_grid(500))
        draws = sample_mu(dixie_panel1, jp, 2000, seed=123)
        return summarize(dixie_panel1, jp, draws)

    a, b = run(), run()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_interval95_equals_numpy_quantile_bit_for_bit():
    rng = np.random.default_rng(95)
    for n in [*range(1, 65), 4999, 5000, 10000]:
        for shape in ((n,), (n, 3)):
            smooth = rng.normal(0.3, 0.1, size=shape)
            ties = rng.integers(0, 5, size=shape) * 0.25     # a few distinct values
            for x in (smooth, ties):
                before = x.copy()
                want = np.quantile(x, [0.025, 0.975], axis=0)
                assert _same_bits(interval95(x), want), (n, shape)
                assert np.array_equal(x, before)                # input left unsorted


def test_interval95_nan_column_gives_nan():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 3))
    x[17, 1] = np.nan
    got = interval95(x)
    assert _same_bits(got, np.quantile(x, [0.025, 0.975], axis=0))
    assert np.isnan(got[:, 1]).all() and np.isfinite(got[:, [0, 2]]).all()
    flat = x[:, 1]
    assert _same_bits(interval95(flat), np.quantile(flat, [0.025, 0.975]))
    assert np.isnan(interval95(flat)).all()
