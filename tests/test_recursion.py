"""The subset recursion against the partition x cell lattice it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncpool import (SurveyData, build_grid, enumerate_partitions, evaluate_joint,
                     exact_mixture_moments, log_inv_beta_prior, marginal_g, pool_all,
                     sample_mu, summarize)
from uncpool import grid, kernels, partitions
from uncpool.grid import _listed_partitions
from uncpool.kernels import partition_sums, q_matrix, subset_splits, subset_table
from uncpool.partitions import PartitionSpace, growth_codes, member_masks


def lattice(data, grid):
    """Normalised (G, R) log masses and log evidence, summed over the whole lattice."""
    space = enumerate_partitions(data.l)
    y, v, d2 = data.y_hat, data.v, grid.deltas2
    table = subset_table(y, v, d2)
    base = 0.5 * np.log(v[:, None] / (d2[None, :] + v[:, None])).sum(axis=0)
    lm = -0.5 * q_matrix(table, space.cluster_masks)
    lm += (base + log_inv_beta_prior(d2) + grid.log_prior_mass - math.log(space.g))[None, :]
    lm -= 0.5 * space.d_array[:, None]
    top = lm.max()
    log_z = float(top + np.log(np.exp(lm - top).sum()))
    return space, table, lm - log_z, log_z


def lattice_moments(data, space, table, lm):
    """Mean and SD of each mu_i over every (partition, cell), the SD about the mean."""
    w = np.exp(lm)
    d2 = table.terms.deltas2
    mean, sd = np.empty(data.l), np.empty(data.l)
    member = member_masks(space.assignment_array)
    for i in range(data.l):
        rows = member[:, i]
        oml = data.v[i] / (d2 + data.v[i])
        cond_mean = d2 / (d2 + data.v[i]) * (data.y_hat[i] - table.shift) + oml * table.ybar[rows]
        cond_var = d2 * oml + oml * oml / table.a[rows]
        mean[i] = (w * cond_mean).sum()
        sd[i] = math.sqrt((w * (cond_var + (cond_mean - mean[i]) ** 2)).sum())
    return table.shift + mean, sd


def random_data(rng, l):
    """Estimates with sampling variances spanning 1e-6 to 1."""
    return SurveyData([f"s{i}" for i in range(l)], rng.normal(0.3, 0.3, size=l),
                      10.0 ** rng.uniform(-6.0, 0.0, size=l))


@pytest.mark.parametrize("l", [9, 12])
def test_splits_count_past_eight_sources(l):
    splits = subset_splits(l)
    assert splits.block.shape == ((3 ** l - 1) // 2,)
    sizes = np.array([bin(s).count("1") for s in range(1, 1 << l)])
    assert np.array_equal(splits.count[1:], 1 << (sizes - 1))
    assert splits.count[-1] == 1 << (l - 1)
    assert [rows.stop - rows.start for _, rows in splits.layers] == [
        math.comb(l, c) << (c - 1) for c in range(1, l + 1)]


def test_splits_cover_every_block_once():
    for l in range(1, 7):
        splits = subset_splits(l)
        assert splits.block.shape == ((3 ** l - 1) // 2,)
        assert splits.count[-1] == 1 << (l - 1)
        for u in range(1, 1 << l):
            rows = slice(splits.start[u], splits.start[u] + splits.count[u])
            low = u & -u
            expect = sorted(low | t for t in range(1 << l) if t & ~(u ^ low) == 0)
            assert sorted(splits.block[rows].tolist()) == expect
            assert np.array_equal(splits.rest[rows], u ^ splits.block[rows])


@pytest.mark.parametrize("l", range(1, 9))
def test_partition_sums_match_products_over_partitions(l):
    rng = np.random.default_rng(l)
    phi = rng.uniform(0.05, 1.0, size=(1 << l, 7))
    phi[0] = 1.0      # pads the cluster lists of partitions with fewer than L blocks
    space = enumerate_partitions(l)
    brute = np.prod(phi[space.cluster_masks], axis=1).sum(axis=0)
    assert partition_sums(phi)[-1] == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize("l", range(1, 10))
def test_partition_sums_equal_take_multiply_sum_bit_for_bit(l):
    # the einsum over each layer's splits sums the products in the order of a
    # take, an in-place multiply and a sum over the splits of each subset
    phi = np.random.default_rng(30 + l).uniform(0.0, 1.0, size=(1 << l, 37))
    phi[0] = 0.0
    want = np.empty_like(phi)
    want[0] = 1.0
    for us, block, rest, ph, zc in kernels._split_layers(phi, want):
        prod = ph.take(block, axis=0)
        prod *= zc.take(rest, axis=0)
        zc[us] = prod.reshape(us.shape[0], -1, prod.shape[1]).sum(axis=1)
    got = partition_sums(phi)
    assert got.tobytes() == want.tobytes()


def test_partition_sums_in_column_blocks(monkeypatch):
    phi = np.random.default_rng(0).uniform(0.05, 1.0, size=(1 << 6, 11))
    whole = partition_sums(phi)
    monkeypatch.setattr(kernels, "_SPLIT_CELLS", 300)   # forces blocks of 2 columns
    assert partition_sums(phi) == pytest.approx(whole, rel=1e-15)


def test_log_partition_sums_in_column_blocks(monkeypatch):
    log_phi = np.random.default_rng(1).uniform(-800.0, 800.0, size=(1 << 6, 11))
    whole = kernels.log_partition_sums(log_phi)
    monkeypatch.setattr(kernels, "_SPLIT_CELLS", 300)   # forces blocks of 2 columns
    assert np.array_equal(kernels.log_partition_sums(log_phi), whole)


@pytest.mark.parametrize("l", range(1, 11))
def test_recursion_matches_lattice(l):
    rng = np.random.default_rng(100 + l)
    data = random_data(rng, l)
    grid = build_grid(60 if l <= 8 else 12)
    space, table, lm, log_z = lattice(data, grid)
    jp = evaluate_joint(data, space, grid)
    assert jp.log_evidence == pytest.approx(log_z, abs=1e-12)
    assert np.max(np.abs(jp.delta2_probs - np.exp(lm).sum(axis=0))) < 1e-12
    mean, sd = exact_mixture_moments(data, jp)
    want_mean, want_sd = lattice_moments(data, space, table, lm)
    assert np.max(np.abs(mean - want_mean)) < 1e-12
    assert np.max(np.abs(sd - want_sd)) < 1e-12
    pg = np.exp(lm).sum(axis=1)
    codes, probs = _listed_partitions(jp, 0.0)
    every = growth_codes(space.assignment_array)
    assert np.array_equal(codes, every)
    assert np.max(np.abs(probs - pg)) < 1e-12
    assert np.max(np.abs(marginal_g(jp) - pg)) < 1e-12
    # the pruned listing keeps exactly the partitions at or above the threshold
    assert np.array_equal(_listed_partitions(jp, 1e-3)[0], every[pg >= 1e-3])


@pytest.mark.parametrize("cells", [1, 1 << 10, 1 << 62])
def test_listing_in_chunks_equals_the_unchunked_walk(monkeypatch, cells):
    # chunks of one prefix, of a few splits and of every prefix of a level
    # give the same partitions and bit-identical masses
    data = random_data(np.random.default_rng(71), 7)
    jp = evaluate_joint(data, enumerate_partitions(7), build_grid(40))
    monkeypatch.setattr(grid, "_LIST_CELLS", 1 << 62)     # a level at a time: no chunks
    whole = [_listed_partitions(jp, t) for t in (0.0, 1e-4)]
    monkeypatch.setattr(grid, "_LIST_CELLS", cells)
    for t, (codes, probs) in zip((0.0, 1e-4), whole):
        got_codes, got_probs = _listed_partitions(jp, t)
        assert np.array_equal(got_codes, codes) and got_probs.tobytes() == probs.tobytes()
    assert whole[0][0].shape == (877,)


def test_marginal_g_memory_does_not_grow_with_bell_l_times_r():
    # the whole Bell(9) x 2000 frontier held 324 MB at once; chunks hold a few MB
    import tracemalloc

    data = random_data(np.random.default_rng(9), 9)
    jp = evaluate_joint(data, enumerate_partitions(9), build_grid(2000))
    tracemalloc.start()
    try:
        pg = marginal_g(jp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pg.shape == (21147,) and pg.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak < 32 * 2 ** 20, peak


@pytest.mark.parametrize("l", [4, 8, 10])
def test_peel_draws_follow_exact_posterior(l):
    from scipy.stats import chi2

    rng = np.random.default_rng(7 * l)
    centres = np.array([0.2, 0.3, 0.45])[np.arange(l) % 3]
    se = rng.uniform(0.01, 0.04, size=l)
    data = SurveyData([f"s{i}" for i in range(l)], rng.normal(centres, se), se ** 2)
    jp = evaluate_joint(data, enumerate_partitions(l), build_grid(40))
    b = 200_000
    draws = sample_mu(data, jp, b, seed=l)
    cells = np.searchsorted(jp.grid.deltas2, draws.delta2_values)
    for exact, idx in ((marginal_g(jp), draws.g_indices), (jp.delta2_probs, cells)):
        expected = b * exact
        big = expected >= 5.0
        observed = np.bincount(idx, minlength=exact.size)
        obs, exp = observed[big], expected[big]
        if expected[~big].sum() >= 5.0:      # pool the rare outcomes into one bin
            obs = np.append(obs, observed[~big].sum())
            exp = np.append(exp, expected[~big].sum())
        else:
            obs[-1] += observed[~big].sum()
            exp[-1] += expected[~big].sum()
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert stat < chi2.ppf(1.0 - 1e-4, obs.size - 1), (stat, obs.size - 1)


def test_pool_pipeline_never_builds_the_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice was built")

    def refuse_enumeration(*args, **kwargs):
        raise AssertionError("the Bell(L) enumeration was built")

    monkeypatch.setattr(kernels, "q_matrix", refuse)
    monkeypatch.setattr(partitions, "_growth_string_array", refuse_enumeration)
    data = random_data(np.random.default_rng(8), 8)
    grid = build_grid(50)
    jp = evaluate_joint(data, enumerate_partitions(8), grid)
    pa = pool_all(data, grid, b=500, seed=1, jp=jp)
    draws = sample_mu(data, jp, 500, seed=2)
    table = summarize(data, jp, draws, pool_all=pa, threshold=1e-3)
    assert table.partition_probs and "log_mass" not in vars(jp)
    monkeypatch.setattr("uncpool.grid.PartitionSpace", refuse)
    assert pool_all(data, grid, b=500, seed=1).mean == pa.mean
    assert "space" not in vars(jp)   # the posterior's partition space is never read
    monkeypatch.undo()
    # the draws' partition indices stay readable, built from the enumeration on demand
    assert np.array_equal(draws.g_indices, PartitionSpace(8).index_of_codes(draws.codes))


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_recursion_permutes_with_the_sources(draw):
    l = draw.draw(st.integers(1, 6))
    y = np.array(draw.draw(st.lists(st.floats(-1.0, 1.0), min_size=l, max_size=l)))
    v = 10.0 ** np.array(draw.draw(st.lists(st.floats(-6.0, 0.0), min_size=l, max_size=l)))
    perm = np.array(draw.draw(st.permutations(range(l))))
    grid = build_grid(30)
    data = SurveyData([f"s{i}" for i in range(l)], y, v)
    moved = SurveyData([f"s{i}" for i in perm], y[perm], v[perm])
    space = enumerate_partitions(l)
    jp, jq = evaluate_joint(data, space, grid), evaluate_joint(moved, space, grid)
    mean, sd = exact_mixture_moments(data, jp)
    mean_q, sd_q = exact_mixture_moments(moved, jq)
    assert np.max(np.abs(jq.delta2_probs - jp.delta2_probs)) < 1e-12
    assert np.max(np.abs(mean_q - mean[perm])) < 1e-12
    assert np.max(np.abs(sd_q - sd[perm])) < 1e-12
    _, table, lm, _ = lattice(data, grid)
    assert np.max(np.abs(jp.delta2_probs - np.exp(lm).sum(axis=0))) < 1e-12
    want_mean, want_sd = lattice_moments(data, space, table, lm)
    assert np.max(np.abs(mean - want_mean)) < 1e-12
    assert np.max(np.abs(sd - want_sd)) < 1e-12
