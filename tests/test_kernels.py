"""The per-subset engine against the scalar oracle in ``model.py``, and the DPM chain."""

import numpy as np
import pytest

from uncpool import SurveyData, q_statistic
from uncpool.kernels import dpm_chain, q_matrix, subset_table
from uncpool.partitions import enumerate_partitions


def instance(rng, l, r):
    y = rng.normal(0.3, 0.1, size=l)
    v = rng.uniform(0.005, 0.05, size=l) ** 2
    th = (np.arange(1, r + 1) - 0.5) * (np.pi / 2) / r
    d2 = np.tan(th) ** 2
    space = enumerate_partitions(l)
    return y, v, d2, space


@pytest.mark.parametrize("l", [2, 3, 5, 8])
def test_subset_factorization_matches_direct(l):
    # summing clusters' subset rows reproduces the scalar per-cluster misfit
    rng = np.random.default_rng(10 + l)
    y, v, d2, space = instance(rng, l, 40)
    data = SurveyData([f"s{i}" for i in range(l)], y, v)
    q = q_matrix(subset_table(y, v, d2), space.cluster_masks)
    assert q.shape == (space.g, 40)
    gs = range(space.g) if space.g <= 60 else rng.choice(space.g, 60, replace=False)
    for g in gs:
        p = space.partitions[g]
        for j in (0, 17, 39):
            expect = q_statistic(data, p, float(d2[j]))
            assert q[g, j] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_partition_subset_ids_l3():
    space = enumerate_partitions(3)
    # canonical order: {123}, {12}{3}, {13}{2}, {1}{23}, {1}{2}{3}
    # masks: 0b111; 0b011,0b100; 0b101,0b010; 0b001,0b110; 0b001,0b010,0b100
    expected = [[6], [2, 3], [4, 1], [0, 5], [0, 1, 3]]
    got = [[int(m) - 1 for m in row if m] for row in space.cluster_masks]
    assert got == expected
    # each source's cluster, as a mask, read off the same partitions
    assert space.member_masks.tolist() == [[7, 7, 7], [3, 3, 4], [5, 2, 5],
                                           [1, 6, 6], [1, 2, 4]]


def test_subset_terms_singletons_are_zero():
    rng = np.random.default_rng(2)
    y, v, d2, _ = instance(rng, 4, 20)
    table = subset_table(y, v, d2)
    for i in range(4):
        assert np.max(np.abs(table.q[1 << i])) < 1e-12
        assert table.ybar[1 << i] == pytest.approx(np.full(20, y[i] - table.shift), abs=1e-15)
        assert table.a[1 << i] == pytest.approx(1.0 / (d2 + v[i]), rel=1e-15)
    assert not table.q[0].any() and not table.a[0].any()


def _chain_inputs(seed=4, t=400, l=3):
    rng = np.random.default_rng(seed)
    y = np.array([0.254, 0.361, 0.359])
    v = np.array([0.014, 0.028, 0.014]) ** 2
    uniforms = rng.random((t, l))
    norm_phi = rng.standard_normal((t, l))
    norm_eta = rng.standard_normal(t)
    gammas = np.empty((t, l))
    for k in range(1, l + 1):
        gammas[:, k - 1] = rng.gamma(1.0 + k / 2.0, 1.0, size=t)
    return (y, v, 3.0, 0.31, 0.011, 0.0075, 0.31, 0.00375,
            True, True, 100, 1, uniforms, norm_phi, norm_eta, gammas)


def test_dpm_chain_thinning_and_shapes():
    args = list(_chain_inputs(t=250))
    args[11] = 3  # thin
    z, th, eta, tau = dpm_chain(*args)
    assert z.shape == (50, 3) and th.shape == (50, 3)
    assert eta.shape == (50,) and tau.shape == (50,)
    assert np.all(tau > 0)
    assert z.min() >= 0 and z.max() <= 2
