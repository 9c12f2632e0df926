"""The per-subset engine against the scalar oracle in ``model.py``, and ``baselines.dpm_chain``."""

import math
from bisect import insort
from itertools import accumulate

import numpy as np
import pytest

from uncpool import ComputationError, DpmConfig, SurveyData, dpm_gibbs, q_statistic
from uncpool import baselines, kernels
from uncpool.baselines import dpm_chain
from uncpool.kernels import q_matrix, subset_table
from uncpool.partitions import enumerate_partitions, member_masks

from conftest import make_dixie


def instance(rng, l, r):
    y = rng.normal(0.3, 0.1, size=l)
    v = rng.uniform(0.005, 0.05, size=l) ** 2
    th = (np.arange(1, r + 1) - 0.5) * (np.pi / 2) / r
    d2 = np.tan(th) ** 2
    space = enumerate_partitions(l)
    return y, v, d2, space


TERM_ARRAYS = ("w", "a", "inv_a", "oml", "within", "log_cell", "cdf_sd")


@pytest.mark.parametrize("name", TERM_ARRAYS)
def test_cached_variance_terms_are_read_only(name):
    _, v, d2, _ = instance(np.random.default_rng(3), 3, 16)
    arr = getattr(kernels.variance_terms(v, d2), name)
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        arr *= 2.0


def test_variance_terms_are_cached_by_value_and_bounded():
    _, v, d2, _ = instance(np.random.default_rng(4), 3, 16)
    terms = kernels.variance_terms(v, d2)
    assert kernels.variance_terms(v.copy(), d2.copy()) is terms     # keyed on the values
    assert kernels.variance_terms(v * 2.0, d2) is not terms
    assert kernels.variance_terms(v, d2 * 2.0) is not terms
    for k in range(10):
        kernels.variance_terms(v + k, d2)
    info = kernels._cached_terms.cache_info()
    assert info.maxsize == 4 and info.currsize <= 4


def test_variance_terms_match_their_formulas():
    y, v, d2, _ = instance(np.random.default_rng(5), 4, 30)
    terms = kernels.variance_terms(v, d2)
    w = 1.0 / (d2[None, :] + v[:, None])
    assert np.array_equal(terms.w, w)
    assert np.allclose(terms.oml, v[:, None] * w, rtol=1e-15, atol=0)       # 1 - lam
    member = kernels.membership(4)
    assert np.allclose(terms.a, member.T @ w, rtol=1e-14, atol=0)
    assert np.array_equal(terms.inv_a[1:], 1.0 / terms.a[1:]) and not terms.inv_a[0].any()
    s2 = terms.within[:, None, :] + terms.oml[:, None, :] ** 2 / terms.a[kernels.holders(4)]
    assert np.allclose(terms.cdf_sd, np.sqrt(2.0 * s2), rtol=1e-15, atol=0)
    assert np.array_equal(subset_table(y, v, d2).terms.a, terms.a)


@pytest.mark.parametrize("l", [2, 3, 5, 8])
def test_subset_factorization_matches_direct(l):
    # summing clusters' subset rows reproduces the scalar per-cluster misfit
    rng = np.random.default_rng(10 + l)
    y, v, d2, space = instance(rng, l, 40)
    data = SurveyData([f"s{i}" for i in range(l)], y, v)
    q = q_matrix(subset_table(y, v, d2).q, space.cluster_masks)
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
    assert member_masks(space.assignment_array).tolist() == [
        [7, 7, 7], [3, 3, 4], [5, 2, 5], [1, 6, 6], [1, 2, 4]]


def test_subset_terms_singletons_are_zero():
    rng = np.random.default_rng(2)
    y, v, d2, _ = instance(rng, 4, 20)
    table = subset_table(y, v, d2)
    for i in range(4):
        assert np.max(np.abs(table.q[1 << i])) < 1e-12
        assert table.ybar[1 << i] == pytest.approx(np.full(20, y[i] - table.shift), abs=1e-15)
        assert table.terms.a[1 << i] == pytest.approx(1.0 / (d2 + v[i]), rel=1e-15)
    assert not table.q[0].any() and not table.terms.a[0].any()


@pytest.mark.parametrize("c", [0.3, 1e16, 1e20, 1e300])
def test_centre_of_equal_estimates_is_their_value(c):
    # the weighted sums land an ulp away (5.6e-17 at 0.3, 16384 at 1e20)
    v = np.array([0.014, 0.028, 0.028]) ** 2
    assert kernels.centre(np.full(3, c), v) == c
    assert not subset_table(np.full(3, c), v, np.ones(2)).ybar.any()


def test_centre_still_reports_an_overflow():
    with np.errstate(all="raise"):
        assert not math.isfinite(kernels.centre(np.full(2, 1.0), np.full(2, 1e-320)))


def test_erfc_matches_math_erfc():
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(-6.0, 27.0, 330_001), rng.uniform(-6.0, 27.0, 100_000),
                        [0.0, -0.0, 0.46875, -0.46875, 4.0, -4.0, 26.543, 5e-324]])
    got = kernels.erfc(x)
    want = np.array([math.erfc(v) for v in x])
    normal = want >= 1e-300
    assert np.all(np.abs(got[normal] - want[normal]) <= 2e-15 * want[normal])
    assert np.all(got[~normal] <= 1e-300)


def test_erfc_limits_and_shape():
    got = kernels.erfc(np.array([[np.inf, -np.inf], [np.nan, 40.0]]))
    assert got.shape == (2, 2)
    assert got[0].tolist() == [0.0, 2.0] and np.isnan(got[1, 0]) and got[1, 1] == 0.0


@pytest.mark.parametrize("l", [1, 3, 5])
def test_log_partition_sums_is_the_log_of_partition_sums(l):
    rng = np.random.default_rng(40 + l)
    phi = rng.uniform(0.05, 3.0, size=(1 << l, 7))
    phi[0] = 0.0
    lz = kernels.log_partition_sums(np.log(np.where(phi > 0, phi, 1.0)))
    assert np.allclose(lz, np.log(kernels.partition_sums(phi)), rtol=0, atol=1e-13)


def test_log_partition_sums_survives_scores_past_the_float_range():
    # block scores of +-800 nats: exp() of any one of them overflows or underflows
    l = 4
    rng = np.random.default_rng(44)
    log_phi = rng.uniform(-800.0, 800.0, size=(1 << l, 5))
    lz = kernels.log_partition_sums(log_phi)
    padded = np.vstack([np.zeros((1, 5)), log_phi[1:]])    # the empty set pads with 0
    per_partition = padded[enumerate_partitions(l).cluster_masks].sum(axis=1)   # (G, 5)
    top = per_partition.max(axis=0)
    want = top + np.log(np.exp(per_partition - top).sum(axis=0))
    assert np.all(np.isfinite(lz))
    assert np.allclose(lz[-1], want, rtol=1e-15, atol=0)


def test_negligible_drops_the_lightest_entries_within_the_budget():
    rng = np.random.default_rng(5)
    w = 10.0 ** rng.uniform(-30.0, 0.0, size=5000)
    for budget in (0.0, 1e-20, 1e-12, 1e-6, 1e-2):
        drop = kernels.negligible(w, budget)
        assert w[drop].sum() <= budget
        if drop.any():
            assert w[drop].max() <= w[~drop].min()
    # whole binary-exponent buckets go, so it drops nearly as many as a sort would
    n_sorted = np.searchsorted(np.cumsum(np.sort(w)), 1e-12, side="right")
    assert kernels.negligible(w, 1e-12).sum() >= 0.9 * n_sorted


def _mixture_cdf(w, m, s, x):
    return 0.5 * math.fsum(wk * math.erfc((mk - x) / (sk * math.sqrt(2.0)))
                           for wk, mk, sk in zip(w, m, s))


def test_mixture_quantiles_of_one_normal():
    x = kernels.mixture_quantiles(np.ones(1), np.array([0.3]), np.array([0.02]),
                                  np.zeros(1, dtype=np.int64), (0.025, 0.5, 0.975))
    assert x.shape == (1, 3)
    assert x[0] == pytest.approx([0.3 - 1.959963984540054 * 0.02, 0.3,
                                  0.3 + 1.959963984540054 * 0.02], abs=1e-13)


def test_mixture_quantiles_solve_skewed_and_bimodal_mixtures():
    # mixture 0: two far modes with a 0.03 / 0.97 split, so the 2.5% point sits
    # in the small mode and a Newton step from the mean lands in the empty valley;
    # mixture 1: a long right tail; mixture 2: many random components
    rng = np.random.default_rng(8)
    comps = [([0.03, 0.97], [-5.0, 0.0], [0.1, 0.1]),
             ([0.9, 0.09, 0.01], [0.0, 0.5, 3.0], [0.05, 0.3, 1.0])]
    w3 = rng.uniform(size=300)
    comps.append((w3 / w3.sum(), rng.normal(0.0, 1.0, 300), rng.uniform(0.01, 0.5, 300)))
    w = np.concatenate([np.asarray(c[0], float) for c in comps])
    m = np.concatenate([np.asarray(c[1], float) for c in comps])
    s = np.concatenate([np.asarray(c[2], float) for c in comps])
    owner = np.repeat(np.arange(3), [len(c[0]) for c in comps])
    levels = (0.025, 0.975)
    x = kernels.mixture_quantiles(w, m, s, owner, levels)
    for k, (wk, mk, sk) in enumerate(comps):
        for j, q in enumerate(levels):
            assert abs(_mixture_cdf(wk, mk, sk, x[k, j]) - q) < 1e-12
    assert x[0, 0] < -4.0


def test_mixture_quantile_on_a_step_is_where_its_bracket_closes():
    # two point-like components: F jumps from 0.5 to 1 at x = 1, where it is
    # 0.75, so F(x) = 0.6 has no root and the bracket closes on the step
    x = kernels.mixture_quantiles(np.full(2, 0.5), np.array([0.0, 1.0]), np.full(2, 1e-150),
                                  np.zeros(2, dtype=np.int64), (0.6,))
    assert x[0, 0] == 1.0


def test_mixture_quantiles_that_do_not_converge_raise(monkeypatch):
    monkeypatch.setattr(kernels, "_QUANTILE_STEPS", 1)
    with pytest.raises(ComputationError, match="did not converge in 1 steps"):
        kernels.mixture_quantiles(np.full(2, 0.5), np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                                  np.zeros(2, dtype=np.int64), (0.025, 0.975))


# ``baselines.dpm_chain``, the DPM's Gibbs sweeps, tested here under the
# names its tests have always had.
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


# The reference chain: a scan for each source's cluster, every cluster
# re-summed at every site, and a preallocated history.  ``dpm_chain`` must
# reproduce it bit for bit.
def reference_chain(y, v, m, eta_b, s_b, phi2, eta0, tau20,
                    update_eta, update_tau2, burn, thin,
                    uniforms, norm_phi, norm_eta, gammas):
    T, L = uniforms.shape
    y, v = y.tolist(), v.tolist()
    keep = range(burn, T, thin)
    z_hist = np.empty((len(keep), L), dtype=np.int64)
    theta_hist = np.empty((len(keep), L))
    eta_hist = np.empty(len(keep))
    tau2_hist = np.empty(len(keep))

    # cluster c is the ascending member list clusters[c]
    clusters = [[i] for i in range(L)]
    eta, tau2 = eta0, tau20
    log_m, log2pi = math.log(m), math.log(2.0 * math.pi)

    def posterior(members):
        """Mean and variance of a cluster's value given its members."""
        prec, num = 1.0 / tau2, eta / tau2
        for j in members:
            prec += 1.0 / v[j]
            num += y[j] / v[j]
        return num / prec, 1.0 / prec

    for t in range(T):
        u = uniforms[t].tolist()
        for i in range(L):
            # detach i; deleting an emptied cluster shifts later labels down
            c = next(c for c, members in enumerate(clusters) if i in members)
            clusters[c].remove(i)
            if not clusters[c]:
                del clusters[c]
            # posterior predictive weight for each existing cluster, then a new one
            logw = []
            for members in clusters:
                mc, sc = posterior(members)
                tot = sc + v[i]
                logw.append(math.log(len(members)) - 0.5 * (log2pi + math.log(tot))
                            - 0.5 * (y[i] - mc) ** 2 / tot)
            tot = tau2 + v[i]
            logw.append(log_m - 0.5 * (log2pi + math.log(tot)) - 0.5 * (y[i] - eta) ** 2 / tot)
            mx = max(logw)
            acc = list(accumulate([math.exp(lw - mx) for lw in logw]))
            target = u[i] * acc[-1]
            pick = next((c for c, a in enumerate(acc) if a >= target), len(clusters))
            if pick < len(clusters):
                insort(clusters[pick], i)
            else:
                clusters.append([i])
        # cluster values, base mean, base variance
        phi = []
        for members, n in zip(clusters, norm_phi[t].tolist()):
            mc, sc = posterior(members)
            phi.append(mc + math.sqrt(sc) * n)
        k = len(clusters)
        if update_eta:
            prec, num = 1.0 / s_b + k / tau2, eta_b / s_b
            for p in phi:
                num += p / tau2
            eta = num / prec + math.sqrt(1.0 / prec) * float(norm_eta[t])
        if update_tau2:
            rate = phi2 / 2.0
            for p in phi:
                rate += 0.5 * (p - eta) ** 2
            tau2 = rate / float(gammas[t, k - 1])
        if t in keep:
            row = (t - burn) // thin
            z = [0] * L
            for c, members in enumerate(clusters):
                for j in members:
                    z[j] = c
            z_hist[row] = z
            theta_hist[row] = [phi[c] for c in z]
            eta_hist[row] = eta
            tau2_hist[row] = tau2
    return z_hist, theta_hist, eta_hist, tau2_hist


def _random_chain_inputs(rng, l, t, burn, thin, update_eta, update_tau2):
    y = rng.normal(0.3, 0.1, size=l)
    v = rng.uniform(0.005, 0.05, size=l) ** 2
    phi1 = rng.uniform(1.0, 4.0)
    gammas = np.empty((t, l))
    uniforms = rng.random((t, l))
    norm_phi = rng.standard_normal((t, l))
    norm_eta = rng.standard_normal(t)
    for k in range(1, l + 1):
        gammas[:, k - 1] = rng.gamma(phi1 / 2.0 + k / 2.0, 1.0, size=t)
    m, phi2 = rng.uniform(0.3, 5.0), 2.0 * float(np.var(y)) + 1e-4
    return (y, v, m, float(y.mean()), rng.uniform(0.005, 0.05), phi2,
            float(rng.normal(0.3, 0.05)), phi2 / phi1, update_eta, update_tau2, burn, thin,
            uniforms, norm_phi, norm_eta, gammas)


@pytest.mark.parametrize("update_tau2", [False, True])
@pytest.mark.parametrize("update_eta", [False, True])
@pytest.mark.parametrize("l", [1, 2, 3, 5, 8])
def test_dpm_chain_matches_reference_bit_for_bit(l, update_eta, update_tau2):
    for seed in range(3):
        for thin in (1, 3):
            rng = np.random.default_rng([l, seed, thin, update_eta, update_tau2])
            args = _random_chain_inputs(rng, l, 240, 40 + seed, thin, update_eta, update_tau2)
            for got, want in zip(dpm_chain(*args), reference_chain(*args), strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)


def test_dpm_gibbs_reference_panel_matches_reference_chain(monkeypatch):
    # Dixie k=1 at the default 12000 sweeps, through the library entry point
    data = make_dixie(1.0)
    got = dpm_gibbs(data, DpmConfig())
    monkeypatch.setattr(baselines, "dpm_chain", reference_chain)
    want = dpm_gibbs(data, DpmConfig())
    for name in ("assignments", "theta", "eta", "tau2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert (got.post_mean, got.post_sd, got.ci_lower, got.ci_upper) == \
        (want.post_mean, want.post_sd, want.ci_lower, want.ci_upper)
