import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from uncpool import (DELTA_STEP, DomainError, SimScenario, build_grid, enumerate_partitions,
                     evaluate_joint, generate_replicate, parse_scenario, run_scenario,
                     sd_reduction)
from uncpool import grid, kernels, simulation
from uncpool.io import sim_report_csv, sim_report_json
from uncpool.simulation import MIN_REPS_PER_WORKER, _run_replicate, median


def small_scenario(**kw):
    defaults = dict(reps=6, r=150, b=800, base_seed=11)
    defaults.update(kw)
    return SimScenario(**defaults)


def test_delta_step_constant():
    assert DELTA_STEP == 0.0193
    assert 4 * DELTA_STEP == pytest.approx(0.0772)
    assert 8 * DELTA_STEP == pytest.approx(0.1544)


def test_truth_vector_at_zero_separation():
    s = SimScenario(delta_shift=0.0)
    assert s.truth == pytest.approx([0.276, 0.276, 0.179])
    s = SimScenario(delta_shift=0.1544)
    assert s.truth == pytest.approx([0.276, 0.276, 0.3334])


def test_generate_replicate_deterministic_and_varying():
    s = small_scenario()
    a = generate_replicate(s, 2)
    b = generate_replicate(s, 2)
    c = generate_replicate(s, 3)
    assert np.array_equal(a.y_hat, b.y_hat)
    assert not np.array_equal(a.y_hat, c.y_hat)
    assert np.array_equal(a.v, [s.v1, s.v2, s.v2])


def test_generate_replicate_index_bounds():
    s = small_scenario()
    with pytest.raises(DomainError):
        generate_replicate(s, -1)
    with pytest.raises(DomainError):
        generate_replicate(s, s.reps + 1)
    # run_scenario runs replicates 0..reps-1, so index reps is one past the last
    with pytest.raises(DomainError, match=rf"outside 0\.\.{s.reps - 1}$"):
        generate_replicate(s, s.reps)
    generate_replicate(s, s.reps - 1)


def test_tiny_variances_pin_estimates_to_truth():
    s = SimScenario(v1=1e-18, v2=1e-18, delta_shift=0.0772, reps=3)
    data = generate_replicate(s, 0)
    assert np.max(np.abs(data.y_hat - s.truth)) < 1e-8


def test_third_survey_mean_law_of_large_numbers():
    s = SimScenario(delta_shift=0.0772, reps=4000)
    draws = np.array([generate_replicate(s, i).y_hat[2] for i in range(4000)])
    se = math.sqrt(s.v2 / 4000)
    assert abs(draws.mean() - (s.psi2 + s.delta_shift)) < 4 * se


def test_sd_reduction_examples():
    assert round(sd_reduction(0.020, 0.028)) == 29
    assert sd_reduction(0.5, 0.5) == 0.0
    assert sd_reduction(0.6, 0.5) < 0
    with pytest.raises(DomainError):
        sd_reduction(0.1, 0.0)


def test_single_replicate_report_equals_that_replicate():
    s = small_scenario(reps=1)
    report = run_scenario(s)
    rec = _run_replicate(s, 0)
    assert report.median_p_g == pytest.approx(rec["p_g"], abs=1e-15)
    assert report.median_post_mean == pytest.approx(rec["post_mean"], abs=1e-15)
    assert report.median_post_sd == pytest.approx(rec["post_sd"], abs=1e-15)
    assert report.coverage == pytest.approx(rec["covered"], abs=1e-15)


def test_run_scenario_deterministic():
    s = small_scenario()
    a = run_scenario(s)
    b = run_scenario(s)
    assert a == b


def test_replicates_independent_of_execution_order():
    # per-replicate derivation only depends on (base_seed, rep_index)
    s = small_scenario()
    direct = _run_replicate(s, 4)
    records = [_run_replicate(s, i) for i in (4, 1, 0)]
    assert np.array_equal(records[0]["p_g"], direct["p_g"])
    assert np.array_equal(records[0]["post_mean"], direct["post_mean"])


def variance_term_lookups() -> int:
    info = kernels._cached_terms.cache_info()
    return info.hits + info.misses


def test_one_variance_terms_lookup_per_posterior():
    # each lookup hashes the bytes of V and the grid; the table carries what it looked up
    s = small_scenario()
    data = generate_replicate(s, 0)
    before = variance_term_lookups()
    evaluate_joint(data, enumerate_partitions(3), build_grid(s.r))
    assert variance_term_lookups() - before == 1
    before = variance_term_lookups()
    _run_replicate(s, 0)
    assert variance_term_lookups() - before == 1


def test_report_fields_are_consistent():
    s = small_scenario(reps=8)
    rep = run_scenario(s)
    assert len(rep.median_p_g) == 5
    assert all(0 <= p <= 1 for p in rep.median_p_g)
    assert all(0 <= c <= 1 for c in rep.coverage)
    for c, se in zip(rep.coverage, rep.coverage_se):
        assert se == pytest.approx(math.sqrt(c * (1 - c) / s.reps), abs=1e-15)
    d = rep.to_dict()
    assert d["scenario"]["reps"] == 8
    assert len(d["median_sd_reduction"]) == 3


def test_scenario_validation():
    with pytest.raises(DomainError):
        SimScenario(reps=0)
    with pytest.raises(DomainError):
        SimScenario(v1=0.0)
    with pytest.raises(DomainError, match="v2"):
        SimScenario(v2=-1e-4)
    with pytest.raises(DomainError, match="base_seed"):
        SimScenario(base_seed=-1)


@pytest.mark.parametrize("text, field", [("r = 1\n", "grid size r"), ("r = -3\n", "grid size r"),
                                         ("b = 0\n", "draw count b")])
def test_scenario_rejects_small_grid_or_draw_count(text, field):
    # r = 1 used to fail inside the first replicate, possibly in a worker
    with pytest.raises(DomainError, match=field):
        parse_scenario(io.StringIO("reps = 2\n" + text))


def test_replicate_makes_no_draws(monkeypatch):
    # coverage reads the exact mixture CDF; posterior draws must not creep back in
    def refuse(*args, **kwargs):
        raise AssertionError("the replicate drew from the posterior")
    for module in (grid, simulation):
        for name in ("sample_mu", "interval95"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = run_scenario(small_scenario(reps=3))
    assert all(0.0 <= c <= 1.0 for c in report.coverage)


#: The criterion-4 study of tests/test_acceptance.py, 60 replicates per shift.
ACCEPTANCE_SCENARIOS = [SimScenario(delta_shift=k * DELTA_STEP, reps=60, r=2000,
                                    base_seed=20260809) for k in (0, 4, 8)]


def _report_bytes(scenarios):
    return [(sim_report_json(r), sim_report_csv(r)) for r in map(run_scenario, scenarios)]


def test_coverage_equals_a_full_cdf_reference_byte_for_byte(monkeypatch):
    fast = _report_bytes(ACCEPTANCE_SCENARIOS)

    def full_cdf_covers(data, jp, x):
        f = grid.mixture_cdf(data, jp, x)
        return (f >= 0.025) & (f <= 0.975)
    monkeypatch.setattr(simulation, "covers95", full_cdf_covers)
    assert _report_bytes(ACCEPTANCE_SCENARIOS) == fast


def test_replicates_rarely_sum_the_full_cdf(monkeypatch):
    # the head of p(j) settles nearly every coverage decision; a change that
    # loses the prefix path makes every replicate sum all 2000 cells
    calls = []
    full = grid.mixture_cdf
    monkeypatch.setattr(grid, "mixture_cdf", lambda *args: calls.append(args) or full(*args))
    for s in ACCEPTANCE_SCENARIOS:
        run_scenario(s)
    assert 100 * len(calls) <= 3 * 60


def test_replicate_allocates_one_posterior_block():
    # with the posterior in a dozen separate arrays and the V-only terms rebuilt
    # in every replicate, the peak was 1286 KB at R = 2000; one block and the
    # cached terms give 1067 KB (numpy 2.4).  The bound sits between the two.
    s = SimScenario(reps=3, r=2000, base_seed=3)
    _run_replicate(s, 0)                           # build the shared and cached terms
    tracemalloc.start()
    try:
        _run_replicate(s, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1176 * 1024


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["psi1", "psi2", "delta_shift", "v1", "v2"])
def test_scenario_rejects_non_finite_fields(field, value):
    # v1 = nan used to pass the "> 0" check and fail later inside a replicate
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        parse_scenario(io.StringIO(f"reps = 2\n{field} = {value}\n"))


def test_median_equals_numpy_median_bit_for_bit():
    rng = np.random.default_rng(50)
    for n in [*range(1, 65), 499, 500]:
        for shape in ((n,), (n, 5)):
            smooth = rng.normal(0.3, 0.1, size=shape)
            ties = rng.integers(0, 4, size=shape) * 0.25         # a few distinct values
            zeros = rng.choice([-0.0, 0.0, 1.0], size=shape)      # ties of signed zeros
            for x in (smooth, ties, zeros):
                before = x.copy()
                got, want = np.asarray(median(x)), np.asarray(np.median(x, axis=0))
                assert got.dtype == want.dtype and got.shape == want.shape, (n, shape)
                assert got.tobytes() == want.tobytes(), (n, shape)
                assert np.array_equal(x, before)                  # input left unsorted


def test_median_nan_column_gives_nan():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 500):
        x = rng.normal(size=(n, 5))
        x[n // 3, 2] = np.nan
        got = median(x)
        assert got.tobytes() == np.median(x, axis=0).tobytes()
        assert np.isnan(got[2]) and np.isfinite(np.delete(got, 2)).all()
        assert np.isnan(median(x[:, 2]))


@pytest.mark.parametrize("n_jobs, reps, cpus, workers", [
    (5000, 6, 8, [6]),   # never more workers than replicates ...
    (5000, 6, 2, [2]),   # ... or than usable CPUs
    (3, 6, 8, [3]),
    (5000, 1, 8, []),    # one worker runs in-process
    (4, 6, 1, []),
    (1, 6, 8, []),
])
def test_worker_count_is_capped(fake_pool, monkeypatch, n_jobs, reps, cpus, workers):
    # one replicate per worker suffices here, so only the other caps bind
    monkeypatch.setattr(simulation, "MIN_REPS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    s = small_scenario(reps=reps, r=60, b=100)
    assert run_scenario(s, n_jobs=n_jobs) == run_scenario(s)
    assert fake_pool == workers


@pytest.mark.parametrize("n_jobs, extra, cpus, workers", [
    (2, -1, 2, []),      # a second worker would get too few replicates ...
    (2, 0, 2, [2]),      # ... until each gets MIN_REPS_PER_WORKER
    (5000, 1, 8, [2]),   # and a third waits for 3 * MIN_REPS_PER_WORKER
    (5000, MIN_REPS_PER_WORKER, 8, [3]),
])
def test_small_studies_start_fewer_workers(fake_pool, monkeypatch, n_jobs, extra, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    s = small_scenario(reps=2 * MIN_REPS_PER_WORKER + extra, r=20, b=1)
    assert run_scenario(s, n_jobs=n_jobs) == run_scenario(s)
    assert fake_pool == workers


@pytest.mark.parametrize("reps, chunks", [(7, [4, 3]), (8, [4, 4]), (20, [10, 10])])
def test_each_worker_gets_one_even_share(fake_pool, monkeypatch, reps, chunks):
    monkeypatch.setattr(simulation, "MIN_REPS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_scenario(small_scenario(reps=reps, r=20), n_jobs=2)
    assert fake_pool == [2] and fake_pool.chunks == [chunks]


@pytest.mark.parametrize("n_jobs", [0, -4])
def test_n_jobs_below_one_is_a_domain_error(fake_pool, n_jobs):
    with pytest.raises(DomainError, match="n_jobs"):
        run_scenario(small_scenario(reps=2, r=60, b=100), n_jobs=n_jobs)
    assert fake_pool == []


def test_pooled_run_equals_serial_run_byte_for_byte(monkeypatch):
    # two real worker processes; 20 replicates span two chunks of the pool's map
    monkeypatch.setattr(simulation, "MIN_REPS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    s = small_scenario(reps=20, r=150, b=400)
    serial, pooled = run_scenario(s, n_jobs=1), run_scenario(s, n_jobs=2)
    assert sim_report_json(pooled) == sim_report_json(serial)
    assert sim_report_csv(pooled) == sim_report_csv(serial)


def test_unpooled_precise_surveys_keep_their_observed_se():
    # huge separation: survey 3 never pools with 1 or 2, and survey 2's tiny
    # SE keeps it effectively unpooled, so their posterior SDs stay at the
    # observed SEs up to grid resolution
    s = SimScenario(delta_shift=0.8, reps=30, r=600, b=500, base_seed=21)
    rep = run_scenario(s)
    se2 = math.sqrt(s.v2)
    assert rep.median_post_sd[1] == pytest.approx(se2, rel=0.05)
    assert rep.median_post_sd[2] == pytest.approx(se2, rel=0.05)
    assert abs(rep.median_sd_reduction[1]) < 5.0
    assert abs(rep.median_sd_reduction[2]) < 5.0
