import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from uncpool import (DpmConfig, ReportDocument, build_grid, dpm_gibbs, enumerate_partitions,
                     evaluate_joint, marginal_g, parse_input)
from uncpool.cli import DPM_QUADRATURE_MAX_L, build_parser, run_command

from conftest import make_dixie

DIXIE_CSV = "label,estimate,se\nSAHIE,0.254,0.014\nHS,0.361,0.028\nCDC,0.359,0.014\n"


@pytest.fixture
def dixie_file(tmp_path):
    f = tmp_path / "dixie.csv"
    f.write_text(DIXIE_CSV, encoding="utf-8")
    return f


def test_partitions_lists_five_lines(capsys):
    assert run_command(["partitions", "--l", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["{1,2,3}", "{1,2}|{3}", "{1,3}|{2}", "{1}|{2,3}", "{1}|{2}|{3}"]


def test_partitions_with_masses(dixie_file, capsys):
    assert run_command(["partitions", "--l", "3", "--input", str(dixie_file), "--r", "400"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    masses = [float(line.split("\t")[1]) for line in lines]
    assert sum(masses) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("l", range(1, 9))
def test_partitions_listing_names_rows_as_partition_does(l, tmp_path, capsys):
    space = enumerate_partitions(l)
    want = [p.notation() for p in space.partitions]
    assert run_command(["partitions", "--l", str(l)]) == 0
    assert capsys.readouterr().out.splitlines() == want
    rng = np.random.default_rng(l)
    rows = "".join(f"s{i},{y!r},{se!r}\n" for i, (y, se) in
                   enumerate(zip(rng.normal(0.3, 0.05, l).tolist(),
                                 rng.uniform(0.01, 0.03, l).tolist())))
    f = tmp_path / "in.csv"
    f.write_text("label,estimate,se\n" + rows, encoding="utf-8")
    assert run_command(["partitions", "--l", str(l), "--input", str(f), "--r", "30"]) == 0
    masses = marginal_g(evaluate_joint(parse_input(str(f)), space, build_grid(30)))
    assert capsys.readouterr().out.splitlines() == [f"{name}\t{m:.6f}"
                                                    for name, m in zip(want, masses)]


def test_pool_report_embeds_config_and_reproduces(dixie_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["pool", "--input", str(dixie_file), "--seed", "7", "--r", "500",
            "--b", "1500"]
    assert run_command(args + ["--output", str(out1)]) == 0
    doc = ReportDocument.from_json(out1.read_text(encoding="utf-8"))
    assert doc.config["seed"] == 7 and doc.config["r"] == 500 and doc.config["b"] == 1500
    assert doc.input["labels"] == ["SAHIE", "HS", "CDC"]
    assert {row["label"] for row in doc.results["summary"]["rows"]} == {"SAHIE", "HS", "CDC"}
    assert "pool_all" in doc.results["summary"]
    # echoed config reproduces the report bit-exactly
    rerun = ["pool", "--input", str(dixie_file), "--seed", str(doc.config["seed"]),
             "--r", str(doc.config["r"]), "--b", str(doc.config["b"]),
             "--output", str(out2)]
    assert run_command(rerun) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_pool_threshold_flag(dixie_file, tmp_path):
    out = tmp_path / "r.json"
    assert run_command(["pool", "--input", str(dixie_file), "--r", "300",
                        "--b", "500", "--threshold", "0.3",
                        "--output", str(out)]) == 0
    doc = ReportDocument.from_json(out.read_text(encoding="utf-8"))
    probs = doc.results["summary"]["partition_probs"]
    assert all(p["prob"] >= 0.3 for p in probs)
    assert len(probs) >= 1


@pytest.mark.parametrize("threshold", ["nan", "-1", "2"])
def test_pool_rejects_threshold_outside_unit_interval(dixie_file, capsys, threshold):
    assert run_command(["pool", "--input", str(dixie_file), "--threshold", threshold]) == 1
    assert "threshold" in capsys.readouterr().err


def test_pool_markdown_and_csv(dixie_file, capsys):
    assert run_command(["pool", "--input", str(dixie_file), "--r", "300",
                        "--b", "500", "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert "| Survey |" in md and "pool-all" in md
    assert run_command(["pool", "--input", str(dixie_file), "--r", "300",
                        "--b", "500", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "survey,observed,post_mean,observed_se,post_sd,ci_lower,ci_upper"
    assert "partition,label,prob" in csv_out


def test_pool_report_of_precise_sources_has_no_nan(tmp_path):
    f = tmp_path / "precise.csv"
    f.write_text("label,estimate,se\na,0.30,1e-10\nb,0.31,1e-10\nc,0.20,0.02\n",
                 encoding="utf-8")
    for fmt in ("json", "csv"):
        out = tmp_path / f"r.{fmt}"
        assert run_command(["pool", "--input", str(f), "--r", "2000", "--b", "500",
                            "--format", fmt, "--output", str(out)]) == 0
        assert "nan" not in out.read_text(encoding="utf-8").lower()


SUMMARY = "label,estimate,se\n"

UNUSABLE_INPUTS = {
    "subnormal-variance": (SUMMARY + "A,0.2,1e-160\nB,0.3,0.02\n", "line 2: "),
    "precision-sum-overflows": (SUMMARY + "A,0.2,1e-154\nB,0.3,1e-154\nC,0.25,1e-154\n",
                                "line 3: "),
    "estimates-near-1e155": (SUMMARY + "A,-1e155,1\nB,1e155,1\n", ""),
    "estimates-near-1e300": (SUMMARY + "A,-1e300,1\nB,1e300,1\n", ""),
    "binomial-total-past-the-float-range": (
        f"label,cases,total\nA,3,{10 ** 400}\nB,4,10\n", "line 2: "),
    "binomial-cases-a-float-cannot-tell-from-total": (
        f"label,cases,total\nA,4,10\nB,{10 ** 20 - 1},{10 ** 20}\n", "line 3: "),
}


@pytest.mark.parametrize("cmd", ["pool", "pool-all", "dpm"])
@pytest.mark.parametrize("case", sorted(UNUSABLE_INPUTS))
def test_unusable_numbers_exit_with_one_error_line(tmp_path, capsys, cmd, case):
    text, where = UNUSABLE_INPUTS[case]
    f = tmp_path / "in.csv"
    f.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = run_command([cmd, "--input", str(f), "--output", str(out)])
    assert status == 1
    assert not out.exists()
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + where), err


def test_estimates_near_the_float_range_with_small_ses_pool(tmp_path):
    # y / V would overflow in the centring shift, though every centred value is 0
    f = tmp_path / "in.csv"
    f.write_text(SUMMARY + "A,1e300,1e-5\nB,1e300,1e-5\n", encoding="utf-8")
    results = {}
    for cmd in ("pool", "pool-all"):
        out = tmp_path / f"{cmd}.json"
        assert run_command([cmd, "--input", str(f), "--r", "200", "--b", "500",
                            "--output", str(out)]) == 0
        results[cmd] = ReportDocument.from_json(out.read_text(encoding="utf-8")).results
    assert [row["post_mean"] for row in results["pool"]["summary"]["rows"]] == [1e300, 1e300]
    assert results["pool-all"]["pool_all"]["mean"] == 1e300


def test_dpm_runs_on_estimates_near_the_float_range(tmp_path):
    # the DPM works about the estimates' shift, so 1e300 gives the SDs of 0.3
    sds = {}
    for y in ("0.3", "1e300"):
        f = tmp_path / f"in{y}.csv"
        f.write_text(SUMMARY + f"A,{y},0.014\nB,{y},0.028\nC,{y},0.028\n", encoding="utf-8")
        out = tmp_path / f"dpm{y}.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_command(["dpm", "--input", str(f), "--output", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        rows = ReportDocument.from_json(out.read_text(encoding="utf-8")).results["dpm"]["rows"]
        sds[y] = np.array([row["post_sd"] for row in rows])
    assert np.max(np.abs(sds["1e300"] - sds["0.3"])) <= 1e-15
    for cmd in ("pool", "pool-all"):
        assert run_command([cmd, "--input", str(f), "--r", "200", "--b", "500",
                            "--output", str(tmp_path / f"{cmd}.json")]) == 0


def test_pool_all_command(dixie_file, tmp_path):
    out = tmp_path / "pa.json"
    assert run_command(["pool-all", "--input", str(dixie_file), "--r", "400",
                        "--output", str(out)]) == 0
    doc = ReportDocument.from_json(out.read_text(encoding="utf-8"))
    pa = doc.results["pool_all"]
    assert pa["ci_lower"] < pa["mean"] < pa["ci_upper"]


def test_dpm_command(dixie_file, tmp_path):
    out = tmp_path / "dpm.json"
    assert run_command(["dpm", "--input", str(dixie_file), "--m", "3",
                        "--iterations", "600", "--burn-in", "100",
                        "--seed", "2", "--output", str(out)]) == 0
    doc = ReportDocument.from_json(out.read_text(encoding="utf-8"))
    assert doc.config["m"] == 3.0
    assert "hyperparameters" in doc.config
    assert "r" not in doc.config and "b" not in doc.config
    rows = doc.results["dpm"]["rows"]
    assert len(rows) == 3
    assert all(r["ci_lower"] <= r["post_mean"] <= r["ci_upper"] for r in rows)


def _wide_input(tmp_path, l):
    rng = np.random.default_rng(l)
    rows = [f"s{i},{y!r},{se!r}" for i, (y, se) in
            enumerate(zip(rng.normal(0.3, 0.05, l).tolist(), rng.uniform(0.01, 0.04, l).tolist()))]
    f = tmp_path / f"wide{l}.csv"
    f.write_text("label,estimate,se\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return f


def _fail(*args, **kwargs):
    raise AssertionError("the Gibbs chain ran")


@pytest.mark.parametrize("l", [3, DPM_QUADRATURE_MAX_L])
def test_dpm_reports_by_quadrature_without_the_chain(tmp_path, monkeypatch, l):
    for target in ("uncpool.baselines.dpm_gibbs", "uncpool.baselines.dpm_chain"):
        monkeypatch.setattr(target, _fail)
    out = tmp_path / "dpm.json"
    assert run_command(["dpm", "--input", str(_wide_input(tmp_path, l)),
                        "--output", str(out)]) == 0
    dpm = json.loads(out.read_text(encoding="utf-8"))["results"]["dpm"]
    assert dpm["method"] == "quadrature" and len(dpm["rows"]) == l


@pytest.mark.parametrize("l", [DPM_QUADRATURE_MAX_L + 1, 9])
def test_dpm_runs_the_chain_above_the_quadrature_bound(tmp_path, l):
    inp = _wide_input(tmp_path, l)
    docs = []
    for seed in ("0", "1"):
        out = tmp_path / f"dpm{seed}.json"
        assert run_command(["dpm", "--input", str(inp), "--iterations", "60", "--burn-in", "10",
                            "--seed", seed, "--output", str(out)]) == 0
        docs.append(json.loads(out.read_text(encoding="utf-8"))["results"]["dpm"])
    assert docs[0]["method"] == docs[1]["method"] == "gibbs"
    assert docs[0]["rows"] != docs[1]["rows"]


def test_dpm_report_does_not_depend_on_the_seed(dixie_file, tmp_path):
    for fmt in ("json", "md", "csv"):
        texts = []
        for seed in ("0", "7"):
            out = tmp_path / f"dpm{seed}.{fmt}"
            assert run_command(["dpm", "--input", str(dixie_file), "--seed", seed,
                                "--format", fmt, "--output", str(out)]) == 0
            texts.append(out.read_text(encoding="utf-8"))
        if fmt == "csv":
            assert texts[0] == texts[1]
        else:   # equal but for the echoed seed
            assert texts[0] != texts[1]
            echo = ('"seed": 7', '"seed": 0') if fmt == "json" else ("seed: 7 ", "seed: 0 ")
            assert texts[1].replace(*echo) == texts[0]
    assert "method: quadrature" in (tmp_path / "dpm0.md").read_text(encoding="utf-8")


def test_dpm_rejects_negative_burn_in(dixie_file, tmp_path, capsys):
    # and every other bad chain setting, before anything is written
    out = tmp_path / "dpm.json"
    for flags, line in ((["--iterations", "50", "--burn-in", "-5"], "burn_in must be >= 0, got -5"),
                        (["--thin", "0"], "thin must be >= 1"),
                        (["--m", "0"], "concentration m must be > 0"),
                        (["--iterations", "100", "--burn-in", "100"],
                         "iterations must exceed burn_in")):
        assert run_command(["dpm", "--input", str(dixie_file), *flags,
                            "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--iterations", "2", "--burn-in", "1"],
                                   ["--iterations", "600", "--burn-in", "100", "--thin", "500"]])
def test_dpm_refuses_a_chain_that_keeps_one_draw(tmp_path, capsys, flags):
    # one kept draw has no sample SD: the report would hold NaN, which is not JSON
    out = tmp_path / "dpm.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command(["dpm", "--input", str(_wide_input(tmp_path, 7)), *flags,
                            "--output", str(out)]) == 1
    assert not out.exists()
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("error: the chain keeps 1 draw after burn_in and thin; "
                                       "it needs at least 2\n")


def test_dpm_hyperpriors_come_from_the_data(tmp_path):
    # Dixie at k = 1: SEs 0.014, 0.028, 0.028
    y, se = [0.254, 0.361, 0.359], [0.014, 0.028, 0.028]
    prec = [1.0 / s ** 2 for s in se]
    mean = sum(y) / 3
    want = {"m": 3.0, "eta_b": sum(p * x for p, x in zip(prec, y)) / sum(prec),
            "s_b": (max(y) - min(y)) ** 2, "phi1": 2.0,
            "phi2": 2.0 * sum((x - mean) ** 2 for x in y) / 2}
    resolved = dpm_gibbs(make_dixie(1.0), DpmConfig(iterations=30, burn_in=10)).resolved
    inp = tmp_path / "dixie1.csv"
    inp.write_text("label,estimate,se\n" + "".join(f"s{i},{a},{b}\n" for i, (a, b)
                                                    in enumerate(zip(y, se))), encoding="utf-8")
    out = tmp_path / "dpm.json"
    assert run_command(["dpm", "--input", str(inp), "--output", str(out)]) == 0
    reported = json.loads(out.read_text(encoding="utf-8"))["config"]["hyperparameters"]
    assert reported == resolved
    assert list(resolved) == list(want)
    assert resolved == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("cmd", ["pool", "pool-all", "dpm"])
def test_negative_seed_is_a_domain_error(dixie_file, capsys, cmd):
    assert run_command([cmd, "--input", str(dixie_file), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_dpm_rejects_grid_flags(dixie_file):
    # the chain uses no variance grid and no posterior-draw count
    assert run_command(["dpm", "--input", str(dixie_file), "--r", "300"]) == 2
    assert run_command(["dpm", "--input", str(dixie_file), "--b", "300"]) == 2


def test_simulate_command(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("delta_shift = 0\nreps = 3\nr = 150\nb = 400\nbase_seed = 5\n",
                    encoding="utf-8")
    base = tmp_path / "simout"
    assert run_command(["simulate", "--scenario", str(scen), "--output", str(base)]) == 0
    report = json.loads((tmp_path / "simout.json").read_text(encoding="utf-8"))
    assert report["scenario"]["reps"] == 3
    assert report["scenario"]["base_seed"] == 5
    csv_lines = (tmp_path / "simout.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 2


def test_simulate_rejects_negative_base_seed(tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 2\nr = 50\nb = 100\nbase_seed = -1\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen),
                        "--output", str(tmp_path / "out")]) == 1
    assert "base_seed" in capsys.readouterr().err


SMALL_SCENARIO = "delta_shift = 0.0772\nreps = 20\nr = 150\nb = 400\nbase_seed = 11\n"


def test_simulate_pooled_output_equals_serial_byte_for_byte(tmp_path, monkeypatch):
    # two real worker processes
    monkeypatch.setattr("uncpool.simulation.MIN_REPS_PER_WORKER", 1)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    scen = tmp_path / "scen.txt"
    scen.write_text(SMALL_SCENARIO, encoding="utf-8")
    for jobs in ("1", "2"):
        assert run_command(["simulate", "--scenario", str(scen), "--n-jobs", jobs,
                            "--output", str(tmp_path / f"sim{jobs}")]) == 0
    for ext in ("json", "csv"):
        assert (tmp_path / f"sim2.{ext}").read_bytes() == (tmp_path / f"sim1.{ext}").read_bytes()


def test_simulate_caps_n_jobs(tmp_path, fake_pool, monkeypatch):
    # --n-jobs 5000 used to fork 5000 interpreters; the fake pool starts none
    monkeypatch.setattr("uncpool.simulation.MIN_REPS_PER_WORKER", 1)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 60\nb = 100\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen), "--n-jobs", "5000",
                        "--output", str(tmp_path / "out")]) == 0
    assert fake_pool == [3]


def test_simulate_small_study_runs_in_process(tmp_path, fake_pool, monkeypatch):
    # 3 replicates cannot pay for a pool's start-up, whatever --n-jobs asks
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)), raising=False)
    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 60\nb = 100\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen), "--n-jobs", "5000",
                        "--output", str(tmp_path / "out")]) == 0
    assert fake_pool == []


@pytest.mark.parametrize("line, field", [("r = 1", "grid size r"), ("b = 0", "draw count b")])
def test_simulate_rejects_small_grid_or_draw_count(tmp_path, capsys, fake_pool, line, field):
    scen = tmp_path / "scen.txt"
    scen.write_text(f"reps = 2\n{line}\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen),
                        "--output", str(tmp_path / "out")]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert fake_pool == []
    assert not (tmp_path / "out.json").exists()


def test_simulate_rejects_a_repeated_scenario_key(tmp_path, capsys, fake_pool):
    # reps = 3 then reps = 5 used to run 5 replicates and exit 0
    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 60\nreps = 5\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen),
                        "--output", str(tmp_path / "out")]) == 1
    assert "error: line 3: reps is set again; first set on line 1" in capsys.readouterr().err
    assert fake_pool == []
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("n_jobs", ["0", "-4"])
def test_simulate_rejects_n_jobs_below_one(tmp_path, capsys, fake_pool, n_jobs):
    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 2\nr = 60\nb = 100\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen), "--n-jobs", n_jobs,
                        "--output", str(tmp_path / "out")]) == 1
    assert "n_jobs" in capsys.readouterr().err
    assert fake_pool == []


@pytest.mark.parametrize("field", ["psi1", "psi2", "delta_shift", "v1", "v2"])
def test_simulate_rejects_non_finite_scenario_field(tmp_path, capsys, field):
    scen = tmp_path / "scen.txt"
    scen.write_text(f"reps = 2\nr = 60\nb = 100\n{field} = nan\n", encoding="utf-8")
    assert run_command(["simulate", "--scenario", str(scen),
                        "--output", str(tmp_path / "out")]) == 1
    assert f"error: {field} must be finite" in capsys.readouterr().err


def test_usage_errors_are_nonzero(tmp_path):
    assert run_command(["frobnicate"]) != 0
    assert run_command(["pool"]) != 0                      # missing --input
    assert run_command(["pool", "--input", "x", "--nope"]) != 0


def test_parse_failures_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,estimate,se\nA,0.2,-1\n", encoding="utf-8")
    assert run_command(["pool", "--input", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert run_command(["pool", "--input", str(tmp_path / "missing.csv")]) == 1


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "uncpool.cli", "partitions", "--l", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["{1,2}", "{1}|{2}"]


def test_cli_import_stays_lazy():
    # a command that does not simulate must not pay for the harness or its pool,
    # and one other than dpm must not pay for the DPM
    import subprocess
    import sys

    code = ("import sys, uncpool, uncpool.cli\n"
            "assert 'uncpool.simulation' not in sys.modules\n"
            "assert 'uncpool.baselines' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "missing = [n for n in uncpool.__all__ if not hasattr(uncpool, n)]\n"
            "assert not missing, missing\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_the_dpm_command_loads_the_dpm(dixie_file, tmp_path):
    import subprocess
    import sys

    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 50\nb = 200\n", encoding="utf-8")
    inp = ["--input", str(dixie_file)]
    grid = [*inp, "--r", "50", "--b", "200"]
    runs = {"pool": grid, "pool-all": grid, "partitions": ["--l", "3", *inp, "--r", "50"],
            "simulate": ["--scenario", str(scen)], "dpm": inp}
    for cmd, argv in runs.items():
        argv = [cmd, *argv, "--output", str(tmp_path / cmd)]
        code = ("import sys\n"
                "from uncpool.cli import run_command\n"
                f"assert run_command({argv!r}) == 0\n"
                "print('uncpool.baselines' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(cmd == "dpm"), cmd


def test_no_command_builds_a_partition(dixie_file, tmp_path):
    # commands name and sum partitions through growth strings and per-subset
    # rows; Partition is the public type and the tests' naming oracle
    import subprocess
    import sys

    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 50\nb = 200\n", encoding="utf-8")
    wide = tmp_path / "wide.csv"
    wide.write_text("label,estimate,se\n" + "".join(f"s{i},{0.25 + 0.01 * i},0.02\n"
                                                    for i in range(7)), encoding="utf-8")
    inp = ["--input", str(dixie_file)]
    grid = [*inp, "--r", "50", "--b", "200"]
    runs = [["pool", *grid], ["pool-all", *grid], ["dpm", *inp],
            ["dpm", "--input", str(wide), "--iterations", "300", "--burn-in", "50"],
            ["simulate", "--scenario", str(scen)], ["partitions", "--l", "4"],
            ["partitions", "--l", "3", *inp, "--r", "50"]]
    for n, argv in enumerate(runs):
        argv = [*argv, "--output", str(tmp_path / f"out{n}")]
        code = ("from uncpool.cli import run_command\n"
                "from uncpool.partitions import Partition\n"
                "made, check = [], Partition.__post_init__\n"
                "Partition.__post_init__ = lambda p: made.append(p) or check(p)\n"
                f"assert run_command({argv!r}) == 0\n"
                "print(len(made))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0", argv


def test_the_dpm_chain_lives_in_baselines_alone(dixie_file, tmp_path):
    # the engine every command compiles holds no DPM chain; dpm_gibbs reaches
    # the chain through its module global, which tests may replace
    import subprocess
    import sys

    argv = ["pool", "--input", str(dixie_file), "--r", "50", "--b", "200",
            "--output", str(tmp_path / "pool")]
    code = ("import sys\n"
            "from uncpool.cli import run_command\n"
            f"assert run_command({argv!r}) == 0\n"
            "kernels = sys.modules['uncpool.kernels']\n"
            "assert not hasattr(kernels, 'dpm_chain') and not hasattr(kernels, '_flat')\n"
            "from uncpool import baselines\n"
            "assert 'dpm_chain' in baselines.dpm_gibbs.__code__.co_names\n"
            "assert baselines.dpm_gibbs.__globals__['dpm_chain'] is baselines.dpm_chain\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_private_name_crosses_a_module():
    # a module's underscore names are its own: no other module of the package
    # imports one or reads one off a module object
    import ast

    import uncpool

    root = Path(uncpool.__file__).parent
    modules = {p.stem for p in root.glob("*.py")}
    crossings = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings += [f"{path.stem}: {node.module}.{a.name}" for a in node.names
                              if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__")):
                crossings.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert crossings == []


def test_commands_do_not_import_numpy_ma(dixie_file, tmp_path):
    # np.quantile reaches np.unique, and np.median's NaN check calls np.ma, so both
    # import numpy.ma; the intervals and the simulation medians avoid them
    import subprocess
    import sys

    scen = tmp_path / "scen.txt"
    scen.write_text("reps = 3\nr = 50\nb = 200\n", encoding="utf-8")
    inp = ["--input", str(dixie_file)]
    runs = [["pool", *inp, "--r", "50", "--b", "200"], ["pool-all", *inp, "--r", "50", "--b", "200"],
            ["dpm", *inp, "--iterations", "60", "--burn-in", "10"],
            ["dpm", "--input", str(_wide_input(tmp_path, 9)), "--iterations", "60",
             "--burn-in", "10"],
            ["simulate", "--scenario", str(scen)]]
    code = ("import sys\n"
            "from uncpool.cli import run_command\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/report{{i}}'\n"
            "    assert run_command([*argv, '--output', out]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_config_echoes_keep_their_keys(dixie_file, tmp_path):
    runs = {
        "pool": (["--r", "200", "--b", "300"], ["r", "b", "seed", "format", "threshold"]),
        "pool-all": (["--r", "200", "--b", "300"], ["r", "b", "seed", "format"]),
        "dpm": (["--iterations", "300", "--burn-in", "100"],
                ["seed", "format", "m", "iterations", "burn_in", "thin", "hyperparameters"]),
    }
    for cmd, (flags, keys) in runs.items():
        out = tmp_path / f"{cmd}.json"
        assert run_command([cmd, "--input", str(dixie_file), "--seed", "3", *flags,
                            "--output", str(out)]) == 0
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert sorted(config) == sorted(keys)
        assert config["seed"] == 3 and config["format"] == "json"
    assert ReportDocument.from_json((tmp_path / "pool.json").read_text(encoding="utf-8")
                                    ).config["threshold"] == 0.001


def _readme_section(title: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_starts_run():
    # the documented library calls run, and every documented command line parses
    block = _readme_section("Quick start (library)").split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    lines = [line for line in _readme_section("Quick start (CLI)").splitlines()
             if line.startswith("uncpool ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]
