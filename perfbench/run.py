"""End-to-end benchmark for uncpool.

Usage, from the repository root:

    python3 perfbench/run.py --workload {cli-paper,sim-l3,wide-l8} \
        --seed N --seconds S --trace {0,1}

Runs the package from src/ (it is not installed).  Each invocation starts
the workload's worker in a fresh interpreter SETUP_REPEATS times and times
each set-up; the last worker then runs ops for S seconds.  With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer metrics of a
run that alternates traced and untraced ops.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details go to
.perfbench_run/ under the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-paper", "sim-l3", "wide-l8")

#: Fresh-worker set-ups per invocation; setup_s is their median.
SETUP_REPEATS = 3
#: Wall-clock budget for the whole invocation, set-ups included.
DEADLINE_S = 170.0
#: A percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Printed, but left out of the result line that BENCHMARK.json gates: at
#: about 40 ops per run, the wide-l8 tail is near p75, where this host's
#: slow phases move it by more than the largest allowed bound (README.md).
UNGATED = ("op_tail_s",)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Below TAIL_BEYOND + 1
    samples no such percentile exists and the maximum is returned.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workers(args, workdir: Path, deadline: float) -> tuple[list[float], dict]:
    """Start SETUP_REPEATS fresh workers; time each to READY; run the last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace), str(workdir)]
    setups, out = [], ""
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        # own process group, so a kill also stops the worker's CLI children
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(deadline - time.monotonic(), 0))
            line = proc.stdout.readline() if ready else ""
            setups.append(time.perf_counter() - t0)
            if line.strip() != "READY":
                raise BenchError("worker set-up failed; its error is above")
            out, _ = proc.communicate("run\n" if last else "exit\n",
                                      timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setups, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "uncpool" / "__init__.py").is_file():
        print(f"error: no uncpool package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, res = run_workers(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median(setups)
    attempted, failed = res["attempted"], res["failed"]
    checks = res["run_checks"]
    correct = failed == 0 and attempted > 0 and checks["ok"] and not res.get("probe_errors")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups_s": setups, "error_rate": failed / max(attempted, 1),
        "errors": res["errors"], "run_checks": checks,
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": res["numpy"], "backend": res["backend"], "git_sha": git_sha()},
    }
    print(f"uncpool benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace == 0:
        lat = res["latencies"]
        if not lat:
            print("error: no op completed", file=sys.stderr)
            return 1
        tail_s, tail_pct, beyond = tail(lat)
        metrics = {
            "setup_s": (setup_s, "s", f"median of {len(setups)} fresh-worker set-ups"),
            "ops_per_s": (len(lat) / sum(lat), "1/s", f"{len(lat)} ops, closed loop, 1 client"),
            "op_p50_s": (statistics.median(lat), "s", f"median of {len(lat)} ops"),
            "op_tail_s": (tail_s, "s", f"p{tail_pct:.1f}, {beyond} of {len(lat)} ops beyond"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB",
                            "largest CLI child" if args.workload == "cli-paper"
                            else "worker process"),
        }
        detail["op_tail_s"] = tail_s
        detail["op_tail_percentile"] = tail_pct
        detail["op_samples"] = len(lat)
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<14} {value:>12.6g} {unit:<5} {note}")
        print(f"  {'error_rate':<14} {detail['error_rate']:>12.6g} {'ratio':<5} "
              f"{failed} of {attempted} ops failed")
        result_metrics = {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items() if k not in UNGATED}
    else:
        result_metrics = res["metrics"]
        detail["setup_s"] = setup_s
        detail["absent"] = res["absent"]
        detail["probe_errors"] = res["probe_errors"]
        detail["decomposition_gap_s"] = res["decomposition_gap_s"]
        for name, m in result_metrics.items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
        print(f"  absent: {res['absent'] or 'none'}; layer self times + unspanned - op time "
              f"= {res['decomposition_gap_s']:.3g} s")
    if not checks["ok"] or res["errors"]:
        print(f"checks: {json.dumps(checks)}; errors: {res['errors']}")
    print("detail: " + json.dumps(detail))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    (workdir / "result.json").write_text(json.dumps(dict(result, detail=detail), indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
