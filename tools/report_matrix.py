"""Write a fixed matrix of CLI reports, to diff two versions of the package.

    PYTHONPATH=src python tools/report_matrix.py OUTDIR

runs ``uncpool.cli.run_command`` in-process, with whichever ``uncpool`` is
importable, and writes into OUTDIR:

- ``pool``, ``pool-all`` and ``dpm`` in json, md and csv, at seeds 0 and 7,
  on the six reference panels (Dixie with the CDC SE at 0.5, 1 and 2 times
  the HS SE; Orange with the SAHIE SE at 0.036, 0.089 and 0.179);
- ``dpm`` through the Gibbs chain on an L=7 input;
- ``pool --r 200 --threshold 0``, ``pool --r 200`` at the default threshold
  in json, md and csv, and ``pool-all --r 200`` on an L=8 input;
- ``pool`` and ``dpm`` on three equal estimates and on an L=1 input;
- ``dpm`` in json at seed 0 on three equal estimates of 0.7, where a
  sample variance of equal values is not exactly 0;
- ``pool`` on a binomial (``label,cases,total``) input with a row of 0
  cases, through the logit transform and its boundary correction;
- ``pool``, ``pool-all`` and ``dpm`` in json at seed 0 on the Dixie panel
  with the CDC SE equal to the HS SE, every estimate offset by 1e6, so
  that no estimate lies below 1;
- ``dpm`` in json at seed 0 on that panel offset by 1e12, through the
  quadrature, and on the L=7 input offset by 1e12, through the chain;
- ``partitions --l 3`` with posterior masses for the first panel, and
  ``partitions --l 8`` without masses and with them for the L=8 input at
  ``--r 200``;
- a 40-replicate ``simulate``.

Two versions that should change no output give trees whose ``diff -r`` is
empty; a rerun of one version must give the same tree byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from uncpool.cli import run_command

PANELS = (
    [(f"dixie_{k}", (0.254, 0.361, 0.359), (0.014, 0.028, 0.028 * k)) for k in (0.5, 1.0, 2.0)]
    + [(f"orange_{s}", (0.294, 0.257, 0.179), (s, 0.018, 0.009)) for s in (0.036, 0.089, 0.179)]
)
FORMATS = ("json", "md", "csv")


def _wide(l: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fixed estimates and SEs for L sources, spread over two loose clusters."""
    return (tuple(0.25 + 0.04 * (i % 2) + 0.003 * i for i in range(l)),
            tuple(0.01 + 0.002 * i for i in range(l)))


EXTRA_INPUTS = {
    "wide_7": _wide(7),
    "wide_8": _wide(8),
    "equal_3": ((0.3, 0.3, 0.3), (0.02, 0.03, 0.04)),
    "equal_0.7": ((0.7, 0.7, 0.7), (0.014, 0.028, 0.028)),
    "single_1": ((0.3,), (0.02,)),
    "dixie_1.0_plus_1e6": (tuple(1e6 + y for y in PANELS[1][1]), PANELS[1][2]),
    "dixie_1.0_plus_1e12": (tuple(1e12 + y for y in PANELS[1][1]), PANELS[1][2]),
    "wide_7_plus_1e12": (tuple(1e12 + y for y in _wide(7)[0]), _wide(7)[1]),
}

#: (label, cases, total) rows of the binomial input; the first sits at the 0-case boundary.
COUNTS = (("a", 0, 40), ("b", 12, 50), ("c", 30, 45))

SCENARIO = "reps = 40\nbase_seed = 20260809\ndelta_shift = 0.0386\n"


def _write_input(path: Path, y, se) -> None:
    rows = [f"s{i + 1},{yi!r},{si!r}" for i, (yi, si) in enumerate(zip(y, se))]
    path.write_text("label,estimate,se\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _runs(inputs: Path, out: Path):
    """(argv, output base) of every run in the matrix."""
    for name, _, _ in PANELS:
        src = str(inputs / f"{name}.csv")
        for cmd in ("pool", "pool-all", "dpm"):
            for seed in (0, 7):
                for fmt in FORMATS:
                    yield ([cmd, "--input", src, "--seed", str(seed), "--format", fmt],
                           out / f"{cmd}-{name}-s{seed}.{fmt}")
    extra = {name: str(inputs / f"{name}.csv") for name in EXTRA_INPUTS}
    yield (["dpm", "--input", extra["wide_7"], "--iterations", "600", "--burn-in", "100"],
           out / "dpm-wide_7-chain.json")
    yield (["pool", "--input", extra["wide_8"], "--r", "200", "--threshold", "0"],
           out / "pool-wide_8-r200.json")
    for fmt in FORMATS:
        yield (["pool", "--input", extra["wide_8"], "--r", "200", "--format", fmt],
               out / f"pool-wide_8-r200-default.{fmt}")
    yield ["pool-all", "--input", extra["wide_8"], "--r", "200"], out / "pool-all-wide_8-r200.json"
    for name in ("equal_3", "single_1"):
        for cmd in ("pool", "dpm"):
            yield [cmd, "--input", extra[name]], out / f"{cmd}-{name}.json"
    yield (["dpm", "--input", extra["equal_0.7"], "--seed", "0", "--format", "json"],
           out / "dpm-equal_0.7-s0.json")
    yield ["pool", "--input", str(inputs / "counts_3.csv")], out / "pool-counts_3.json"
    for cmd in ("pool", "pool-all", "dpm"):
        yield ([cmd, "--input", extra["dixie_1.0_plus_1e6"], "--seed", "0", "--format", "json"],
               out / f"{cmd}-dixie_1.0_plus_1e6-s0.json")
    yield (["dpm", "--input", extra["dixie_1.0_plus_1e12"], "--seed", "0", "--format", "json"],
           out / "dpm-dixie_1.0_plus_1e12-s0.json")
    yield (["dpm", "--input", extra["wide_7_plus_1e12"], "--iterations", "600", "--burn-in", "100"],
           out / "dpm-wide_7_plus_1e12-chain.json")
    yield (["partitions", "--l", "3", "--input", str(inputs / f"{PANELS[0][0]}.csv")],
           out / "partitions-l3.txt")
    yield ["partitions", "--l", "8"], out / "partitions-l8.txt"
    yield (["partitions", "--l", "8", "--input", extra["wide_8"], "--r", "200"],
           out / "partitions-l8-wide_8-r200.txt")
    yield ["simulate", "--scenario", str(inputs / "scenario.txt")], out / "simulate"


def write_matrix(outdir: Path) -> int:
    """Write every report of the matrix into ``outdir``; returns the number of runs."""
    inputs, reports = outdir / "inputs", outdir / "reports"
    inputs.mkdir(parents=True, exist_ok=True)
    reports.mkdir(exist_ok=True)
    for name, y, se in PANELS:
        _write_input(inputs / f"{name}.csv", y, se)
    for name, (y, se) in EXTRA_INPUTS.items():
        _write_input(inputs / f"{name}.csv", y, se)
    counts = "".join(f"{label},{cases},{total}\n" for label, cases, total in COUNTS)
    (inputs / "counts_3.csv").write_text("label,cases,total\n" + counts, encoding="utf-8")
    (inputs / "scenario.txt").write_text(SCENARIO, encoding="utf-8")
    runs = list(_runs(inputs, reports))
    for argv, target in runs:
        with contextlib.redirect_stdout(io.StringIO()):   # simulate's "wrote ..." line
            status = run_command([*argv, "--output", str(target)])
        if status != 0:
            raise SystemExit(f"uncpool {' '.join(argv)} exited {status}")
    return len(runs)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: report_matrix.py OUTDIR", file=sys.stderr)
        return 2
    n = write_matrix(Path(argv[0]))
    print(f"wrote {n} runs into {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
