"""Command-line interface: pool, pool-all, dpm, simulate, partitions."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import UncpoolError
from .grid import build_grid, evaluate_joint, marginal_g, pool_all, sample_mu, summarize
from .io import (DpmConfig, RunConfig, ReportDocument, input_echo, parse_input, render_report,
                 survey_rows)
from .partitions import enumerate_partitions, notations

#: Largest L whose ``dpm`` report comes from ``baselines.dpm_quadrature``:
#: the largest L at which it was measured faster than the default
#: 12000-sweep ``baselines.dpm_gibbs``, which runs above it.
DPM_QUADRATURE_MAX_L = 6


def _child_seed(seed: int, key: int) -> int:
    """Derive an independent integer seed for a sub-stream."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1, np.uint64)[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncpool",
        description="Combine point estimates from several sources by "
                    "partition-averaged Bayesian pooling.",
    )
    # Prefix matching is off: it would read the grid flag --b as dpm's --burn-in.
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config):
        p.add_argument("--input", required=True, help="CSV input file")
        p.add_argument("--seed", type=int, default=config.seed)
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        p.add_argument("--output", help="output file (default: stdout)")

    def add_grid(p):
        p.add_argument("--r", type=int, default=RunConfig.r, help="delta2 grid size")
        p.add_argument("--b", type=int, default=RunConfig.b, help="posterior draw count")

    p = sub.add_parser("pool", allow_abbrev=False, help="full uncertain-pooling analysis")
    add_common(p, RunConfig)
    add_grid(p)
    p.add_argument("--threshold", type=float, default=RunConfig.threshold,
                   help="display threshold for partition probabilities")

    p = sub.add_parser("pool-all", allow_abbrev=False, help="complete-pooling baseline only")
    add_common(p, RunConfig)
    add_grid(p)

    p = sub.add_parser("dpm", allow_abbrev=False, help="Dirichlet-process-mixture baseline")
    add_common(p, DpmConfig)
    p.add_argument("--m", type=float, default=DpmConfig.m, help="DP concentration")
    chain_only = f"; only inputs with L > {DPM_QUADRATURE_MAX_L} run the chain and read it"
    p.add_argument("--iterations", type=int, default=DpmConfig.iterations,
                   help="Gibbs sweeps" + chain_only)
    p.add_argument("--burn-in", type=int, default=DpmConfig.burn_in, dest="burn_in",
                   help="sweeps discarded before keeping draws" + chain_only)
    p.add_argument("--thin", type=int, default=DpmConfig.thin,
                   help="keep every thin-th sweep" + chain_only)

    p = sub.add_parser("simulate", allow_abbrev=False, help="run a replicated sampling study")
    p.add_argument("--scenario", required=True, help="key = value scenario file")
    p.add_argument("--output", default="sim_report",
                   help="output base path; writes <base>.json and <base>.csv")
    p.add_argument("--n-jobs", type=int, default=1, dest="n_jobs",
                   help="worker processes, at most one per usable CPU and per 64 replicates")

    p = sub.add_parser("partitions", allow_abbrev=False, help="list set partitions")
    p.add_argument("--l", type=int, required=True, help="number of sources")
    p.add_argument("--input", help="optional CSV input; attaches posterior masses")
    p.add_argument("--r", type=int, default=RunConfig.r)
    p.add_argument("--output", help="output file (default: stdout)")
    return parser


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _echo(cfg, names: tuple[str, ...]) -> dict:
    """The named fields of a validated config, in order, for a report's config echo."""
    return {name: getattr(cfg, name) for name in names}


_GRID_ECHO = ("r", "b", "seed")


def _report(args, kind: str, data, config: dict, results: dict) -> int:
    """Build, render and write the report of one analysis command; its exit status.

    The echoed config gains the output format, which no analysis reads.
    """
    doc = ReportDocument(kind=kind, input=input_echo(data),
                         config={"format": args.format, **config}, results=results)
    _write(render_report(doc, args.format), args.output)
    return 0


def _cmd_pool(args) -> int:
    data = parse_input(args.input)
    cfg = RunConfig(r=args.r, b=args.b, seed=args.seed, threshold=args.threshold)
    space = enumerate_partitions(data.l)
    grid = build_grid(cfg.r)
    jp = evaluate_joint(data, space, grid)
    pa = pool_all(data, grid, b=cfg.b, seed=_child_seed(cfg.seed, 1), jp=jp) if data.l >= 2 else None
    draws = sample_mu(data, jp, cfg.b, _child_seed(cfg.seed, 0))
    table = summarize(data, jp, draws, pool_all=pa, threshold=cfg.threshold)
    return _report(args, "pool", data, _echo(cfg, _GRID_ECHO + ("threshold",)),
                   {"summary": table.to_dict()})


def _cmd_pool_all(args) -> int:
    data = parse_input(args.input)
    cfg = RunConfig(r=args.r, b=args.b, seed=args.seed)
    pa = pool_all(data, build_grid(cfg.r), b=cfg.b, seed=_child_seed(cfg.seed, 1))
    return _report(args, "pool-all", data, _echo(cfg, _GRID_ECHO), {"pool_all": pa.to_dict()})


def _cmd_dpm(args) -> int:
    data = parse_input(args.input)
    dpm_cfg = DpmConfig(m=args.m, iterations=args.iterations, burn_in=args.burn_in,
                        thin=args.thin, seed=args.seed)
    from . import baselines   # only this command compiles the DPM
    if data.l <= DPM_QUADRATURE_MAX_L:
        method, post = "quadrature", baselines.dpm_quadrature(data, dpm_cfg)
    else:
        method, post = "gibbs", baselines.dpm_gibbs(data, dpm_cfg)
    rows = survey_rows(data.labels, data.y_hat.tolist(), post.post_mean,
                       np.sqrt(data.v).tolist(), post.post_sd, post.ci_lower, post.ci_upper)
    config = {"hyperparameters": post.resolved,
              **_echo(dpm_cfg, ("seed", "m", "iterations", "burn_in", "thin"))}
    return _report(args, "dpm", data, config, {"dpm": {"method": method, "rows": rows}})


def _cmd_simulate(args) -> int:
    # only this command needs the harness
    from .simulation import parse_scenario, run_scenario, sim_report_csv, sim_report_json

    scenario = parse_scenario(args.scenario)
    report = run_scenario(scenario, n_jobs=args.n_jobs)
    Path(args.output + ".json").write_text(sim_report_json(report), encoding="utf-8")
    Path(args.output + ".csv").write_text(sim_report_csv(report), encoding="utf-8")
    sys.stdout.write(f"wrote {args.output}.json and {args.output}.csv\n")
    return 0


def _cmd_partitions(args) -> int:
    space = enumerate_partitions(args.l)
    masses = None
    if args.input:   # before the names, so the posterior's arrays are freed first
        data = parse_input(args.input)
        masses = marginal_g(evaluate_joint(data, space, build_grid(args.r))).tolist()
    lines = notations(space.assignment_array)
    if masses is not None:
        lines = [f"{name}\t{m:.6f}" for name, m in zip(lines, masses)]
    _write("\n".join(lines) + "\n", args.output)
    return 0


_DISPATCH = {
    "pool": _cmd_pool,
    "pool-all": _cmd_pool_all,
    "dpm": _cmd_dpm,
    "simulate": _cmd_simulate,
    "partitions": _cmd_partitions,
}


def run_command(argv: list[str]) -> int:
    """Parse and execute one CLI invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (UncpoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
