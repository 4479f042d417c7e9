"""Command-line front end.

Subcommands:

    bench     run a regret experiment grid, fit the growth exponent and
              print it next to the theoretical target
    effdim    effective-dimension study over an n grid for a point layout
    verify    run the built-in property battery
    compare   run the kernel forecaster and the EWA baseline on identical
              streams and write side-by-side regret curves
    net-info  report expert-net cardinality for the configured scale

Shared flags: --config PATH (a file path or the name of a packaged preset),
--seed N, --out DIR, --threads N, --override section.key=value (repeatable).
The default output directory comes from $KAARBENCH_OUT, falling back to
./results.  Exit codes: 0 success, 1 usage, 2 config error, 3 numerical
failure, 4 verification failure.  Nothing is written until the run's
numbers exist; a numerical failure leaves only a FAILED.txt tombstone in the
output directory, and a config error leaves nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .configio import ConfigError, apply_overrides, parse_config, parse_config_text, write_config
from .effdim import effective_dimension, scaling_fit, spectrum
from .ewa import balanced_epsilon, build_net
from .harness import (
    ExperimentConfig,
    GameFailure,
    bench_seed,
    compare_seed,
    default_checkpoints,
    estimate_exponent,
    map_seeds,
    point_layout,
    write_effdim_csv,
    write_plot_data,
    write_summary_csv,
    write_table,
    write_trace_csv,
)
from .kaar import NumericalBreakdownError, target_regret_exponent
from .kernel import KernelParams, gram
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# failures of the numerics, as opposed to the config; main maps them to EXIT_NUMERICAL
NUMERICAL_ERRORS = (GameFailure, NumericalBreakdownError, np.linalg.LinAlgError, FloatingPointError, OverflowError)


class _Outputs:
    """The output directory of one command.  Commands write their files only
    after their numbers exist, so a numerical failure inside the `with` block
    leaves nothing but a FAILED.txt tombstone."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None and issubclass(exc_type, NUMERICAL_ERRORS):
            self.path("FAILED.txt").write_text(f"{exc}\n")


def _load_config(spec: str) -> ExperimentConfig:
    path = Path(spec)
    if path.is_file():
        return parse_config(path)
    name = spec if spec.endswith(".cfg") else spec + ".cfg"
    preset = resources.files("kaarbench.presets").joinpath(name)
    if preset.is_file():
        return parse_config_text(preset.read_text(), source=f"preset:{spec}")
    raise ConfigError(f"config {spec!r} is neither a file nor a packaged preset")


def _resolve(args) -> ExperimentConfig:
    config = _load_config(args.config)
    if args.override:
        config = apply_overrides(config, args.override)
    updates = {}
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        config = replace(config, **updates)
        config.validate()
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    return Path(config.out_dir or os.environ.get("KAARBENCH_OUT", "results"))


def cmd_bench(args) -> int:
    """Run the (horizon x seed) game grid; fresh games at each horizon keep
    the schedule's n-dependence honest when fitting the regret exponent."""
    config = _resolve(args)
    with _Outputs(_out_dir(config)) as outs:
        checkpoints = config.checkpoints or default_checkpoints(config.horizon)
        fit_ns = tuple(c for c in checkpoints if c >= 8)
        results = map_seeds(bench_seed, config, fit_ns)
        rows, slopes, families = [], [], []
        flagged = False
        for seed in config.seeds:
            trace, played, family = results[seed]
            row = {"seed": seed, "n": trace.n, "regret": trace.final_regret(config.comparator_id), "slope": None}
            if len(fit_ns) >= 4:
                fit = estimate_exponent(played, family)
                row["slope"] = fit.slope
                slopes.append(fit.slope)
                flagged = flagged or fit.flagged
                families.append(family)
            rows.append(row)

        outs.path(f"{config.name}.resolved.cfg").write_text(write_config(config))
        for seed in config.seeds:
            write_trace_csv(results[seed][0], outs.path(f"{config.name}_seed{seed}.csv"))
        write_summary_csv(rows, outs.path(f"{config.name}_summary.csv"))
        if families:
            # played counts depend on the horizon and d only, not on the seed
            write_plot_data(outs.path(f"{config.name}_regret.dat"), played, np.mean(families, axis=0))

        print(f"experiment {config.name}: {len(config.seeds)} seed(s), horizon {config.horizon}")
        if config.regime in ("smooth", "hard"):
            target = target_regret_exponent(config.regime, config.d, config.beta, config.p)
            print(f"  theoretical regret exponent target: {target:.4f}")
        if slopes:
            note = "  (some nonpositive regrets floored)" if flagged else ""
            print(f"  measured mean slope over seeds:     {float(np.mean(slopes)):.4f}{note}")
        else:
            print("  exponent fit skipped (fewer than 4 checkpoints)")
        return EXIT_OK


def cmd_effdim(args) -> int:
    """d_eff by Cholesky at each grid size; the eigenvalues are computed here
    only for the lambda_max/lambda_min columns."""
    config = _resolve(args)
    s, _ = config.schedule()
    params = KernelParams(config.d, s)
    ns = [int(tok) for tok in args.ns.split(",")]
    tau = args.tau
    with _Outputs(_out_dir(config)) as outs:
        rng = np.random.default_rng(config.seeds[0])
        reports, spectra = [], []
        for n in ns:
            K = gram(params, point_layout(args.layout, n, config.d, rng))
            reports.append(effective_dimension(K, tau))
            spectra.append(spectrum(K))
        write_effdim_csv(reports, spectra, outs.path(f"{config.name}_effdim_{args.layout}.csv"))
        write_plot_data(
            outs.path(f"{config.name}_effdim_{args.layout}.dat"),
            [rep.n / rep.tau for rep in reports],
            [rep.value for rep in reports],
        )
        target = config.d / (2.0 * s)
        print(f"effective dimension study: layout {args.layout}, d={config.d}, s={s}, tau={tau}")
        print(f"  theoretical exponent target d/(2s): {target:.4f}")
        if len(reports) >= 4:
            slope, r2 = scaling_fit(reports)
            print(f"  measured slope: {slope:.4f}  (r^2 = {r2:.4f})")
        else:
            print("  slope skipped (fewer than 4 grid sizes)")
        return EXIT_OK


def cmd_verify(_args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  [{status}] {r.name:<{width}}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_compare(args) -> int:
    config = _resolve(args)
    if config.d != 1:
        raise ConfigError("compare runs the EWA baseline, which supports d = 1 only")
    with _Outputs(_out_dir(config)) as outs:
        results = map_seeds(compare_seed, config)
        rows = [(seed, *row) for seed in config.seeds for row in results[seed]]
        cps = sorted({c for _, c, _, _ in rows})
        mean_k = [np.mean([rk for _, c, rk, _ in rows if c == cp]) for cp in cps]
        mean_e = [np.mean([re_ for _, c, _, re_ in rows if c == cp]) for cp in cps]
        write_table(outs.path(f"{config.name}_compare.csv"), rows, ["seed", "t", "regret_kaar", "regret_ewa"])
        write_plot_data(outs.path(f"{config.name}_kaar.dat"), cps, mean_k)
        write_plot_data(outs.path(f"{config.name}_ewa.dat"), cps, mean_e)
        print(f"compare {config.name}: final mean regret kernel={mean_k[-1]:.4f} ewa={mean_e[-1]:.4f}")
        return EXIT_OK


def cmd_net_info(args) -> int:
    config = _resolve(args)
    beta, eps = config.ewa_scale()
    eps_star = balanced_epsilon(config.horizon, beta)
    net = build_net(beta, config.clip_m, eps)
    print(f"expert net for beta={beta}, M={config.clip_m}, epsilon={eps:.6g}")
    print(f"  cells: {net.m_cells}")
    print(f"  cardinality: {net.n_experts:.6g}  (log: {net.log_n_experts:.3f})")
    print(f"  entropy-balancing scale for horizon {config.horizon}: epsilon* = {eps_star:.6g}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="kaarbench", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="config file path or packaged preset name")
        p.add_argument("--seed", type=int, default=None, help="run a single seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker processes")
        p.add_argument("--override", action="append", default=[], metavar="section.key=value")

    p_bench = sub.add_parser("bench", help="regret experiment with exponent fit")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_eff = sub.add_parser("effdim", help="effective-dimension scaling study")
    add_common(p_eff)
    p_eff.add_argument("--layout", default="equispaced", choices=("equispaced", "uniform", "clustered"))
    p_eff.add_argument("--ns", default="256,512,1024,2048,4096,8192", help="comma list of grid sizes")
    p_eff.add_argument("--tau", type=float, default=1.0)
    p_eff.set_defaults(func=cmd_effdim)

    p_ver = sub.add_parser("verify", help="run the property battery")
    p_ver.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="kernel forecaster vs EWA on identical streams")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_net = sub.add_parser("net-info", help="expert-net size report")
    add_common(p_net)
    p_net.set_defaults(func=cmd_net_info)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
