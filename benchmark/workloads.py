"""The benchmark's three workloads.

A workload resolves its preset and fills the program's process-wide caches
in `prepare`, plays one operation at a tiny size in `warm_up`, and then
repeats `op(i, out_dir)` in the timed region.  `check(output)` runs the
independent checks of checks.py on one operation's output; it is never
timed.  The stream seeds of operation i follow from the benchmark's --seed,
so the same seed gives the same inputs.

Every call into kaarbench goes through a module attribute at call time
(`harness.run_game`, `cli.main`, ...), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

import checks as ck
from kaarbench import adversary, cli, configio, effdim, harness, kaar, kernel

# stream seeds of one run are SEED_STRIDE * --seed + 0, 1, 2, ...
SEED_STRIDE = 10_000


class OperationFailed(RuntimeError):
    """The program reported a failure for one operation."""


def resolve_preset(name: str, overrides: list[str], expect: dict):
    """Parse a packaged preset with overrides, as the CLI does, and pin its make-up.

    The independent checks rebuild the inputs from the values in `expect`;
    a preset that no longer has them would make the checks test something
    else, so it stops the benchmark.
    """
    text = resources.files("kaarbench.presets").joinpath(name + ".cfg").read_text()
    config = configio.apply_overrides(configio.parse_config_text(text, source=f"preset:{name}"), overrides)
    changed = {k: (getattr(config, k), v) for k, v in expect.items() if getattr(config, k) != v}
    if changed:
        raise ValueError(f"preset {name!r} no longer has the benchmark's make-up (got, expected): {changed}")
    return config


def run_cli(argv: list[str]) -> None:
    """Run the kaarbench CLI in-process, keeping its report off the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"kaarbench {' '.join(argv)} exited {code}")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def powers_of_two(n: int) -> list[int]:
    out = [2**k for k in range(n.bit_length()) if 2**k <= n]
    return out if out[-1] == n else out + [n]


class Workload:
    name = ""
    seeds_per_op = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def stream_seeds(self, i: int) -> list[int]:
        first = SEED_STRIDE * self.seed + i * self.seeds_per_op
        return list(range(first, first + self.seeds_per_op))


# ---------------------------------------------------------------------------

SMOOTH_D1 = dict(d=1, regime="smooth", beta=1.0, forecaster="kaar_clipped", clip_m=1.0,
                 adversary="iid", noise_sd=0.1, comparator="representer",
                 comparator_centers=5, comparator_norm=0.65, comparator_seed=0)


@dataclass
class CertifiedGame:
    seed: int
    trace: object
    d_eff: float
    f_norm_sq: float
    certificate: float


class GameD1Certified(Workload):
    """One `smooth` game at n = 2048 per operation, then its regret certificate."""

    name = "game-d1-certified"

    def prepare(self) -> None:
        horizon = 64 if self.tiny else 2048
        self.config = resolve_preset("smooth", [f"experiment.horizon={horizon}", "experiment.threads=1"],
                                     SMOOTH_D1)

    def warm_up(self, out_dir: Path) -> None:
        self._play(configio.apply_overrides(self.config, ["experiment.horizon=16"]), self.stream_seeds(0)[0])

    def op(self, i: int, out_dir: Path) -> CertifiedGame:
        return self._play(self.config, self.stream_seeds(i)[0])

    @staticmethod
    def _play(config, seed: int) -> CertifiedGame:
        trace = harness.run_game(config, seed)
        params = kernel.KernelParams(config.d, trace.s)
        report = effdim.effective_dimension(kernel.gram(params, trace.xs), trace.tau)
        f_norm_sq = harness.make_comparator(config, params).norm_sq
        forecaster = kaar.KaarForecaster(params, trace.tau, clip_m=config.clip_m)
        bound = kaar.regret_certificate(forecaster, f_norm_sq, trace.n, report.value)
        return CertifiedGame(seed, trace, report.value, f_norm_sq, bound)

    def check(self, out: CertifiedGame) -> list[ck.Check]:
        tr = out.trace
        n, M = tr.n, 1.0
        tau = ck.smooth_tau(n, d=1, beta=1.0)
        f, f_norm_sq = ck.representer(ck.kernel_d1_s1, 1, 5, 0.65, 0)
        xs, ys = ck.iid_stream(f, n, 1, out.seed, 0.1, M)
        stream_ok = np.array_equal(tr.xs, xs) and np.allclose(tr.ys, ys, rtol=0, atol=1e-12)
        xs, ys = tr.xs, tr.ys
        K = ck.kernel_d1_s1(ck.distances(xs, xs))
        losses = (ys - tr.yhats) ** 2
        comp_losses = (ys - f(xs)) ** 2
        regret = math.fsum(losses) - math.fsum(comp_losses)
        bound = ck.kaar_bound(K, tau, f_norm_sq, M)
        d_eff = ck.effective_dimension_eig(K, tau)
        kappa_sq = math.sqrt(math.pi / 2.0)
        cert = tau * f_norm_sq + M**2 * (1.0 + math.log(1.0 + n * kappa_sq / tau)) * d_eff
        rounds = powers_of_two(n)
        return [
            ck.check("schedule", tr.s == 1.0 and math.isclose(tr.tau, tau, rel_tol=1e-12),
                     f"s = {tr.s}, tau = {tr.tau!r} (expected {tau!r})"),
            ck.check("stream", stream_ok, f"{n} rounds of PCG64({out.seed}) regenerated"),
            ck.forecasts_match("dense-oracle", K, ys, tau, tr.raw_yhats, ck.sampled_rounds(n, out.seed)),
            ck.clipping_sound(tr.raw_yhats, tr.yhats, ys, M),
            ck.running_sums_match("kahan-loss", tr.cum_losses, losses, rounds),
            ck.running_sums_match("kahan-comparator", tr.comparator_cum["representer"], comp_losses, rounds),
            ck.check("regret", math.isclose(tr.final_regret("representer"), regret, rel_tol=1e-9, abs_tol=1e-9),
                     f"program {tr.final_regret('representer')!r}, fsum {regret!r}"),
            ck.check("kaar-bound", regret <= bound, f"regret {regret:.6g} <= {bound:.6g}"),
            ck.check("effective-dimension", abs(out.d_eff - d_eff) <= 1e-9 * d_eff,
                     f"program {out.d_eff!r}, eigvalsh {d_eff!r}"),
            ck.check("certificate",
                     math.isclose(out.f_norm_sq, f_norm_sq, rel_tol=1e-9)
                     and math.isclose(out.certificate, cert, rel_tol=1e-9) and regret <= out.certificate,
                     f"program {out.certificate!r}, formula {cert!r}, regret {regret:.6g}"),
        ]


# ---------------------------------------------------------------------------

HARD_D2 = dict(d=2, regime="hard", beta=0.9, p=4.0, epsilon=0.05, forecaster="kaar_clipped",
               clip_m=1.0, adversary="shattering", n_grid=None, name="hard-d2")


@dataclass
class CliRun:
    seeds: list[int]
    out_dir: Path
    horizon: int


class BenchD2Hard(Workload):
    """One `kaarbench bench --config hard` call over three seeds per operation."""

    name = "bench-d2-hard"
    seeds_per_op = 3

    def argv(self, horizon: int, seeds: list[int], out_dir: Path) -> list[str]:
        return ["bench", "--config", "hard", "--threads", "1", "--out", str(out_dir),
                "--override", f"experiment.horizon={horizon}",
                "--override", "experiment.seeds=" + ",".join(map(str, seeds))]

    def prepare(self) -> None:
        self.horizon = 64 if self.tiny else 1024
        config = resolve_preset("hard", [f"experiment.horizon={self.horizon}", "experiment.threads=1"], HARD_D2)
        adversary.mollifier_norm(config.d, config.beta)

    def warm_up(self, out_dir: Path) -> None:
        run_cli(self.argv(16, self.stream_seeds(0)[:1], out_dir))

    def op(self, i: int, out_dir: Path) -> CliRun:
        seeds = self.stream_seeds(i)
        run_cli(self.argv(self.horizon, seeds, out_dir))
        return CliRun(seeds, out_dir, self.horizon)

    def check(self, out: CliRun) -> list[ck.Check]:
        M, d, beta = 1.0, 2, 0.9
        centers = ck.shattering_centers(out.horizon, d)
        n = len(centers)
        tau = ck.hard_tau(out.horizon, d, beta, p=4.0, epsilon=0.05)
        n_grid = math.ceil(out.horizon / 2**d)
        # |f| <= M n_grid^{-beta/d} / 4 at a cube center, with the label's sign
        lo, hi = (M - M * n_grid ** (-beta / d) / 4.0) ** 2, M**2
        summary = read_csv(out.out_dir / "hard-d2_summary.csv")
        results, sums = [], []
        worst_sum, worst_comp, rows_ok, labels_ok = 0.0, 0.0, True, True
        all_yhats = []
        for k, seed in enumerate(out.seeds):
            tr = read_csv(out.out_dir / f"hard-d2_seed{seed}.csv")
            rows_ok &= len(tr["t"]) == n and np.array_equal(tr["t"], np.arange(1, n + 1))
            labels_ok &= bool(np.all(np.abs(tr["y"]) == M))
            all_yhats.append(tr["yhat"])
            losses = (tr["y"] - tr["yhat"]) ** 2
            comp_cum = tr["cum_loss"] - tr["regret_bump"]
            comp_losses = np.diff(comp_cum, prepend=0.0)
            c = comp_cum[-1] / n
            worst_comp = max(worst_comp, float(np.max(np.abs(comp_losses - c))) / c)
            if not lo <= c <= hi:
                worst_comp = math.inf
            regret = math.fsum(losses) - math.fsum(comp_losses)
            row = int(np.flatnonzero(summary["seed"] == seed)[0])
            worst_sum = max(worst_sum, abs(summary["regret"][row] - regret) / max(1.0, abs(regret)),
                            0.0 if summary["n"][row] == n else math.inf)
            sums.append(ck.running_sums_match(f"seed {seed}", tr["cum_loss"], losses, powers_of_two(n)))
            if k == 0:
                K = ck.kernel_kv(d, d / 2.0 + 0.05)(ck.distances(centers, centers))
                results.append(ck.forecasts_match("dense-oracle", K, tr["y"], tau, tr["yhat"],
                                                  ck.sampled_rounds(n, seed), clip_m=M))
        results += [
            ck.merged("kahan-loss", sums),
            ck.check("trace-rows", rows_ok and labels_ok, f"{n} rounds per seed, labels +-M {labels_ok}"),
            ck.check("comparator-loss", worst_comp <= 1e-9,
                     f"per-round bump loss constant within {worst_comp:.3g} and inside [{lo:.6g}, {hi:g}]"),
            ck.check("summary-regret", worst_sum <= 1e-9, f"max error {worst_sum:.3g} against fsum of trace CSVs"),
            ck.within_range("forecast-range", np.concatenate(all_yhats), M),
        ]
        return results


# ---------------------------------------------------------------------------

EWA_COMPARE = dict(d=1, regime="smooth", beta=1.0, clip_m=1.0, ewa_beta=1.0, adversary="iid",
                   noise_sd=0.1, comparator="representer", comparator_centers=5,
                   comparator_norm=0.65, comparator_seed=0, name="ewa-compare")


class CompareEwaFine(Workload):
    """One `kaarbench compare --config ewa-compare` call at epsilon = 0.3 per operation."""

    name = "compare-ewa-fine"
    seeds_per_op = 3
    epsilon = 0.3

    def argv(self, horizon: int, epsilon: float, seeds: list[int], out_dir: Path) -> list[str]:
        return ["compare", "--config", "ewa-compare", "--threads", "1", "--out", str(out_dir),
                "--override", f"experiment.horizon={horizon}", "--override", f"ewa.epsilon={epsilon}",
                "--override", "experiment.seeds=" + ",".join(map(str, seeds))]

    def prepare(self) -> None:
        self.horizon = 64 if self.tiny else 1024
        resolve_preset("ewa-compare", [f"experiment.horizon={self.horizon}", f"ewa.epsilon={self.epsilon}"],
                       EWA_COMPARE)

    def warm_up(self, out_dir: Path) -> None:
        run_cli(self.argv(16, 0.5, self.stream_seeds(0)[:1], out_dir))

    def op(self, i: int, out_dir: Path) -> CliRun:
        seeds = self.stream_seeds(i)
        run_cli(self.argv(self.horizon, self.epsilon, seeds, out_dir))
        return CliRun(seeds, out_dir, self.horizon)

    def check(self, out: CliRun) -> list[ck.Check]:
        M, n = 1.0, out.horizon
        eta = 1.0 / (8.0 * M**2)
        tau = ck.smooth_tau(n, d=1, beta=1.0)
        m, grid, adjacent = ck.expert_net(self.epsilon, 1.0, M)
        n_experts = ck.net_size(m, adjacent)
        slack = math.log(n_experts) / eta
        f, f_norm_sq = ck.representer(ck.kernel_d1_s1, 1, 5, 0.65, 0)
        table = read_csv(out.out_dir / "ewa-compare_compare.csv")
        cps = powers_of_two(n)
        worst_ewa, worst_kaar, rows_ok = -math.inf, -math.inf, True
        for seed in out.seeds:
            xs, ys = ck.iid_stream(f, n, 1, seed, 0.1, M)
            comp_losses = (ys - f(xs)) ** 2
            K = ck.kernel_d1_s1(ck.distances(xs, xs))
            sel = table["seed"] == seed
            rows_ok &= table["t"][sel].astype(int).tolist() == cps
            for t, reg_kaar, reg_ewa in zip(table["t"][sel].astype(int), table["regret_kaar"][sel],
                                            table["regret_ewa"][sel]):
                ewa_loss = reg_ewa + math.fsum(comp_losses[:t])
                best = ck.best_expert_loss(xs[:t], ys[:t], m, grid, adjacent)
                worst_ewa = max(worst_ewa, ewa_loss - best - slack)
                worst_kaar = max(worst_kaar, reg_kaar - ck.kaar_bound(K[:t, :t], tau, f_norm_sq, M))
        return [
            ck.check("checkpoint-rows", rows_ok, f"rows at t = {cps} for seeds {out.seeds}"),
            ck.check("aggregation-bound", worst_ewa <= 1e-9,
                     f"EWA loss - best expert loss - ln N / eta <= {worst_ewa:.6g}, "
                     f"N = {n_experts} over {m} cells, ln N / eta = {slack:.6g}"),
            ck.check("kaar-bound", worst_kaar <= 1e-9, f"KAAR regret - bound <= {worst_kaar:.6g}"),
        ]


WORKLOADS = {w.name: w for w in (GameD1Certified, BenchD2Hard, CompareEwaFine)}
