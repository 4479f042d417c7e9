"""Online regression game loop, regret accounting and result persistence.

The protocol per round t is strict: the environment reveals x_t, the
forecaster predicts yhat_t from the history and x_t alone, the label y_t is
revealed, the squared loss (y_t - yhat_t)^2 is suffered, and only then may
the forecaster update.  Streams are materialized up front (the adversary is
oblivious) and every game is a deterministic function of its config and
seed.  The kernel forecasters are therefore replayed from one level-3
factor of the whole game (kaar.replay_forecasts), whose triangular
structure keeps each forecast off its own and later labels; the EWA and
zero forecasters play round by round behind an order guard that enforces
predict-before-update, so no code path can leak the label.

Cumulative sums are compensated (Kahan) so that the regret identity

    regret_t(f) = cum_loss_t - cum_comparator_loss_t(f)

holds to 1e-9 against independently accumulated totals over 1e4+ rounds.
Regret against every registered comparator is recorded at geometric
checkpoints (powers of two by default) and the growth exponent of R_n is
estimated by least squares on log-log axes.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from .adversary import (
    RepresenterComparator,
    Stream,
    ZeroComparator,
    iid_stream,
    shattering_stream,
)
from .effdim import loglog_fit
from .ewa import EwaForecaster, balanced_epsilon, build_net
from .kaar import NumericalBreakdownError, Schedule, replay_forecasts, schedule_tau
from .kernel import KernelParams

__all__ = [
    "ExperimentConfig",
    "GameTrace",
    "GameFailure",
    "ExponentFit",
    "run_game",
    "map_seeds",
    "run_horizon_family",
    "bench_seed",
    "compare_seed",
    "estimate_exponent",
    "kahan_cumsum",
    "point_layout",
    "default_checkpoints",
    "write_table",
    "write_trace_csv",
    "write_summary_csv",
    "write_plot_data",
    "write_gram_csv",
    "write_stream_csv",
    "write_effdim_csv",
]

FORECASTER_IDS = ("kaar", "kaar_clipped", "ewa", "zero")
ADVERSARY_IDS = ("iid", "shattering")
COMPARATOR_IDS = ("representer", "bump", "zero")


class GameFailure(RuntimeError):
    """A numerical failure inside a game, carrying the failing round index."""

    def __init__(self, message: str, round_index: int):
        super().__init__(message)
        self.round_index = round_index

    def __reduce__(self):
        # both arguments, so a failure in a worker process unpickles in the parent
        return type(self), (str(self), self.round_index)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one game family (kernel, forecaster, adversary)."""

    name: str = "game"
    horizon: int = 256
    seeds: tuple[int, ...] = (0,)
    checkpoints: tuple[int, ...] | None = None  # None -> powers of two up to n
    threads: int = 1
    # kernel / schedule
    d: int = 1
    regime: str = "smooth"  # smooth | hard | manual
    beta: float = 1.0
    p: float = math.inf
    epsilon: float = 0.05
    s: float | None = None
    tau: float | None = None
    # forecaster
    forecaster: str = "kaar_clipped"
    clip_m: float = 1.0
    ewa_epsilon: float | None = None
    ewa_beta: float | None = None
    # adversary
    adversary: str = "iid"
    noise_sd: float = 0.1
    comparator: str = "representer"
    comparator_centers: int = 5
    comparator_norm: float = 0.65
    comparator_seed: int = 0
    n_grid: int | None = None
    # output
    out_dir: str | None = None

    def validate(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.forecaster not in FORECASTER_IDS:
            raise ValueError(f"unknown forecaster id {self.forecaster!r} (known: {FORECASTER_IDS})")
        if self.adversary not in ADVERSARY_IDS:
            raise ValueError(f"unknown adversary id {self.adversary!r} (known: {ADVERSARY_IDS})")
        if self.comparator not in COMPARATOR_IDS:
            raise ValueError(f"unknown comparator id {self.comparator!r} (known: {COMPARATOR_IDS})")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0 < self.clip_m < math.inf:
            raise ValueError(f"clip_m must be positive and finite, got {self.clip_m}")
        if self.comparator_centers < 1:
            raise ValueError(f"comparator centers must be >= 1, got {self.comparator_centers}")
        if self.checkpoints is not None:
            bad = [c for c in self.checkpoints if not 1 <= c <= self.horizon]
            if bad:
                raise ValueError(f"checkpoints outside [1, horizon]: {bad}")
        if self.forecaster == "ewa" and self.d != 1:
            raise ValueError("the EWA expert-net forecaster only supports d = 1")
        if self.adversary == "iid" and self.comparator == "bump":
            raise ValueError("bump comparators pair with shattering streams; iid streams take representer or zero")
        if self.ewa_beta is not None and not 0 < self.ewa_beta <= 1:
            raise ValueError(f"ewa.beta must lie in (0, 1], got {self.ewa_beta}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        # resolving the schedule performs its own invariant checks
        self.schedule()

    def schedule(self) -> tuple[float, float]:
        sched = Schedule(
            regime=self.regime, beta=self.beta, p=self.p, epsilon=self.epsilon,
            n=self.horizon, s=self.s, tau=self.tau,
        )
        return schedule_tau(sched, self.d)

    @property
    def comparator_id(self) -> str:
        """The stream's own comparator, whose regret the reports show."""
        return "bump" if self.adversary == "shattering" else self.comparator

    def ewa_scale(self) -> tuple[float, float]:
        """(beta, epsilon) of the EWA expert net; unset values default to
        min(beta, 1) and the entropy-balancing epsilon* at the horizon."""
        beta = min(self.beta, 1.0) if self.ewa_beta is None else self.ewa_beta
        eps = balanced_epsilon(self.horizon, beta) if self.ewa_epsilon is None else self.ewa_epsilon
        return beta, eps


@dataclass
class GameTrace:
    """Per-round records of one game plus cumulative losses and regrets."""

    seed: int
    n: int
    s: float
    tau: float
    xs: np.ndarray
    ys: np.ndarray
    yhats: np.ndarray
    losses: np.ndarray
    cum_losses: np.ndarray
    comparator_cum: dict[str, np.ndarray]
    checkpoints: tuple[int, ...]
    raw_yhats: np.ndarray | None = None
    flags: tuple[str, ...] = ()
    # kernel forecasters only, from the factor's diagonal: log det(I + K_t / tau)
    # at each checkpoint t, and the smallest pivot R_tt^2 (>= tau in exact arithmetic)
    log_det: np.ndarray | None = None
    min_pivot: float | None = None

    def regret(self, comparator_id: str) -> np.ndarray:
        """Cumulative regret after each round against one comparator."""
        return self.cum_losses - self.comparator_cum[comparator_id]

    def regret_at(self, comparator_id: str, t: int) -> float:
        return float(self.regret(comparator_id)[t - 1])

    def final_regret(self, comparator_id: str) -> float:
        return self.regret_at(comparator_id, self.n)

    def checkpoint_regrets(self, comparator_id: str) -> np.ndarray:
        reg = self.regret(comparator_id)
        return np.array([reg[t - 1] for t in self.checkpoints])


def kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sum of a 1-d array."""
    out = np.empty(len(values))
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def default_checkpoints(n: int) -> tuple[int, ...]:
    """Powers of two up to n, always including n itself."""
    cps = [2**k for k in range(0, n.bit_length()) if 2**k <= n]
    if cps[-1] != n:
        cps.append(n)
    return tuple(cps)


class _OrderGuard:
    """Enforces the reveal-predict-reveal-suffer order round by round."""

    def __init__(self, forecaster):
        self._f = forecaster
        self._predicted = False

    def predict(self, x) -> float:
        if self._predicted:
            raise RuntimeError("protocol violation: two predictions without an update")
        self._predicted = True
        return self._f.predict(x)

    def update(self, x, y) -> None:
        if not self._predicted:
            raise RuntimeError("protocol violation: update before the round's prediction")
        self._f.update(x, y)
        self._predicted = False


def _zero_forecaster():
    class _Zero:
        def predict(self, x):
            return 0.0

        def update(self, x, y):
            pass

    return _Zero()


def make_comparator(config: ExperimentConfig, params: KernelParams):
    """Build the configured comparator for iid streams (fixed across seeds)."""
    if config.comparator == "zero":
        return ZeroComparator(dim=config.d)
    if config.comparator == "representer":
        rng = np.random.default_rng(config.comparator_seed)
        centers = rng.uniform(-0.8, 0.8, size=(config.comparator_centers, config.d))
        raw = np.where(np.arange(config.comparator_centers) % 2 == 0, 1.0, -1.0)
        comp = RepresenterComparator(params=params, centers=centers, coeffs=raw)
        if comp.norm_sq > 0:
            scale = config.comparator_norm / math.sqrt(comp.norm_sq)
            comp = RepresenterComparator(params=params, centers=centers, coeffs=raw * scale)
        return comp
    raise ValueError(f"comparator {config.comparator!r} is only available on shattering streams")


def make_stream(config: ExperimentConfig, params: KernelParams, seed: int) -> Stream:
    rng = np.random.default_rng(seed)
    if config.adversary == "shattering":
        n_grid = config.n_grid
        if n_grid is None:
            n_grid = max(1, math.ceil(config.horizon / 2**config.d))
        return shattering_stream(n_grid, config.d, config.clip_m, config.beta, rng)
    comp = make_comparator(config, params)
    return iid_stream(comp, config.noise_sd, config.horizon, rng, clip_m=config.clip_m)


def make_forecaster(config: ExperimentConfig):
    """The forecaster of a game played round by round (the kernel forecasters are replayed)."""
    if config.forecaster == "ewa":
        beta, eps = config.ewa_scale()
        return EwaForecaster(build_net(beta, config.clip_m, eps))
    if config.forecaster == "zero":
        return _zero_forecaster()
    raise ValueError(f"unknown forecaster id {config.forecaster!r}")


def _game_failure(config: ExperimentConfig, seed: int, round_index: int, cause) -> GameFailure:
    return GameFailure(f"game {config.name!r} seed {seed} failed at round {round_index}: {cause}", round_index)


def run_game(config: ExperimentConfig, seed: int | None = None) -> GameTrace:
    """Play one seeded game and return its trace.

    The comparator registered under the stream's id plus the constant-zero
    comparator are tracked for regret.  The game length is the configured
    horizon, shortened to the stream length for shattering streams whose
    cube count does not reach the horizon.  The kernel forecasters are
    replayed from one factor of the whole game; the others play round by
    round through make_forecaster.
    """
    config.validate()
    if seed is None:
        seed = config.seeds[0]
    s, tau = config.schedule()
    params = KernelParams(config.d, s)
    stream = make_stream(config, params, seed)
    n = min(config.horizon, len(stream))
    xs, ys = stream.xs[:n], stream.ys[:n]
    flags: tuple[str, ...] = ()
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        warnings.warn("stream inputs leave [-1, 1]^d; the kernel formula remains valid", stacklevel=2)
        flags = ("inputs-outside-domain",)

    comp_id = config.comparator_id
    comparators: dict[str, object] = {comp_id: stream.comparator}
    if comp_id != "zero":
        comparators["zero"] = ZeroComparator(dim=config.d)

    checkpoints = config.checkpoints or default_checkpoints(n)
    checkpoints = tuple(c for c in checkpoints if c <= n)
    raw_yhats = log_det = min_pivot = None
    if config.forecaster in ("kaar", "kaar_clipped"):
        # the game stops at its first non-finite label, after that round's forecast
        bad = np.flatnonzero(~np.isfinite(ys))
        m = int(bad[0]) + 1 if bad.size else n
        try:
            raw, pivots = replay_forecasts(params, tau, xs[:m], ys[:m])
        except NumericalBreakdownError as exc:
            raise _game_failure(config, seed, exc.round_index, exc) from exc
        if bad.size:
            cause = ValueError(f"label must be finite, got {ys[m - 1]}")
            raise _game_failure(config, seed, m, cause) from cause
        log_det = np.cumsum(np.log(pivots / tau))[np.array(checkpoints, dtype=int) - 1]
        min_pivot = float(pivots.min())
        if config.forecaster == "kaar_clipped":
            raw_yhats = raw
            yhats = np.clip(raw, -config.clip_m, config.clip_m)
        else:
            yhats = raw
    else:
        guard = _OrderGuard(make_forecaster(config))
        yhats = np.empty(n)
        try:
            for t in range(n):
                yhats[t] = guard.predict(xs[t])
                guard.update(xs[t], ys[t])
        except (NumericalBreakdownError, ValueError, FloatingPointError, OverflowError) as exc:
            raise _game_failure(config, seed, t + 1, exc) from exc

    losses = (ys - yhats) ** 2
    cum_losses = kahan_cumsum(losses)
    comparator_cum = {}
    for name, comp in comparators.items():
        comp_losses = (ys - comp.evaluate(xs)) ** 2
        comparator_cum[name] = kahan_cumsum(comp_losses)

    return GameTrace(
        seed=seed, n=n, s=s, tau=tau, xs=xs, ys=ys, yhats=yhats,
        losses=losses, cum_losses=cum_losses, comparator_cum=comparator_cum,
        checkpoints=checkpoints, raw_yhats=raw_yhats, flags=flags,
        log_det=log_det, min_pivot=min_pivot,
    )


def _bundled_openblas():
    """ctypes handles of the OpenBLAS libraries that numpy and scipy bundle
    (none for a build linked against another BLAS)."""
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            yield ctypes.CDLL(str(path))


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker process, so that the
    workers do not oversubscribe the cores."""
    for lib in _bundled_openblas():
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def map_seeds(fn, config: ExperimentConfig, *args) -> dict:
    """fn(config, *args, seed) for every configured seed, keyed by seed.

    Seeds run across config.threads worker processes when there is more than
    one of each, and in this process, in seed order, otherwise.  Each worker
    runs one BLAS thread; this process keeps the library default.
    """
    config.validate()
    calls = [(config, *args, seed) for seed in config.seeds]
    if config.threads > 1 and len(calls) > 1:
        with ProcessPoolExecutor(max_workers=config.threads, initializer=_one_blas_thread) as pool:
            results = list(pool.map(fn, *zip(*calls)))
    else:
        results = [fn(*call) for call in calls]
    return dict(zip(config.seeds, results))


def run_horizon_family(
    config: ExperimentConfig, ns, seed: int, full: GameTrace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rounds played and final regrets of fresh games at each horizon in ns (one seed).

    The schedule is re-resolved per horizon, so tau follows its n-dependent
    law across the family; this is the curve whose growth exponent the
    regret theory bounds.  Regret is against the stream's own comparator.
    A shattering stream with d >= 2 can have fewer cubes than the nominal
    horizon, so fit exponents against the rounds played, not against ns.
    `full`, a game already played at config.horizon for this seed, stands in
    for the family member at that horizon instead of a replay.
    """
    games = [
        full if full is not None and n == config.horizon
        else run_game(replace(config, horizon=n, checkpoints=None), seed)
        for n in ns
    ]
    played = np.array([game.n for game in games], dtype=int)
    return played, np.array([game.final_regret(config.comparator_id) for game in games])


def bench_seed(config: ExperimentConfig, fit_ns: tuple[int, ...], seed: int):
    """One bench unit: the full-horizon trace plus run_horizon_family at fit_ns.

    The full-horizon game doubles as the family member at the configured
    horizon, so it is not replayed.
    """
    trace = run_game(config, seed)
    return (trace, *run_horizon_family(config, fit_ns, seed, full=trace))


def compare_seed(config: ExperimentConfig, seed: int) -> list[tuple[int, float, float]]:
    """(t, clipped-kernel regret, EWA regret) at each checkpoint of one seed's stream."""
    comp_id = config.comparator_id
    kaar = run_game(replace(config, forecaster="kaar_clipped"), seed)
    ewa = run_game(replace(config, forecaster="ewa"), seed)
    return [(c, kaar.regret_at(comp_id, c), ewa.regret_at(comp_id, c)) for c in kaar.checkpoints]


@dataclass
class ExponentFit:
    """OLS fit of log regret against log n at geometric checkpoints."""

    slope: float
    intercept: float
    r_squared: float
    flagged: bool = False          # some checkpoints were nonpositive and floored
    all_nonpositive: bool = False  # regret never accumulated; slope meaningless


def estimate_exponent(ns, regrets, floor: float = 1e-8) -> ExponentFit:
    """Estimate rho in R_n ~ n^rho from checkpointed regrets.

    Nonpositive regrets (the forecaster beating the comparator is
    legitimate) are floored to `floor` and flagged rather than rejected.
    """
    ns = np.asarray(ns, dtype=float)
    regrets = np.asarray(regrets, dtype=float)
    if len(ns) < 4:
        raise ValueError(f"need >= 4 checkpoints for an exponent fit, got {len(ns)}")
    nonpos = regrets <= 0
    flagged = bool(nonpos.any())
    all_nonpos = bool(nonpos.all())
    slope, intercept, r_squared = loglog_fit(ns, np.maximum(regrets, floor))
    return ExponentFit(slope, intercept, r_squared, flagged, all_nonpos)


def point_layout(kind: str, n: int, d: int, rng=None) -> np.ndarray:
    """Point sets used by the effective-dimension studies.

    equispaced: regular grid on [-1, 1] (d = 1) or product grid (d > 1,
    n rounded down to a grid size); uniform: i.i.d. uniform on the cube;
    clustered: equal-weight gaussian blobs around a few anchors, clipped to
    the cube.
    """
    rng = np.random.default_rng(rng)
    if kind == "equispaced":
        if d == 1:
            return np.linspace(-1.0, 1.0, n)[:, None]
        per_axis = max(2, int(round(n ** (1.0 / d))))
        axis = np.linspace(-1.0, 1.0, per_axis)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "clustered":
        anchors = rng.uniform(-0.7, 0.7, size=(4, d))
        which = rng.integers(0, len(anchors), size=n)
        pts = anchors[which] + 0.05 * rng.standard_normal((n, d))
        return np.clip(pts, -1.0, 1.0)
    raise ValueError(f"unknown point layout {kind!r}")


# ---------------------------------------------------------------------------
# persistence: CSV and plot-data writers
# ---------------------------------------------------------------------------

def write_table(path, rows, header=None, sep=",") -> None:
    """Write rows of numbers as sep-joined lines, under an optional header.

    Every writer goes through this one format: floats print with 17
    significant digits (f"{v:.17g}", enough to round-trip), ints print as
    ints and None prints as an empty field.
    """
    with open(path, "w") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fields = ["" if v is None else str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}" for v in row]
            fh.write(sep.join(fields) + "\n")


def write_trace_csv(trace: GameTrace, path) -> None:
    """Per-game CSV: t,y,yhat,loss,cum_loss,regret_<comparator-id>..."""
    names = sorted(trace.comparator_cum)
    columns = [trace.ys, trace.yhats, trace.losses, trace.cum_losses] + [trace.regret(n) for n in names]
    rows = ((t, *row) for t, row in enumerate(zip(*(col.tolist() for col in columns)), start=1))
    write_table(path, rows, ["t", "y", "yhat", "loss", "cum_loss"] + [f"regret_{n}" for n in names])


def write_summary_csv(rows: list[dict], path) -> None:
    """Experiment summary CSV: seed,n,regret,slope (an unset slope stays empty)."""
    rows = ((row["seed"], row["n"], row["regret"], row.get("slope")) for row in rows)
    write_table(path, rows, ["seed", "n", "regret", "slope"])


def write_plot_data(path, xs, ys) -> None:
    """Two-column whitespace 'x y' file consumable by standard plotting tools."""
    write_table(path, ((float(x), float(y)) for x, y in zip(xs, ys)), sep=" ")


def write_gram_csv(K: np.ndarray, path) -> None:
    """Row-major Gram-matrix dump with header i,j,value (debugging aid)."""
    rows = ((i, j, v) for i, row in enumerate(K.tolist()) for j, v in enumerate(row))
    write_table(path, rows, ["i", "j", "value"])


def write_stream_csv(stream: Stream, path) -> None:
    """Stream dump t,x_1..x_d,y for replay and cross-implementation checks."""
    d = stream.xs.shape[1]
    rows = ((t, *x, y) for t, (x, y) in enumerate(zip(stream.xs.tolist(), stream.ys.tolist()), start=1))
    write_table(path, rows, ["t"] + [f"x_{k + 1}" for k in range(d)] + ["y"])


def write_effdim_csv(reports, spectra, path) -> None:
    """Effective-dimension report CSV: n,tau,d_eff,lambda_max,lambda_min, the
    lambda columns from each report's effdim.spectrum (nonincreasing)."""
    rows = ((rep.n, rep.tau, rep.value, lam[0], lam[-1]) for rep, lam in zip(reports, spectra, strict=True))
    write_table(path, rows, ["n", "tau", "d_eff", "lambda_max", "lambda_min"])
