"""Layer timings of the level-3 game replay and of the effective dimension.

    python3 scripts/bench_layers.py

For each n in NS and d in DS it draws n uniform inputs on [-1, 1]^d and uniform labels
on [-1, 1] (PCG64, seed 0), resolves (s, tau) by the smooth schedule
(beta = 1 for d = 1, beta = 1.5 for d = 2) and times, as the median of
REPEATS runs:

    gram_s              kernel.gram of all n inputs
    kernel_block_s      the replay's panel fill: kernel.kernel_block on
                        every panel's rows
    panel_factor_s      kaar.panel_cholesky of K + tau I, its fill copying
                        those blocks
    forecasts_s         kaar.panel_forecasts on that factor
    replay_s            kaar.replay_forecasts end to end (fill, factor and
                        forecasts)
    online_game_s       KaarForecaster.predict/update round by round
    d_eff_panels_s      effdim.effective_dimension of the Gram matrix
    d_eff_eigvalsh_s    numpy.linalg.eigvalsh of it and the eigenvalue sum

with the agreement of the replay against the online forecasts and of the
two d_eff values.

The general-order cases time the same panel fill at the hard preset's
Bessel order (s = d/2 + 0.05 at d = GENERAL_D, so nu = 0.05, where
special.bessel_k calls scipy's kv once per distinct distance) on two
layouts of GENERAL_N inputs: the preset's shattering lattice (cube
centres, whose distances repeat) and uniform inputs (whose distances do
not).  Each records, for the kernel_block calls of kernel.kernel_of_dist:

    kernel_block_s      kernel.kernel_block on every panel's rows
    kv_every_value_s    scipy's kv on every distance of those calls, one
                        evaluation per value, as without the deduplication
    blocks, values, distinct_values
                        the calls, the distances they hold, and the sum
                        over calls of each call's distinct distances
    sort_s, kv_s        on the call with the most distinct distances:
                        numpy.unique with its inverse, and kv on those
                        distinct distances (median of SORT_REPEATS runs)

BLAS runs one thread unless OPENBLAS_NUM_THREADS is set.  The JSON record
(library versions, BLAS threads, core count) goes to BENCH_replay.json at
the root of the repository.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special as sp  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402

from kaarbench.adversary import shattering_stream  # noqa: E402
from kaarbench.effdim import effective_dimension  # noqa: E402
from kaarbench.harness import _bundled_openblas  # noqa: E402
from kaarbench.kaar import (  # noqa: E402
    PANEL_WIDTH,
    KaarForecaster,
    Schedule,
    panel_cholesky,
    panel_forecasts,
    replay_forecasts,
    schedule_tau,
)
from kaarbench.kernel import _KERNEL_BLOCK, KernelParams, gram, kernel_block  # noqa: E402

NS = (1024, 2048, 4096)
DS = (1, 2)
REPEATS = 3
OUT = ROOT / "BENCH_replay.json"
BETA = {1: 1.0, 2: 1.5}
# the hard preset's d = 2 game at horizon 1024: beta 0.9, p 4, epsilon 0.05
GENERAL_N = 1024
GENERAL_D = 2
HARD = dict(beta=0.9, p=4.0, epsilon=0.05)
SORT_REPEATS = 51


def openblas() -> list[dict]:
    """Config string and thread count of each OpenBLAS bundled with numpy and scipy."""
    found = []
    for lib in _bundled_openblas():
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                found.append({"library": Path(lib._name).name, "config": get_config().decode(),
                              "threads": get_threads()})
                break
    return found


def timed(fn, repeats: int):
    """(median seconds, last result) of repeats calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def online_game(params, tau, xs, ys) -> np.ndarray:
    fc = KaarForecaster(params, tau)
    out = np.empty(len(xs))
    for t in range(len(xs)):
        out[t] = fc.predict(xs[t])
        fc.update(xs[t], ys[t])
    return out


def panel_bounds(n: int) -> list[tuple[int, int]]:
    return [(a, min(a + PANEL_WIDTH, n)) for a in range(0, n, PANEL_WIDTH)]


def panel_fill(params, xs) -> list[np.ndarray]:
    """The replay's panel fill: kernel.kernel_block on every panel's rows."""
    return [kernel_block(params, xs[:e], xs[a:e], np.empty((e, e - a))) for a, e in panel_bounds(len(xs))]


def case(n: int, d: int, repeats: int) -> dict:
    s, tau = schedule_tau(Schedule("smooth", beta=BETA[d], n=n), d)
    params = KernelParams(d, s)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, (n, d))
    ys = rng.uniform(-1.0, 1.0, n)
    layers = {}
    layers["gram_s"], K = timed(lambda: gram(params, xs), repeats)
    layers["kernel_block_s"], filled = timed(lambda: panel_fill(params, xs), repeats)
    layers["panel_factor_s"], panels = timed(
        lambda: panel_cholesky(lambda a, e, out: out.__setitem__(Ellipsis, filled[a // PANEL_WIDTH]), n, tau),
        repeats)
    del filled
    layers["forecasts_s"], _ = timed(lambda: panel_forecasts(panels, tau, ys), repeats)
    del panels
    layers["replay_s"], (replay, _) = timed(lambda: replay_forecasts(params, tau, xs, ys), repeats)
    layers["online_game_s"], online = timed(lambda: online_game(params, tau, xs, ys), repeats)
    layers["d_eff_panels_s"], report = timed(lambda: effective_dimension(K, tau), repeats)

    def eig_sum():
        lam = np.maximum(np.linalg.eigvalsh(K), 0.0)
        return float(np.sum(lam / (lam + tau)))

    layers["d_eff_eigvalsh_s"], d_eff_eig = timed(eig_sum, repeats)
    return {
        "n": n, "d": d, "s": s, "tau": tau, "layers": layers,
        "speedup": {"game": layers["online_game_s"] / layers["replay_s"],
                    "d_eff": layers["d_eff_eigvalsh_s"] / layers["d_eff_panels_s"]},
        "agreement": {"forecasts_max_abs_diff": float(np.abs(replay - online).max()),
                      "d_eff_rel_diff": abs(report.value - d_eff_eig) / d_eff_eig},
    }


def kernel_block_distances(xs: np.ndarray) -> list[np.ndarray]:
    """The distances of each kernel_of_dist call that the replay's panel fill makes."""
    calls = []
    for a, e in panel_bounds(len(xs)):
        rows = max(1, _KERNEL_BLOCK // (e - a))
        calls += [cdist(xs[i : i + rows], xs[a:e]) for i in range(0, e, rows)]
    return calls


def general_order_case(layout: str, xs: np.ndarray) -> dict:
    n, d = xs.shape
    s, tau = schedule_tau(Schedule("hard", n=n, **HARD), d)
    params = KernelParams(d, s)
    calls = kernel_block_distances(xs)
    kernel_block_s, _ = timed(lambda: panel_fill(params, xs), REPEATS)
    kv_every_value_s, _ = timed(lambda: [sp.kv(params.nu, r) for r in calls], REPEATS)
    distinct_counts = [len(np.unique(r)) for r in calls]
    busiest = calls[int(np.argmax(distinct_counts))]
    sort_s, (distinct, _) = timed(lambda: np.unique(busiest, return_inverse=True), SORT_REPEATS)
    kv_s, _ = timed(lambda: sp.kv(params.nu, distinct), SORT_REPEATS)
    return {
        "layout": layout, "n": n, "d": d, "s": s, "nu": params.nu, "tau": tau,
        "kernel_block_s": kernel_block_s, "kv_every_value_s": kv_every_value_s,
        "blocks": len(calls), "values": sum(r.size for r in calls),
        "distinct_values": sum(distinct_counts),
        "most_distinct_block": {"values": busiest.size, "distinct_values": len(distinct),
                                "sort_s": sort_s, "kv_s": kv_s},
    }


def main() -> int:
    libs = openblas()
    record = {
        "script": "scripts/bench_layers.py",
        "statistic": f"median of {REPEATS} runs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": libs,
        "blas_threads": sorted({lib["threads"] for lib in libs}),
        "workers": 1,
        "cores": os.cpu_count(),
        "panel_width": PANEL_WIDTH,
        "cases": [],
        "general_order_cases": [],
    }
    for d in DS:
        for n in NS:
            row = case(n, d, REPEATS)
            record["cases"].append(row)
            print(f"n={n} d={d}: " + ", ".join(f"{k} {v:.3f}" for k, v in row["layers"].items())
                  + f"; game x{row['speedup']['game']:.1f}, d_eff x{row['speedup']['d_eff']:.1f}", flush=True)
    lattice = shattering_stream(math.ceil(GENERAL_N / 2**GENERAL_D), GENERAL_D, 1.0, HARD["beta"], 0).xs
    uniform = np.random.default_rng(0).uniform(-1.0, 1.0, (GENERAL_N, GENERAL_D))
    for layout, xs in (("lattice", lattice), ("uniform", uniform)):
        row = general_order_case(layout, xs)
        record["general_order_cases"].append(row)
        big = row["most_distinct_block"]
        print(f"{layout} n={row['n']} d={row['d']} nu={row['nu']:.3g}: kernel_block {row['kernel_block_s']:.3f} s,"
              f" kv on every value {row['kv_every_value_s']:.3f} s; {row['distinct_values']} distinct of"
              f" {row['values']} values in {row['blocks']} calls; on {big['values']} values sort"
              f" {1e3 * big['sort_s']:.2f} ms, kv {1e3 * big['kv_s']:.2f} ms", flush=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
