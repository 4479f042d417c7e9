"""Independent correctness checks on the outputs of the benchmark's workloads.

Nothing here calls kaarbench.  Each check rebuilds what it needs from the
definitions the program documents (the kernel formula, the schedules, the
stream, comparator and expert-net constructions) with numpy and scipy
directly, and compares the program's outputs with it.  No check compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special as sp


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


# -- kernels and schedules -------------------------------------------------

def kernel_d1_s1(r):
    """Sobolev kernel for d = 1, s = 1 in closed form: sqrt(pi/2) e^{-r}."""
    return math.sqrt(math.pi / 2.0) * np.exp(-np.asarray(r, dtype=float))


def kernel_kv(d: int, s: float):
    """Sobolev kernel 2^{1-s}/Gamma(s) r^nu K_nu(r), nu = s - d/2, by scipy.special.kv.

    At r = 0 it takes the limit 2^{-d/2} Gamma(nu) / Gamma(s).
    """
    nu = s - d / 2.0
    amp = 2.0 ** (1.0 - s) / sp.gamma(s)
    diag = 2.0 ** (-d / 2.0) * sp.gamma(nu) / sp.gamma(s)

    def k(r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, diag)
        pos = r > 0
        out[pos] = amp * r[pos] ** nu * sp.kv(nu, r[pos])
        return out

    return k


def distances(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def smooth_tau(n: int, d: int, beta: float) -> float:
    """Smooth-regime ridge level n^{d / (2 beta + d)}."""
    return float(n) ** (d / (2.0 * beta + d))


def hard_tau(n: int, d: int, beta: float, p: float, epsilon: float) -> float:
    """Hard-regime ridge level n^{1 - (d (1 - 1/p) - beta') / (d (1 - 2/p))}, beta' = beta - epsilon."""
    expo = 1.0 - (d * (1.0 - 1.0 / p) - (beta - epsilon)) / (d * (1.0 - 2.0 / p))
    return float(n) ** expo


# -- inputs ------------------------------------------------------------------

def representer(kfun, d: int, n_centers: int, norm: float, seed: int):
    """Representer comparator f = sum_i c_i k(z_i, .) scaled to RKHS norm `norm`.

    Centers are uniform on [-0.8, 0.8]^d from PCG64(seed), raw coefficients
    alternate +1, -1.  Returns (f, ||f||^2).
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.8, 0.8, size=(n_centers, d))
    raw = np.where(np.arange(n_centers) % 2 == 0, 1.0, -1.0)
    K = kfun(distances(centers, centers))
    coeffs = raw * norm / math.sqrt(raw @ K @ raw)

    def f(xs):
        return kfun(distances(xs, centers)) @ coeffs

    return f, float(coeffs @ K @ coeffs)


def iid_stream(f, n: int, d: int, seed: int, noise_sd: float, clip_m: float):
    """Uniform inputs on [-1, 1]^d, labels f(x) + noise clamped to [-M, M], from PCG64(seed)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, d))
    ys = np.clip(f(xs) + noise_sd * rng.standard_normal(n), -clip_m, clip_m)
    return xs, ys


def shattering_centers(horizon: int, d: int) -> np.ndarray:
    """Cube centers of the shattering stream, in lexicographic order.

    The grid parameter is ceil(horizon / 2^d); the cube side is
    n_grid^{-1/d} and there are floor(2 n_grid^{1/d}) cubes per axis.
    """
    n_grid = math.ceil(horizon / 2**d)
    per_axis = math.floor(2.0 * n_grid ** (1.0 / d))
    side = n_grid ** (-1.0 / d)
    axis = side * (0.5 + np.arange(per_axis)) - 1.0
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


# -- oracles -------------------------------------------------------------------

def dense_forecast(K: np.ndarray, ys: np.ndarray, tau: float, t: int) -> float:
    """KAAR forecast of round t (1-based) by one dense solve, ytil^T (K_t + tau I)^{-1} k_t."""
    A = K[:t, :t] + tau * np.eye(t)
    ytil = np.append(ys[: t - 1], 0.0)
    return float(ytil @ np.linalg.solve(A, K[:t, t - 1]))


def sampled_rounds(n: int, seed: int, extra: int = 3) -> list[int]:
    """Rounds 2, n/2 and n plus `extra` rounds drawn from PCG64(seed)."""
    rng = np.random.default_rng(seed)
    rounds = {min(2, n), max(1, n // 2), n}
    rounds.update(int(t) for t in rng.integers(1, n + 1, size=extra))
    return sorted(rounds)


def kaar_bound(K: np.ndarray, tau: float, f_norm_sq: float, clip_m: float) -> float:
    """Classical KAAR regret bound tau ||f||^2 + M^2 log det(I + K / tau)."""
    sign, logdet = np.linalg.slogdet(np.eye(len(K)) + K / tau)
    if sign <= 0:
        return -math.inf
    return tau * f_norm_sq + clip_m**2 * logdet


def effective_dimension_eig(K: np.ndarray, tau: float) -> float:
    lam = np.maximum(np.linalg.eigvalsh(K), 0.0)
    return float(np.sum(lam / (lam + tau)))


def expert_net(epsilon: float, beta: float, clip_m: float):
    """Cells, value grid and jump adjacency of the epsilon-net of the Holder ball.

    m = ceil((2M/epsilon)^{1/beta}) equal cells of [-1, 1]; values are the
    multiples of epsilon in [-M, M] plus the endpoints +-M; adjacent cells
    may differ by at most 2 epsilon.
    """
    m = max(1, math.ceil((2.0 * clip_m / epsilon) ** (1.0 / beta)))
    k = math.floor(clip_m / epsilon)
    grid = np.union1d(np.arange(-k, k + 1) * epsilon, [-clip_m, clip_m])
    adjacent = np.abs(grid[:, None] - grid[None, :]) <= 2.0 * epsilon * (1.0 + 1e-9)
    return m, grid, adjacent


def net_size(m: int, adjacent: np.ndarray) -> int:
    """Number of experts, by counting paths through the jump graph."""
    counts = [1] * len(adjacent)
    for _ in range(m - 1):
        counts = [sum(c for c, ok in zip(counts, row) if ok) for row in adjacent]
    return sum(counts)


def best_expert_loss(xs, ys, m: int, grid: np.ndarray, adjacent: np.ndarray) -> float:
    """Smallest cumulative squared loss of any expert, by a min-sum pass over the cells."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float)
    cells = np.clip(np.floor((xs + 1.0) / 2.0 * m).astype(int), 0, m - 1)
    best = np.zeros(len(grid))
    for j in range(m):
        yj = ys[cells == j]
        loss = np.array([math.fsum((yj - v) ** 2) for v in grid])
        if j == 0:
            best = loss
        else:
            best = loss + np.where(adjacent, best[None, :], np.inf).min(axis=1)
    return float(best.min())


# -- checks ------------------------------------------------------------------

def forecasts_match(name, K, ys, tau, yhats, rounds, clip_m=None, tol=1e-8) -> Check:
    """Program forecasts at `rounds` equal the dense oracle (clipped to M if given)."""
    worst = 0.0
    for t in rounds:
        ref = dense_forecast(K, ys, tau, t)
        if clip_m is not None:
            ref = min(max(-clip_m, ref), clip_m)
        worst = max(worst, abs(float(yhats[t - 1]) - ref) / max(1.0, abs(ref)))
    return check(name, worst <= tol, f"max error {worst:.3g} at rounds {rounds} (tol {tol:g})")


def running_sums_match(name, cum, per_round, rounds, tol=1e-9) -> Check:
    """A running total equals math.fsum of the per-round values at each round given."""
    worst = 0.0
    for t in rounds:
        ref = math.fsum(per_round[:t])
        worst = max(worst, abs(float(cum[t - 1]) - ref) / max(1.0, abs(ref)))
    return check(name, worst <= tol, f"max error {worst:.3g} at {len(rounds)} rounds (tol {tol:g})")


def clipping_sound(raw, yhats, ys, clip_m) -> Check:
    """Clipped forecasts are the projection of the raw ones and never lose more."""
    projected = np.array_equal(yhats, np.clip(raw, -clip_m, clip_m))
    no_worse = bool(np.all((ys - yhats) ** 2 <= (ys - raw) ** 2))
    clipped = int(np.count_nonzero(np.abs(raw) > clip_m))
    return check("clipping", projected and no_worse,
                 f"{clipped} clipped rounds, projection {projected}, never worse {no_worse}")


def merged(name: str, parts: list[Check]) -> Check:
    """One check that passes when every part passes."""
    return check(name, all(c.ok for c in parts), "; ".join(c.detail for c in parts if not c.ok) or parts[0].detail)


def within_range(name, values, clip_m) -> Check:
    worst = float(np.max(np.abs(values)))
    return check(name, worst <= clip_m, f"max |forecast| {worst:.17g} (M = {clip_m:g})")
