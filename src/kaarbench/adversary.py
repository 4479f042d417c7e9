"""Benchmark comparators and adversarial data streams.

Three comparator families are provided:

* RepresenterComparator: a finite kernel expansion f = sum_i c_i k(z_i, .)
  whose RKHS norm is known exactly, ||f||^2 = c^T K c with K the Gram matrix
  of the centers.  These instantiate the regret certificate with an exact
  norm.
* BumpComparator: a sum of scaled compactly-supported smooth bumps with
  independent signs on a cube partition of [-1, 1]^d.  Each bump is a copy
  of the radial mollifier g below, shrunk onto its cell; the class realizes
  the worst-case function family behind the minimax analysis while staying
  inside the sup-norm ball of radius M/4.
* ZeroComparator: the constant 0.

The mollifier is the exact composition

    g(x) = 1/2 (1 - sigma((||x||^2 - a^2) / (c^2 - a^2))),  a = 1/4, c = 1/2,
    sigma(t) = h(t) / (h(t) + h(1 - t)),  h(t) = exp(-1/t^2) for t > 0 else 0,

a C-infinity bump equal to 1/2 on the ball of radius 1/4 and 0 outside
radius 1/2.  Bump amplitudes are normalized by an estimate of the Holder /
Sobolev sup-norm ||g|| of order beta, obtained by finite differences on a
fine grid plus sampled Holder quotients (supported for beta <= 2, cached per
(d, beta)).  The estimate enters only as an amplitude rescaling; nothing
downstream depends on its exact value.

Streams are deterministic functions of (parameters, seed); the generator is
numpy's PCG64.  shattering_stream walks the cube centers in lexicographic
order with labels epsilon_t * M for i.i.d. uniform signs epsilon_t and emits
the bump comparator with matching signs, which therefore agrees in sign with
every label.  iid_stream draws uniform inputs and noisy clamped labels from
a given comparator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernel import KernelParams, gram, kernel_of_dist

__all__ = [
    "mollifier_g",
    "mollifier_norm",
    "RepresenterComparator",
    "BumpComparator",
    "bump_comparator",
    "ZeroComparator",
    "Stream",
    "shattering_stream",
    "iid_stream",
]

_A_SQ = 0.25**2
_C_SQ = 0.5**2


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """sigma(t) = h(t) / (h(t) + h(1-t)) with h(t) = exp(-1/t^2) 1_{t>0}."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        with np.errstate(over="ignore", divide="ignore"):
            ht = np.exp(-1.0 / tm**2)
            h1 = np.exp(-1.0 / (1.0 - tm) ** 2)
        out[mid] = ht / (ht + h1)
    return out


def _mollifier_radial_sq(r_sq) -> np.ndarray:
    """g as a function of squared radius, vectorized."""
    t = (np.asarray(r_sq, dtype=float) - _A_SQ) / (_C_SQ - _A_SQ)
    return 0.5 * (1.0 - _smoothstep(t))


def mollifier_g(x) -> float:
    """Radial bump g: R^d -> [0, 1/2]; equals 1/2 for ||x|| <= 1/4, 0 for ||x|| >= 1/2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(_mollifier_radial_sq(np.asarray([float(x @ x)]))[0])


@lru_cache(maxsize=None)
def mollifier_norm(d: int, beta: float) -> float:
    """Numerical estimate of the order-beta Holder/Sobolev sup norm of g.

    max over derivative orders <= floor(beta) of the sup of the partial
    derivatives (central finite differences), plus the Holder quotient of the
    top-order derivatives over sampled pair separations when beta is
    fractional.  By rotational symmetry the extremes of all first and second
    partials are realized in a coordinate 2-plane, so a 2-d grid suffices for
    any d >= 2.
    """
    if beta <= 0 or beta > 2:
        raise ValueError(f"mollifier_norm supports 0 < beta <= 2, got {beta}")
    r = int(math.floor(beta))
    if beta == int(beta):
        r = int(beta)
        sigma = 0.0
    else:
        sigma = beta - r

    h = 2e-4
    lim = 0.62
    if d == 1:
        xs = np.arange(-lim, lim + h / 2, h)
        g0 = _mollifier_radial_sq(xs**2)
        d1 = (_mollifier_radial_sq((xs + h) ** 2) - _mollifier_radial_sq((xs - h) ** 2)) / (2 * h)
        d2 = (
            _mollifier_radial_sq((xs + h) ** 2)
            - 2 * g0
            + _mollifier_radial_sq((xs - h) ** 2)
        ) / h**2
        derivs = [g0, d1, d2]
    else:
        xs = np.arange(-lim, lim + 4 * h / 2, 4 * h)
        X, Y = np.meshgrid(xs, xs, indexing="ij")

        def g2(xo=0.0, yo=0.0):
            return _mollifier_radial_sq((X + xo) ** 2 + (Y + yo) ** 2)

        g0 = g2()
        dx = (g2(xo=h) - g2(xo=-h)) / (2 * h)
        dxx = (g2(xo=h) - 2 * g0 + g2(xo=-h)) / h**2
        dxy = (g2(xo=h, yo=h) - g2(xo=h, yo=-h) - g2(xo=-h, yo=h) + g2(xo=-h, yo=-h)) / (4 * h**2)
        derivs = [g0, dx, np.maximum(np.abs(dxx), np.abs(dxy))]

    norm = max(float(np.abs(derivs[k]).max()) for k in range(r + 1))
    if sigma > 0.0:
        top = derivs[r]
        # Holder quotient along grid lines at several separations
        quot = 0.0
        step = h if d == 1 else 4 * h
        for sep in (1, 2, 5, 10, 50, 200):
            if sep >= len(xs):
                break
            if d == 1:
                diffs = np.abs(top[sep:] - top[:-sep])
            else:
                diffs = np.abs(derivs[r][sep:, :] - derivs[r][:-sep, :]).ravel()
            quot = max(quot, float(diffs.max()) / (sep * step) ** sigma)
        norm = max(norm, quot)
    return norm


@dataclass
class RepresenterComparator:
    """f(x) = sum_i c_i k(z_i, x); norm_sq = c^T K c is exact by the reproducing property."""

    params: KernelParams
    centers: np.ndarray
    coeffs: np.ndarray
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim == 1:
            self.centers = self.centers[:, None]
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.centers.shape[0] != self.coeffs.shape[0]:
            raise ValueError("centers and coeffs must have matching length")
        K = gram(self.params, self.centers)
        self.norm_sq = float(self.coeffs @ K @ self.coeffs)

    @property
    def dim(self) -> int:
        return self.params.d

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :] if pts.shape[0] == self.params.d else pts[:, None]
        diff = pts[:, None, :] - self.centers[None, :, :]
        r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return kernel_of_dist(self.params, r) @ self.coeffs

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate(x[None, :])[0])


@dataclass
class ZeroComparator:
    """The constant-zero benchmark function."""

    dim: int = 1
    norm_sq: float = 0.0

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0] if pts.ndim > 1 else len(np.atleast_1d(pts))
        return np.zeros(n)

    def __call__(self, x) -> float:
        return 0.0


class BumpComparator:
    """Signed sum of shrunken mollifier bumps on the cube partition of [-1, 1]^d.

    With grid parameter n the cube side is b = n^{-1/d}, there are
    N = floor(2 n^{1/d})^d cubes indexed lexicographically, and

        f(x) = (M n^{-beta/d} / (4 ||g||)) * sum_t sign_t g(n^{1/d} (x - a_t)),

    where a_t is the center of cube t.  Bumps have disjoint supports (each
    inside its own cube), f vanishes outside the cube union, and
    |f| <= M/4 everywhere.
    """

    def __init__(self, n_grid: int, d: int, beta: float, clip_m: float, signs):
        if n_grid < 1:
            raise ValueError(f"n_grid must be >= 1, got {n_grid}")
        self.n_grid = int(n_grid)
        self.d = int(d)
        self.beta = float(beta)
        self.clip_m = float(clip_m)
        self.cells_per_axis = int(math.floor(2.0 * n_grid ** (1.0 / d)))
        self.n_cubes = self.cells_per_axis**self.d
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (self.n_cubes,):
            raise ValueError(
                f"signs must have length floor(2 n^(1/d))^d = {self.n_cubes}, got {signs.shape}"
            )
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +-1")
        self.signs = signs
        self.side = n_grid ** (-1.0 / d)
        self.g_norm = mollifier_norm(self.d, self.beta)
        self.amplitude = self.clip_m * n_grid ** (-beta / d) / (4.0 * self.g_norm)
        self.norm_sq = None  # RKHS norm unknown; sup-norm bound is clip_m / 4

    @property
    def dim(self) -> int:
        return self.d

    def centers(self) -> np.ndarray:
        """All cube centers a_1..a_N in lexicographic order of the index tuples."""
        axis = self.side * (0.5 + np.arange(self.cells_per_axis)) - 1.0
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.d == 1 else pts[None, :]
        if pts.shape[1] != self.d:
            raise ValueError(f"expected points of dimension {self.d}")
        m = self.cells_per_axis
        idx = np.floor((pts + 1.0) / self.side).astype(int)
        inside = np.all((idx >= 0) & (idx < m), axis=1)
        out = np.zeros(pts.shape[0])
        if np.any(inside):
            ii = idx[inside]
            flat = np.zeros(ii.shape[0], dtype=int)
            for k in range(self.d):
                flat = flat * m + ii[:, k]
            centers = self.side * (ii + 0.5) - 1.0
            diff = pts[inside] - centers
            r_sq = np.einsum("ij,ij->i", diff, diff) * self.n_grid ** (2.0 / self.d)
            out[inside] = self.amplitude * self.signs[flat] * _mollifier_radial_sq(r_sq)
        return out

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.evaluate(x[None, :])[0])


def bump_comparator(n_grid: int, d: int, beta: float, clip_m: float, signs) -> BumpComparator:
    """Construct the signed bump-class comparator (see BumpComparator)."""
    return BumpComparator(n_grid=n_grid, d=d, beta=beta, clip_m=clip_m, signs=signs)


@dataclass
class Stream:
    """A materialized (oblivious) data sequence with its matched comparator."""

    xs: np.ndarray  # (n, d)
    ys: np.ndarray  # (n,)
    comparator: object

    def __len__(self) -> int:
        return len(self.ys)


def shattering_stream(n_grid: int, d: int, clip_m: float, beta: float, rng) -> Stream:
    """Worst-case-style stream: cube centers in order, labels epsilon_t * M.

    The emitted comparator is the bump class member whose signs equal the
    label signs, so it matches the sign of every label at every queried
    center and beats the constant-zero predictor on the whole stream.
    """
    rng = np.random.default_rng(rng)
    n_cubes = int(math.floor(2.0 * n_grid ** (1.0 / d))) ** d
    signs = rng.choice([-1.0, 1.0], size=n_cubes)
    comp = BumpComparator(n_grid, d, beta, clip_m, signs)
    xs = comp.centers()
    ys = signs * clip_m
    return Stream(xs=xs, ys=ys, comparator=comp)


def iid_stream(f, noise_sd: float, n: int, rng, clip_m: float = 1.0) -> Stream:
    """Benign stream: uniform inputs on [-1, 1]^d, labels f(x) + noise clamped to [-M, M]."""
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = np.random.default_rng(rng)
    d = f.dim
    xs = rng.uniform(-1.0, 1.0, size=(n, d))
    ys = f.evaluate(xs)
    if noise_sd > 0:
        ys = ys + noise_sd * rng.standard_normal(n)
    ys = np.clip(ys, -clip_m, clip_m)
    return Stream(xs=xs, ys=ys, comparator=f)
