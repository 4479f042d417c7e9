"""Sobolev (Matern-family) RKHS kernel on [-1, 1]^d.

The kernel of the Sobolev space of smoothness s > d/2 is the radial function

    k(x, y) = (2^{1-s} / Gamma(s)) * r^{s - d/2} * K_{d/2 - s}(r),
    r = ||x - y||_2,

with K the modified Bessel function of the second kind.  Since s > d/2 the
order is negative and the symmetry K_{-nu} = K_nu applies, so the code works
with nu = s - d/2 >= 0 throughout.  At r = 0 the formula is a 0 * inf limit
whose closed form is

    k(x, x) = 2^{-d/2} * Gamma(s - d/2) / Gamma(s),

cached on the parameter record as kappa_sq (the uniform bound on the kernel
diagonal).  r^nu K_nu(r) decreases from its limit 2^{nu-1} Gamma(nu)
(DLMF 10.30.2), so K_nu(r) < Gamma(nu) / 2 * (2 / r)^nu for every r > 0.
The limit value is returned at r <= r_0(nu), the larger of 1e-300 (below
which scipy's K_nu is inf at every order) and the radius where that bound
reaches 1e300; the formula is evaluated everywhere above it, so K_nu never
overflows, for any order.  Where the limit is used it is off by up to
r_0^2 / (4 nu) relative, which grows with the order (8e-15 at nu = 40.5,
1e-13 at nu = 43.67, 8e-10 at nu = 60), so KernelParams rejects orders
above MAX_ORDER, the largest at which that gap stays within 1e-13.  The
formula also holds outside [-1, 1]^d, where it remains a valid
positive-definite kernel (the game harness warns when inputs leave the
box, nothing is enforced here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .special import bessel_k, gamma

__all__ = ["KernelParams", "MAX_ORDER", "diagonal_value", "kernel_eval", "gram", "kernel_block", "kernel_of_dist"]

# largest Bessel order nu = s - d/2 at which r_0(nu)^2 / (4 nu), the gap
# between the r -> 0 limit and the kernel at r_0, is within 1e-13
MAX_ORDER = 43.67259

# gram evaluates about this many kernel values at a time; whole-matrix
# temporaries settle on the heap, and whether they are handed back to the OS
# varies from one process to the next
_GRAM_BLOCK = 1 << 16

# kernel_block evaluates about this many at a time: its temporaries stay
# small heap chunks that the next block reuses, so a matrix filled block by
# block keeps little more resident than the matrix itself
_KERNEL_BLOCK = 1 << 13


def diagonal_value(d: int, s: float) -> float:
    """Value of the kernel on its diagonal, the r -> 0 limit of the formula."""
    if d < 1 or int(d) != d:
        raise ValueError(f"dimension d must be a positive integer, got {d}")
    if not s > d / 2:
        raise ValueError(f"smoothness s must exceed d/2 = {d / 2}, got {s}")
    return 2.0 ** (-d / 2.0) * gamma(s - d / 2.0) / gamma(s)


@dataclass(frozen=True)
class KernelParams:
    """Sobolev kernel parameters: input dimension d and smoothness s > d/2.

    kappa_sq is the cached diagonal value k(x, x) = sup_x k(x, x); it is
    always recomputed from (d, s) so the invariant kappa_sq ==
    diagonal_value(d, s) holds by construction.  Orders s - d/2 above
    MAX_ORDER are rejected (module docstring).
    """

    d: int
    s: float
    kappa_sq: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kappa_sq", diagonal_value(self.d, self.s))
        if self.nu > MAX_ORDER:
            raise ValueError(
                f"smoothness s = {self.s} gives Bessel order s - d/2 = {self.nu:g}; the kernel's"
                f" r -> 0 limit is within 1e-13 only up to order {MAX_ORDER}"
            )

    @property
    def nu(self) -> float:
        """Bessel order after symmetry reduction, |d/2 - s| = s - d/2."""
        return self.s - self.d / 2.0


def kernel_of_dist(params: KernelParams, r) -> np.ndarray:
    """Kernel value as a function of pairwise distance, vectorized.

    Accepts any array of nonnegative distances (NaN is rejected); entries
    at or below r_0(nu) (module docstring) get the analytic diagonal limit.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError("distances must be nonnegative")
    nu = params.nu
    amp = 2.0 ** (1.0 - params.s) / gamma(params.s)
    # r_0(nu): where Gamma(nu) / 2 * (2 / r)^nu, an upper bound on K_nu(r), is 1e300
    mask = r > max(1e-300, 2.0 * math.exp((math.lgamma(nu) - math.log(2e300)) / nu))
    # one full-size copy, computed in place: at large n further copies of
    # r can settle on the heap and never be returned to the OS
    out = np.where(mask, r, 1.0)
    bk = bessel_k(nu, out)
    out **= nu
    out *= amp
    out *= bk
    out[~mask] = params.kappa_sq
    return out


def kernel_eval(params: KernelParams, x, y) -> float:
    """Evaluate k(x, y) for two points of dimension params.d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (params.d,) or y.shape != (params.d,):
        raise ValueError(
            f"points must have dimension {params.d}, got shapes {x.shape} and {y.shape}"
        )
    r = float(np.linalg.norm(x - y))
    return float(kernel_of_dist(params, np.asarray([r]))[0])


def _as_points(params: KernelParams, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != params.d:
        raise ValueError(f"expected points of shape (n, {params.d}), got {pts.shape}")
    return pts


def gram(params: KernelParams, points) -> np.ndarray:
    """Kernel matrix K[i, j] = k(x_i, x_j) for a list of points.

    Filled a block of rows at a time; each unordered pair is evaluated
    once, and the result is exactly symmetric with kappa_sq on the diagonal.
    """
    pts = _as_points(params, points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("gram: need at least one point")
    K = np.empty((n, n))
    rows = max(1, _GRAM_BLOCK // n)
    for i in range(0, n, rows):
        j = min(i + rows, n)
        K[i:j, i:j] = squareform(kernel_of_dist(params, pdist(pts[i:j])))
        block = kernel_of_dist(params, cdist(pts[i:j], pts[j:]))
        K[i:j, j:] = block
        K[j:, i:j] = block.T
    np.fill_diagonal(K, params.kappa_sq)
    return K


def kernel_block(params: KernelParams, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[i, j] = k(a_i, b_j) a block of rows at a time, and return out.

    a and b are (m, d) and (w, d) point arrays; out is a writable (m, w) array.
    """
    rows = max(1, _KERNEL_BLOCK // max(1, len(b)))
    for i in range(0, len(a), rows):
        out[i : i + rows] = kernel_of_dist(params, cdist(a[i : i + rows], b))
    return out
