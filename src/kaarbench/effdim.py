"""Effective dimension of a kernel matrix and its empirical scaling law.

For a kernel matrix K and scale tau > 0 the effective dimension is

    d_eff(tau) = Tr((K + tau I)^{-1} K) = sum_j lambda_j / (lambda_j + tau)
               = n - tau ||R^{-1}||_F^2,

a data-dependent complexity measure that decreases in tau, tends to 0 as
tau -> infinity and to rank(K) as tau -> 0.  It is computed from the
Cholesky factor R of K + tau I (R^T R = K + tau I): kaar.panel_cholesky
factors K's column blocks in place of a dense copy, and
kaar.inverse_column_norms sums ||R^{-1}||_F^2 by block back-substitution on
the panels, about (2/3) n^3 flops in level-3 BLAS where a symmetric
eigendecomposition costs several times more.  The eigenvalues are computed
only where they are reported (spectrum, for the lambda columns of
harness.write_effdim_csv).

scaling_fit estimates the growth exponent of d_eff against n/tau by ordinary
least squares on log-log axes, which is how the theoretical bound
d_eff <= C ((n/tau)^{d/2s} + 1) is checked empirically at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kaar import inverse_column_norms, panel_cholesky

__all__ = ["EffDimReport", "effective_dimension", "spectrum", "scaling_fit", "loglog_fit"]

# the symmetry check compares square tiles of this side, K[a:b, c:d] against
# K[c:d, a:b].T: both stay in cache, and at large n the check adds no
# whole-matrix temporaries (a NaN entry fails it)
_SYMMETRY_TILE = 128


@dataclass
class EffDimReport:
    """Effective dimension of one kernel matrix at one scale tau."""

    n: int
    tau: float
    value: float


def spectrum(gram_matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, nonincreasing; tiny negative ones
    produced by roundoff on a PSD matrix are clamped to zero."""
    return np.maximum(np.linalg.eigvalsh(gram_matrix)[::-1], 0.0)


def effective_dimension(gram_matrix: np.ndarray, tau: float) -> EffDimReport:
    """Compute d_eff(tau) = n - tau ||R^{-1}||_F^2 for a PSD Gram matrix.

    A K + tau I that is not numerically positive definite raises
    kaar.NumericalBreakdownError.
    """
    K = np.asarray(gram_matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if tau <= 0 or not np.isfinite(tau):
        raise ValueError(f"tau must be a positive finite real, got {tau}")
    n = K.shape[0]
    scale = max(1.0, float(K.max()), float(-K.min()))
    b = _SYMMETRY_TILE
    if not all((np.abs(K[i:i + b, j:j + b] - K[j:j + b, i:i + b].T) <= 1e-12 * scale).all()
               for i in range(0, n, b) for j in range(i, n, b)):
        raise ValueError("effective_dimension: matrix is not symmetric")

    def fill(s, e, out):
        out[:] = K[:e, s:e]

    value = n - tau * float(np.sum(inverse_column_norms(panel_cholesky(fill, n, tau))))
    return EffDimReport(n=n, tau=float(tau), value=value)


def scaling_fit(reports: list[EffDimReport]) -> tuple[float, float]:
    """OLS fit of log d_eff against log(n/tau); returns (slope, r_squared).

    Needs at least 4 reports with positive values.  For a family generated
    by one kernel and point layout the slope estimates the exponent of the
    d_eff ~ (n/tau)^rho power law.
    """
    if len(reports) < 4:
        raise ValueError(f"scaling_fit: need >= 4 reports, got {len(reports)}")
    vals = np.array([rep.value for rep in reports], dtype=float)
    ratio = np.array([rep.n / rep.tau for rep in reports], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("scaling_fit: all d_eff values must be positive")
    slope, _, r_squared = loglog_fit(ratio, vals)
    return slope, r_squared


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    """OLS fit of log ys against log xs; returns (slope, intercept, r_squared)."""
    x = np.log(xs)
    y = np.log(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared
