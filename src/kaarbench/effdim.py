"""Effective dimension of a kernel matrix and its empirical scaling law.

For a kernel matrix K and scale tau > 0 the effective dimension is

    d_eff(tau) = Tr((K + tau I)^{-1} K) = sum_j lambda_j / (lambda_j + tau),

a data-dependent complexity measure that decreases in tau, tends to 0 as
tau -> infinity and to rank(K) as tau -> 0.  It is computed here from one
symmetric eigendecomposition; tiny negative eigenvalues produced by roundoff
on a PSD matrix are clamped to zero before the sum.

scaling_fit estimates the growth exponent of d_eff against n/tau by ordinary
least squares on log-log axes, which is how the theoretical bound
d_eff <= C ((n/tau)^{d/2s} + 1) is checked empirically at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EffDimReport", "effective_dimension", "scaling_fit", "loglog_fit"]

# the symmetry check compares about this many entries at a time, so that at
# large n it adds no whole-matrix temporaries beside eigvalsh's own copy
_SYMMETRY_BLOCK = 1 << 16


@dataclass
class EffDimReport:
    """Effective dimension of one kernel matrix at one scale tau."""

    n: int
    tau: float
    value: float
    eigenvalues: np.ndarray  # sorted nonincreasing, clamped to >= 0

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def effective_dimension(gram_matrix: np.ndarray, tau: float) -> EffDimReport:
    """Compute d_eff(tau) = sum_j lambda_j / (lambda_j + tau) for a Gram matrix."""
    K = np.asarray(gram_matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if tau <= 0 or not np.isfinite(tau):
        raise ValueError(f"tau must be a positive finite real, got {tau}")
    n = K.shape[0]
    scale = max(1.0, float(K.max()), float(-K.min()))
    rows = max(1, _SYMMETRY_BLOCK // n)
    if not all(np.allclose(K[i:i + rows], K[:, i:i + rows].T, atol=1e-12 * scale, rtol=0.0)
               for i in range(0, n, rows)):
        raise ValueError("effective_dimension: matrix is not symmetric")
    lam = np.linalg.eigvalsh(K)[::-1]
    lam = np.maximum(lam, 0.0)
    value = float(np.sum(lam / (lam + tau)))
    return EffDimReport(n=n, tau=float(tau), value=value, eigenvalues=lam)


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
