"""Online kernel ridge regression forecaster (KAAR) with incremental updates.

At round t, with history (x_1, y_1), ..., (x_{t-1}, y_{t-1}) and the current
input x_t revealed, the forecaster outputs

    yhat_t = ytil^T (K_t + tau I)^{-1} ktil(x_t),

where ytil = (y_1, ..., y_{t-1}, 0), ktil(x_t) = (k(x_1, x_t), ...,
k(x_{t-1}, x_t), k(x_t, x_t)) and K_t is the t x t kernel matrix including
x_t.  This is the ridge regression objective augmented with an f^2(x_t)
penalty at the query point, which is what makes the zero-padded label vector
appear.  An optional clip level M replaces yhat by min(max(-M, yhat), M);
when labels lie in [-M, M] the clipped forecast is never worse per round in
squared loss.

Incremental state
-----------------
A full solve per round costs O(t^3).  Instead the upper-triangular Cholesky
factor R_t of K_t + tau I is grown by one column per round: with

    R_t = [[R_{t-1}, r], [0, rho]],  R_{t-1}^T r = b_t,
    rho = sqrt(k(x_t, x_t) + tau - r^T r),

where b_t is the vector of kernel values against the history.  R is the
only factor kept, in column-packed upper-triangular storage (the LAPACK
'U' packed layout): column j occupies the j + 1 entries starting at
j (j + 1) / 2, so appending round t writes t + 1 entries and the leading
t x t factor is always a contiguous prefix.  The solve R_{t-1}^T r = b_t is
one packed triangular solve (BLAS dtpsv) on that prefix, without copying
it.  Alongside R the code maintains u = R^{-T} y through the scalar
recursion

    u_t = (u, (y_t - r^T u) / rho),

and the prediction collapses to the scalar identity

    yhat_t = tau * (r^T u) / rho^2,

algebraically equal to the two-triangular-solve evaluation of the display
above (checked against a from-scratch dense solve in the test suite).
Per-round cost is O(t^2 + t d); the whole game is O(n^3 + n^2 d) time, and
the n (n + 1) / 2 entries of the packed factor are its O(n^2) memory.

predict() never mutates committed state: the provisional column for x_t is
cached and reused by a following update() on the same point, or recomputed
if update() is called with a different point.  A non-positive pivot cannot
occur for tau > 0 in exact arithmetic, so it is treated as a symptom of
numerical corruption: the state is refactorized from scratch once, and a
repeat failure raises NumericalBreakdownError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtpsv

from .kernel import KernelParams, gram, kernel_of_dist

__all__ = [
    "KaarForecaster",
    "NumericalBreakdownError",
    "Schedule",
    "schedule_tau",
    "regret_certificate",
    "target_regret_exponent",
]

_INITIAL_CAPACITY = 64  # rounds stored before the buffers first double


class NumericalBreakdownError(RuntimeError):
    """Raised when the factor update hits a non-positive pivot twice."""


class KaarForecaster:
    """Single-writer online forecaster state.

    Parameters
    ----------
    params : KernelParams
        Kernel dimension and smoothness.
    tau : float
        Ridge regularization, must be > 0.
    clip_m : float or None
        Clip level M for predict_clipped; None disables clipping.
    """

    def __init__(self, params: KernelParams, tau: float, clip_m: float | None = None):
        if not (tau > 0 and math.isfinite(tau)):
            raise ValueError(f"tau must be a positive finite real, got {tau}")
        if clip_m is not None and not (clip_m > 0 and math.isfinite(clip_m)):
            raise ValueError(f"clip_m must be positive and finite, got {clip_m}")
        self.params = params
        self.tau = float(tau)
        self.clip_m = clip_m
        self._t = 0
        cap = _INITIAL_CAPACITY
        self._X = np.zeros((cap, params.d))
        self._Y = np.zeros(cap)
        self._ap = np.zeros(cap * (cap + 1) // 2)  # R, column-packed upper triangle
        self._u = np.zeros(cap)                     # R^{-T} Y
        self._pending: tuple[np.ndarray, np.ndarray, float] | None = None

    # -- public views -------------------------------------------------

    @property
    def t(self) -> int:
        """Number of committed rounds."""
        return self._t

    @property
    def inputs(self) -> np.ndarray:
        return self._X[: self._t].copy()

    @property
    def labels(self) -> np.ndarray:
        return self._Y[: self._t].copy()

    @property
    def chol(self) -> np.ndarray:
        """Copy of the upper-triangular factor R with R^T R = K + tau I."""
        t = self._t
        R = np.zeros((t, t))
        R.T[np.tril_indices(t)] = self._ap[: t * (t + 1) // 2]
        return R

    # -- internals ----------------------------------------------------

    def _check_point(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.params.d,):
            raise ValueError(f"expected a point of dimension {self.params.d}, got shape {x.shape}")
        return x

    def _grow(self):
        new = self._X.shape[0] * 2
        for name, size in (("_X", new), ("_Y", new), ("_u", new), ("_ap", new * (new + 1) // 2)):
            old = getattr(self, name)
            buf = np.zeros((size,) + old.shape[1:])
            buf[: len(old)] = old
            setattr(self, name, buf)

    def _kernel_vec(self, x: np.ndarray) -> np.ndarray:
        diffs = self._X[: self._t] - x
        return kernel_of_dist(self.params, np.sqrt(np.einsum("ij,ij->i", diffs, diffs)))

    def _refactorize(self):
        t = self._t
        K = gram(self.params, self._X[:t])
        K[np.diag_indices(t)] += self.tau
        L = np.linalg.cholesky(K)  # lower, L @ L.T = K + tau I
        # row j of L up to the diagonal is column j of R = L^T
        self._ap[: t * (t + 1) // 2] = L[np.tril_indices(t)]
        self._u[:t] = dtpsv(t, self._ap, self._Y[:t], trans=1)

    def _extend_column(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Provisional new column (r, rho) of the factor for point x."""
        t = self._t
        b = self._kernel_vec(x)
        for attempt in (0, 1):
            r = dtpsv(t, self._ap, b, trans=1)
            s2 = self.params.kappa_sq + self.tau - float(r @ r)
            if s2 > 0.0:
                return r, math.sqrt(s2)
            if attempt == 0:
                self._refactorize()
        raise NumericalBreakdownError(
            f"non-positive pivot ({s2:.3e}) persisted after refactorization at t={t}"
        )

    # -- forecasting --------------------------------------------------

    def predict(self, x) -> float:
        """Raw forecast for the reveal-predict protocol; does not commit x."""
        x = self._check_point(x)
        if self._t == 0:
            return 0.0
        r, rho = self._extend_column(x)
        self._pending = (x.copy(), r, rho)
        return self.tau * float(r @ self._u[: self._t]) / (rho * rho)

    def predict_clipped(self, x) -> float:
        """Forecast clipped to [-M, M]; requires a clip level."""
        if self.clip_m is None:
            raise ValueError("predict_clipped requires clip_m to be set")
        raw = self.predict(x)
        return min(max(-self.clip_m, raw), self.clip_m)

    def update(self, x, y: float) -> None:
        """Commit the observed pair (x_t, y_t), extending the factor in O(t^2)."""
        x = self._check_point(x)
        y = float(y)
        if not math.isfinite(y):
            raise ValueError(f"label must be finite, got {y}")
        t = self._t
        if t + 1 > self._X.shape[0]:
            self._grow()
        if t == 0:
            rho = math.sqrt(self.params.kappa_sq + self.tau)
            self._ap[0] = rho
            self._u[0] = y / rho
        else:
            if self._pending is not None and np.array_equal(self._pending[0], x):
                _, r, rho = self._pending
            else:
                r, rho = self._extend_column(x)
            col = t * (t + 1) // 2
            self._ap[col : col + t] = r
            self._ap[col + t] = rho
            self._u[t] = (y - float(r @ self._u[:t])) / rho
        self._X[t] = x
        self._Y[t] = y
        self._t = t + 1
        self._pending = None


@dataclass
class Schedule:
    """Regularization schedule for a game of known horizon.

    regime selects how the kernel smoothness s and ridge level tau are
    derived from the benchmark-class parameters:

    * ``smooth`` (beta > d/2): s = beta and tau = n^{d / (2 beta + d)}.
    * ``hard`` (d/p < beta <= d/2, p > 2): s = d/2 + epsilon and
      tau = n^{1 - (d (1 - 1/p) - beta') / (d (1 - 2/p))} with
      beta' = beta - epsilon.
    * ``manual``: s and tau are taken verbatim from the fields.

    epsilon defaults to 0.05; the hard-regime theory only asks that it be
    small, without prescribing a value.
    """

    regime: str
    beta: float = 1.0
    p: float = math.inf
    epsilon: float = 0.05
    n: int = 1
    s: float | None = None
    tau: float | None = None


def schedule_tau(sched: Schedule, params) -> tuple[float, float]:
    """Resolve a Schedule to concrete (s, tau) for dimension params.d.

    `params` may be a KernelParams (only its d is used) or a bare int d.
    """
    d = params.d if hasattr(params, "d") else int(params)
    n = sched.n
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if sched.regime == "smooth":
        if not sched.beta > d / 2:
            raise ValueError(f"smooth regime needs beta > d/2 = {d / 2}, got beta={sched.beta}")
        return float(sched.beta), float(n) ** (d / (2.0 * sched.beta + d))
    if sched.regime == "hard":
        if not (sched.p > 2):
            raise ValueError(f"hard regime needs p > 2, got p={sched.p}")
        if not (d / sched.p < sched.beta <= d / 2):
            raise ValueError(
                f"hard regime needs d/p < beta <= d/2, got beta={sched.beta}, d={d}, p={sched.p}"
            )
        if not (0 < sched.epsilon < sched.beta):
            raise ValueError(f"epsilon must lie in (0, beta), got {sched.epsilon}")
        beta_prime = sched.beta - sched.epsilon
        inv_p = 0.0 if math.isinf(sched.p) else 1.0 / sched.p
        expo = 1.0 - (d * (1.0 - inv_p) - beta_prime) / (d * (1.0 - 2.0 * inv_p))
        return d / 2.0 + sched.epsilon, float(n) ** expo
    if sched.regime == "manual":
        if sched.s is None or sched.tau is None:
            raise ValueError("manual regime requires explicit s and tau")
        if not sched.s > d / 2:
            raise ValueError(f"manual s must exceed d/2 = {d / 2}, got {sched.s}")
        if not sched.tau > 0:
            raise ValueError(f"manual tau must be positive, got {sched.tau}")
        return float(sched.s), float(sched.tau)
    raise ValueError(f"unknown schedule regime {sched.regime!r}")


def target_regret_exponent(regime: str, d: int, beta: float, p: float = math.inf) -> float:
    """Theoretical growth exponent of cumulative regret, R_n ~ n^target.

    smooth: 1 - 2 beta / (2 beta + d); hard: 1 - (beta/d)(p - d/beta)/(p - 2)
    (which degenerates to 1 - beta/d at p = inf).
    """
    if regime == "smooth":
        return 1.0 - 2.0 * beta / (2.0 * beta + d)
    if regime == "hard":
        if math.isinf(p):
            return 1.0 - beta / d
        return 1.0 - (beta / d) * (p - d / beta) / (p - 2.0)
    raise ValueError(f"no theoretical target for regime {regime!r}")


def regret_certificate(forecaster: KaarForecaster, f_norm_sq: float, n: int, d_eff: float) -> float:
    """Deterministic upper bound on the regret against an RKHS element f:

        tau ||f||^2 + M^2 (1 + log(1 + n kappa^2 / tau)) d_eff(tau),

    with tau, kappa^2 and clip level M taken from the forecaster state and
    d_eff the effective dimension of the realized inputs.
    """
    if forecaster.clip_m is None:
        raise ValueError("regret_certificate requires a clip level M on the forecaster")
    if not (math.isfinite(f_norm_sq) and f_norm_sq >= 0):
        raise ValueError(f"f_norm_sq must be finite and >= 0, got {f_norm_sq}")
    if not (math.isfinite(d_eff) and d_eff >= 0):
        raise ValueError(f"d_eff must be finite and >= 0, got {d_eff}")
    tau = forecaster.tau
    m_sq = forecaster.clip_m**2
    log_term = 1.0 + math.log(1.0 + n * forecaster.params.kappa_sq / tau)
    return tau * f_norm_sq + m_sq * log_term * d_eff
