"""Online kernel ridge regression forecaster (KAAR): incremental updates and level-3 replay.

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

Replay of an oblivious game
---------------------------
When every input of a game is known before round 1, the leading t x t
block of the factor R of the full K + tau I is the factor of K_t + tau I,
so one factorization gives every round's column: r_t = R[:t, t] and
rho_t = R[t, t].  panel_cholesky computes R at level 3 (O(n^3 / 3) flops in
dgemm/dtrsm/dsyrk/dpotrf calls instead of n level-2 dtpsv calls), a panel
of PANEL_WIDTH columns at a time, and keeps it as dense column panels
R[:e, s:e], about n (n + 1) / 2 doubles as in the packed layout.  With
u = R^{-T} y every raw forecast is

    yhat_t = tau * (sum_{i<t} R[i, t] u_i) / R[t, t]^2,

the diagonal term kept out of the sum, so yhat_t reads only y_1 ... y_{t-1}
(replay_forecasts).  The same factor gives log det(I + K_t / tau) =
sum_{j<=t} log(R[j, j]^2 / tau) and, through inverse_column_norms, the
effective dimension t - tau ||R_t^{-1}||_F^2 at every prefix t.
KaarForecaster remains the online API, whose cost is O(t^2) per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk, dtpsv, dtrmm, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf, dtrtri

from .kernel import KernelParams, gram, kernel_block, kernel_of_dist

__all__ = [
    "KaarForecaster",
    "NumericalBreakdownError",
    "PANEL_WIDTH",
    "Schedule",
    "inverse_column_norms",
    "panel_cholesky",
    "panel_forecasts",
    "replay_forecasts",
    "schedule_tau",
    "regret_certificate",
    "target_regret_exponent",
]

_INITIAL_CAPACITY = 64  # rounds stored before the buffers first double


PANEL_WIDTH = 128  # columns per panel of the level-3 factor


class NumericalBreakdownError(RuntimeError):
    """A factor failed at a known round: a non-positive pivot it cannot repair.

    round_index is the 1-based column of the factor, which is the game round.
    """

    def __init__(self, message: str, round_index: int):
        super().__init__(message)
        self.round_index = round_index

    def __reduce__(self):
        return type(self), (str(self), self.round_index)


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
            f"non-positive pivot ({s2:.3e}) persisted after refactorization at t={t}", t + 1
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


def panel_cholesky(fill, n: int, shift: float) -> list[np.ndarray]:
    """Upper Cholesky factor R (R^T R = A + shift I) of a symmetric n x n A, by panels.

    Left-looking and blocked: panel p covers the columns s:e = p * PANEL_WIDTH :
    min(n, (p + 1) * PANEL_WIDTH) and holds R[:e, s:e] as a C-ordered e x (e - s)
    array; all panels are views into one buffer.  fill(s, e, out) writes
    A[:e, s:e] into a panel, of which only the upper triangle of the diagonal
    block A[s:e, s:e] is read; shift is added to its diagonal.  The rows
    above that block are then solved against the earlier panels (dgemm,
    dtrsm), the block is downdated (dsyrk) and factored (dpotrf); its
    strictly lower triangle ends zero.

    Raises NumericalBreakdownError carrying the 1-based column of the first
    non-positive pivot, as dpotrf's info reports it.
    """
    bounds = [(s, min(s + PANEL_WIDTH, n)) for s in range(0, n, PANEL_WIDTH)]
    buf = np.empty(sum(e * (e - s) for s, e in bounds))
    panels: list[np.ndarray] = []
    offset = 0
    for s, e in bounds:
        P = buf[offset : offset + e * (e - s)].reshape(e, e - s)
        offset += P.size
        fill(s, e, P)
        P[s:].flat[:: e - s + 1] += shift
        # BLAS sees each C-ordered block through its F-ordered transpose
        for Q in panels:
            sq, eq = Q.shape[0] - Q.shape[1], Q.shape[0]
            if sq:  # P[sq:eq] -= R[:sq, sq:eq]^T P[:sq]
                dgemm(-1.0, P[:sq].T, Q[:sq].T, 1.0, P[sq:eq].T, trans_b=1, overwrite_c=1)
            # P[sq:eq] = R[sq:eq, sq:eq]^{-T} P[sq:eq]
            dtrsm(1.0, Q[sq:].T, P[sq:eq].T, side=1, lower=1, trans_a=1, overwrite_b=1)
        if s:  # P[s:e] -= P[:s]^T P[:s], upper triangle only
            dsyrk(-1.0, P[:s].T, 1.0, P[s:].T, lower=1, overwrite_c=1)
        _, info = dpotrf(P[s:].T, lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise NumericalBreakdownError(f"non-positive pivot at column {s + info} of the factor", s + info)
        panels.append(P)
    return panels


def inverse_column_norms(panels: list[np.ndarray]) -> np.ndarray:
    """Squared column norms of R^{-1}, overwriting panel_cholesky's panels of R
    with those of R^{-1}.

    R^{-1} is upper triangular and its leading t x t block is R_t^{-1}, so
    the cumulative sum of the result is ||R_t^{-1}||_F^2 =
    trace((R_t^T R_t)^{-1}) at every prefix t.  Block back-substitution: for a
    panel [[B], [D]] of R, whose leading block A^{-1} the earlier panels
    already hold, the panel of R^{-1} is [[-A^{-1} B D^{-1}], [D^{-1}]].
    """
    norms = []
    for p, P in enumerate(panels):
        s = P.shape[0] - P.shape[1]
        dtrtri(P[s:].T, lower=1, overwrite_c=1)  # D^{-1}
        if s:
            # Y = -B D^{-1}, then Y = A^{-1} Y one earlier panel at a time
            dtrmm(-1.0, P[s:].T, P[:s].T, side=0, lower=1, overwrite_b=1)
            for Q in panels[:p]:
                sq, eq = Q.shape[0] - Q.shape[1], Q.shape[0]
                if sq:  # Y[:sq] += R^{-1}[:sq, sq:eq] Y[sq:eq]
                    dgemm(1.0, P[sq:eq].T, Q[:sq].T, 1.0, P[:sq].T, overwrite_c=1)
                # Y[sq:eq] = R^{-1}[sq:eq, sq:eq] Y[sq:eq]
                dtrmm(1.0, Q[sq:].T, P[sq:eq].T, side=1, lower=1, overwrite_b=1)
        norms.append(np.einsum("ij,ij->j", P, P))
    return np.concatenate(norms)


def replay_forecasts(
    params: KernelParams, tau: float, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw KAAR forecasts of a whole game whose inputs are all known, and its pivots.

    Returns (yhat, pivots) with yhat_t = tau (sum_{i<t} R[i, t] u_i) / R[t, t]^2,
    u = R^{-T} y, and pivots_t = R[t, t]^2 = k(x_t, x_t) + tau - r_t^T r_t,
    which is >= tau in exact arithmetic.  The factor's kernel blocks come
    from kernel_block, not from gram.  The first non-positive pivot
    (dpotrf's info) raises NumericalBreakdownError at the round where
    KaarForecaster meets it.  A non-finite label spoils only the forecasts
    after it.
    """

    def fill(s, e, out):
        kernel_block(params, xs[:e], xs[s:e], out)

    return panel_forecasts(panel_cholesky(fill, len(xs), tau), tau, ys)


def panel_forecasts(panels: list[np.ndarray], tau: float, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(yhat, pivots) of replay_forecasts from panel_cholesky's factor of K + tau I."""
    n = len(ys)
    u = np.empty(n)
    sums = np.empty(n)
    pivots = np.empty(n)
    for P in panels:
        e, w = P.shape
        s = e - w
        D = P[s:]
        above = u[:s] @ P[:s]  # sum over the rows of earlier panels
        u[s:e] = dtrsv(D.T, ys[s:e] - above, lower=1)
        sums[s:e] = above + u[s:e] @ np.triu(D, 1)
        pivots[s:e] = np.diagonal(D) ** 2
    return tau * sums / pivots, pivots


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
