"""Exponentially weighted average forecaster over a sup-norm net of experts.

The baseline discretizes a Holder ball (one-dimensional, exponent
beta in (0, 1], radius M in both sup norm and Holder seminorm) by an
epsilon-net of piecewise-constant functions, then aggregates the finite
expert set with exponential weights from a uniform prior:

    w_i  proportional to  exp(-eta sum_s (y_s - f_i(x_s))^2),

predicting the weighted average sum_i w_i f_i(x).  Squared loss with
predictions and labels in [-M, M] is 1/(8 M^2)-exp-concave, so with
eta = 1/(8 M^2) the weighted-average prediction satisfies the classical
aggregation bound

    sum_t (y_t - yhat_t)^2 - min_i sum_t (y_t - f_i(x_t))^2 <= ln(N) / eta.

Net construction: partition [-1, 1] into m = ceil((2 M / epsilon)^(1/beta))
cells so that a Holder(beta, M) function moves by at most epsilon/2 within a
half-cell; expert values live on the grid of multiples of epsilon inside
[-M, M] (augmented with the endpoints +-M so quantization error stays below
epsilon/2 even when epsilon does not divide M), with adjacent-cell jumps
bounded by 2 epsilon, which is all a quantized Holder function can do.
Every ball member is then within epsilon in sup norm of some expert, and the
count N satisfies log N = O(epsilon^{-1/beta}) as the metric entropy of the
ball dictates.  Only d = 1 is implemented.

The experts are the paths through a layered graph (m cells, G grid values,
the jump adjacency between neighbouring cells), and a round's loss depends
only on an expert's value in the cell containing x, so the weights factorize
over cells (the path kernels of Takimoto and Warmuth, JMLR 2003).  The net
keeps eta times each cell's cumulative loss per grid value, and a prediction
is the mean of the chain marginal at x's cell, from a log-space
forward-backward pass in O(m G^2).  No expert is ever listed.

The entropy-balancing scale is epsilon* ~ n^{-beta/(beta+d)}; it is exposed
as `balanced_epsilon` but never hard-coded, since the interesting regimes
are often run off-balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpertNet",
    "build_net",
    "net_cardinality",
    "ewa_predict",
    "ewa_update",
    "EwaForecaster",
    "balanced_epsilon",
]


@dataclass
class ExpertNet:
    """The jump graph of a piecewise-constant expert net plus its per-cell losses."""

    grid: np.ndarray     # (G,) expert values
    allowed: np.ndarray  # (G, G) jumps permitted between adjacent cells
    m_cells: int
    epsilon: float
    beta: float
    clip_m: float
    eta: float
    S: np.ndarray        # (m, G): eta times the cumulative squared loss of grid[g] on cell j
    log_n_experts: float  # log of the number of paths through the graph

    @property
    def n_experts(self) -> float:
        """Number of experts, rounded to an integer; inf past the float range."""
        try:
            return float(round(math.exp(self.log_n_experts)))
        except OverflowError:
            return math.inf

    def cell_of(self, x) -> int:
        """Index of the partition cell containing the point x (a scalar or a 1-vector)."""
        idx = np.floor((np.atleast_1d(np.asarray(x, dtype=float))[0] + 1.0) / 2.0 * self.m_cells)
        return int(np.clip(idx.astype(int), 0, self.m_cells - 1))


def _value_grid(clip_m: float, epsilon: float) -> np.ndarray:
    k = math.floor(clip_m / epsilon)
    grid = np.arange(-k, k + 1) * epsilon
    grid = np.union1d(grid, [-clip_m, clip_m])
    return grid


def _jump_graph(beta: float, clip_m: float, epsilon: float):
    """Value grid, cell count and adjacency of the jump-constrained experts."""
    if not (0 < beta <= 1):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not (epsilon > 0 and clip_m > 0):
        raise ValueError(f"need epsilon > 0 and M > 0, got epsilon={epsilon}, M={clip_m}")
    m_cells = max(1, math.ceil((2.0 * clip_m / epsilon) ** (1.0 / beta)))
    grid = _value_grid(clip_m, epsilon)
    allowed = np.abs(grid[:, None] - grid[None, :]) <= 2.0 * epsilon * (1.0 + 1e-12)
    return grid, m_cells, allowed


def net_cardinality(beta: float, clip_m: float, epsilon: float) -> float:
    """Number of experts in the net (inf past the float range)."""
    return build_net(beta, clip_m, epsilon).n_experts


def build_net(beta: float, clip_m: float, epsilon: float, d: int = 1) -> ExpertNet:
    """The epsilon-net of the Holder(beta, M) ball on [-1, 1], with zero losses."""
    if d != 1:
        raise ValueError(f"expert net construction is implemented for d=1 only, got d={d}")
    grid, m_cells, allowed = _jump_graph(beta, clip_m, epsilon)
    # the path count in log space: the chain pass over zero losses
    log_paths = -_softmin(_chain(allowed, np.zeros((m_cells - 1, len(grid))), _softmin), axis=0)
    return ExpertNet(
        grid=grid, allowed=allowed, m_cells=m_cells, epsilon=float(epsilon), beta=float(beta),
        clip_m=float(clip_m), eta=1.0 / (8.0 * clip_m**2), S=np.zeros((m_cells, len(grid))),
        log_n_experts=float(log_paths),
    )


def _softmin(a: np.ndarray, axis: int) -> np.ndarray:
    """-log sum exp(-a) along an axis, shifted by the minimum so nothing underflows."""
    lo = a.min(axis=axis)
    return lo - np.log(np.exp(lo - a).sum(axis=axis))


def _chain(allowed: np.ndarray, rows, reduce) -> np.ndarray:
    """Message into the cell after `rows`: entry h reduces the summed row costs
    over the paths that continue to grid[h] (reduce: _softmin or np.min)."""
    jump_cost = np.where(allowed, 0.0, np.inf)
    msg = np.zeros(len(allowed))
    for row in rows:
        msg = reduce((msg + row)[:, None] + jump_cost, axis=0)
    return msg


def ewa_predict(net: ExpertNet, x) -> float:
    """Weighted-average prediction sum_i w_i f_i(x), as the mean of the chain marginal."""
    c = net.cell_of(x)
    below = _chain(net.allowed, net.S[:c], _softmin)
    above = _chain(net.allowed, net.S[:c:-1], _softmin)
    energy = below + net.S[c] + above
    p = np.exp(energy.min() - energy)
    return float(net.grid @ p / p.sum())


def ewa_update(net: ExpertNet, x, y: float) -> ExpertNet:
    """Exponential-weights update on the squared loss at (x, y); mutates and returns net."""
    if not math.isfinite(y):
        raise ValueError(f"label must be finite, got {y}")
    c = net.cell_of(x)
    net.S[c] += net.eta * (y - net.grid) ** 2
    return net


def balanced_epsilon(n: int, beta: float, d: int = 1) -> float:
    """Entropy-balancing net scale, epsilon* = n^{-beta/(beta+d)}."""
    return float(n) ** (-beta / (beta + d))


class EwaForecaster:
    """Game-protocol adapter around an ExpertNet (predict then update)."""

    def __init__(self, net: ExpertNet):
        self.net = net

    def predict(self, x) -> float:
        return ewa_predict(self.net, x)

    def update(self, x, y: float) -> None:
        ewa_update(self.net, x, y)
