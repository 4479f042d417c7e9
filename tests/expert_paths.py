"""Test oracle: the expert net listed path by path, and EWA over the list.

It shares only the jump graph (`_jump_graph`) with `kaarbench.ewa` and
aggregates the listed experts directly, so it stays independent of the
chain representation the package uses.
"""

import numpy as np

from kaarbench.ewa import _jump_graph


def enumerate_paths(beta, clip_m, epsilon):
    """Value grid and the (N, m) grid indices of every path through the jump graph."""
    grid, m_cells, allowed = _jump_graph(beta, clip_m, epsilon)
    paths = [[i] for i in range(len(grid))]
    for _ in range(m_cells - 1):
        paths = [p + [j] for p in paths for j in np.nonzero(allowed[p[-1]])[0]]
    return grid, np.asarray(paths)


def enumerate_experts(beta, clip_m, epsilon):
    """(N, m) matrix of every expert's value on every cell."""
    grid, paths = enumerate_paths(beta, clip_m, epsilon)
    return grid[paths]


def cell_index(x, m_cells):
    """Partition cell of x among m_cells equal cells of [-1, 1]."""
    return min(max(int(np.floor((x + 1.0) / 2.0 * m_cells)), 0), m_cells - 1)


class EnumeratedEwa:
    """Exponential weights from a uniform prior over an explicit expert list."""

    def __init__(self, values, eta):
        self.values = values
        self.eta = eta
        self.losses = np.zeros(values.shape[0])

    def expert_values_at(self, x):
        return self.values[:, cell_index(x, self.values.shape[1])]

    def predict(self, x):
        logw = -self.eta * self.losses
        w = np.exp(logw - logw.max())
        return float(w @ self.expert_values_at(x) / w.sum())

    def update(self, x, y):
        self.losses += (y - self.expert_values_at(x)) ** 2
