"""Expert net construction, covering, and the aggregation bound."""

import math

import numpy as np
import pytest

from kaarbench.ewa import (
    EwaForecaster,
    balanced_epsilon,
    build_net,
    ewa_predict,
    ewa_update,
    net_cardinality,
)
from expert_paths import EnumeratedEwa, cell_index, enumerate_experts, enumerate_paths


def make_holder_function(rng, beta, clip_m, knots=40):
    """Random piecewise-linear member of the Holder(beta, M) ball on [-1, 1].

    A Lipschitz-L function with L = M / 2^{1-beta} has Holder-beta seminorm
    at most L * diam^{1-beta} = M on a domain of diameter 2.
    """
    lip = clip_m / 2.0 ** (1.0 - beta)
    xs = np.linspace(-1.0, 1.0, knots)
    vals = np.empty(knots)
    vals[0] = rng.uniform(-clip_m, clip_m)
    step = 2.0 / (knots - 1)
    for i in range(1, knots):
        delta = rng.uniform(-lip * step, lip * step)
        vals[i] = np.clip(vals[i - 1] + delta, -clip_m, clip_m)
    return lambda x: np.interp(x, xs, vals)


def test_net_single_cell_for_huge_epsilon():
    net = build_net(beta=1.0, clip_m=1.0, epsilon=2.0)
    assert net.m_cells == 1
    assert net.n_experts >= 1
    # the zero expert is present, so everything in the ball is covered
    values = enumerate_experts(1.0, 1.0, 2.0)
    assert values.shape[1] == 1
    assert np.any(np.all(values == 0.0, axis=1))


def test_net_log_cardinality_scale():
    # beta=1, M=1, eps=0.5: log N within a factor 4 of (1/eps)^{1/beta} = 2
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    logn = math.log(net.n_experts)
    assert 2.0 / 4.0 <= logn <= 2.0 * 4.0


@pytest.mark.parametrize("beta,eps", [(1.0, 0.5), (1.0, 0.4), (0.5, 0.8)])
def test_net_log_cardinality_proportional_to_entropy(beta, eps):
    # log N = O((2M/eps)^{1/beta}): cells m drive the count, log|grid| per cell
    net = build_net(beta=beta, clip_m=1.0, epsilon=eps)
    m = net.m_cells
    grid_size = len(net.grid)
    assert math.log(net.n_experts) <= m * math.log(grid_size) + 1e-9
    assert m <= math.ceil((2.0 / eps) ** (1.0 / beta)) + 1


def test_net_cardinality_counter_matches_enumeration():
    for beta, eps in ((1.0, 0.5), (1.0, 2 / 3), (0.5, 0.9)):
        n_listed = len(enumerate_experts(beta, 1.0, eps))
        assert net_cardinality(beta, 1.0, eps) == pytest.approx(n_listed)
        assert build_net(beta, 1.0, eps).n_experts == pytest.approx(n_listed)


def test_net_rejects_high_dimension():
    with pytest.raises(ValueError):
        build_net(beta=1.0, clip_m=1.0, epsilon=0.5, d=2)


def test_net_experts_bounded_by_clip_level():
    # every expert value is a grid value
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    assert np.all(np.abs(net.grid) <= 1.0)


def test_net_covering_random_holder_functions():
    # brute-force nearest-expert search: every random ball member is within
    # epsilon in sup norm (over a 1000-point grid) of some expert
    rng = np.random.default_rng(8)
    for beta, eps in ((1.0, 0.5), (0.5, 0.8)):
        values = enumerate_experts(beta, 1.0, eps)
        grid = np.linspace(-1.0, 1.0, 1000)
        cells = [cell_index(x, values.shape[1]) for x in grid]
        expert_on_grid = values[:, cells]  # (N, 1000)
        for _ in range(100):
            f = make_holder_function(rng, beta, 1.0)
            fvals = f(grid)
            dists = np.max(np.abs(expert_on_grid - fvals[None, :]), axis=1)
            assert dists.min() <= eps + 1e-9


def test_weights_form_distribution():
    # the path weights exp(-sum_j S[j, path_j]), normalized, are a distribution
    # whose mean at x is the prediction
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    grid, paths = enumerate_paths(1.0, 1.0, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        ewa_update(net, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        energy = net.S[np.arange(net.m_cells), paths].sum(axis=1)
        assert np.all(np.isfinite(energy))
        w = np.exp(energy.min() - energy)
        w /= w.sum()
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        x = float(rng.uniform(-1, 1))
        assert ewa_predict(net, x) == pytest.approx(w @ grid[paths[:, cell_index(x, net.m_cells)]], abs=1e-12)


def test_predict_symmetric_pair_and_single_expert():
    # single-cell nets (grid {-M, 0, M}); an infinite loss gives a value zero weight
    pair = build_net(beta=1.0, clip_m=1.0, epsilon=2.0)
    pair.S[0] = [0.0, np.inf, 0.0]
    assert ewa_predict(pair, 0.3) == pytest.approx(0.0)
    weighted = build_net(beta=1.0, clip_m=1.0, epsilon=2.0)
    weighted.S[0] = [math.log(3.0), np.inf, 0.0]  # weights 1/4 on -1, 3/4 on +1
    assert ewa_predict(weighted, 0.0) == pytest.approx(0.5)
    single = build_net(beta=1.0, clip_m=0.7, epsilon=2.0)
    assert single.m_cells == 1
    single.S[0] = [np.inf, np.inf, 0.0]
    assert ewa_predict(single, -0.2) == pytest.approx(0.7)


def test_update_identical_experts_leaves_weights():
    # every expert with weight takes the same value on x's cell: the update
    # scales all weights alike, so no prediction anywhere moves
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    rng = np.random.default_rng(2)
    for _ in range(30):
        ewa_update(net, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    x = 0.1
    c = net.cell_of(x)
    # a finite excess: exp(-1e4) is already 0, while inf - inf would poison the pass
    net.S[c] += np.where(net.grid == 0.5, 0.0, 1e4)
    probes = np.linspace(-0.9, 0.9, 2 * net.m_cells)
    before = [ewa_predict(net, p) for p in probes]
    ewa_update(net, x, 0.9)
    assert np.allclose([ewa_predict(net, p) for p in probes], before)


def test_update_weight_ratio_arithmetic():
    # two experts, values 0 and 1, on a single cell
    net = build_net(beta=1.0, clip_m=1.0, epsilon=2.0)
    net.S[0] = [np.inf, 0.0, 0.0]
    ewa_update(net, 0.0, 1.0)
    # losses are 1 and 0, so the ratio w0/w1 shrinks by exp(-1/8)
    w1 = ewa_predict(net, 0.0)
    ratio = (1.0 - w1) / w1
    assert ratio == pytest.approx(math.exp(-0.125), rel=1e-12)


def test_update_rejects_nonfinite():
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        ewa_update(net, 0.0, math.nan)


def test_degenerate_net_zero_regret():
    # a single expert with weight: the constant 0.4 on a single cell
    net = build_net(beta=1.0, clip_m=0.4, epsilon=2.0)
    net.S[0] = [np.inf, np.inf, 0.0]
    rng = np.random.default_rng(1)
    ewa_loss = expert_loss = 0.0
    for _ in range(100):
        x, y = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        ewa_loss += (y - ewa_predict(net, x)) ** 2
        expert_loss += (y - 0.4) ** 2
        ewa_update(net, x, y)
    assert ewa_loss == pytest.approx(expert_loss, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_aggregation_bound_random_games(seed):
    # cumulative EWA loss <= best expert loss + ln(N)/eta, exactly
    rng = np.random.default_rng(seed)
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    oracle = EnumeratedEwa(enumerate_experts(1.0, 1.0, 0.5), net.eta)
    n_experts = len(oracle.values)
    ewa_loss = 0.0
    for _ in range(500):
        x, y = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        ewa_loss += (y - ewa_predict(net, x)) ** 2
        oracle.update(x, y)
        ewa_update(net, x, y)
    assert ewa_loss - oracle.losses.min() <= math.log(n_experts) / net.eta


@pytest.mark.parametrize("beta,eps", [(1.0, 0.5), (1.0, 0.4), (1.0, 0.3), (1.0, 2 / 3), (0.5, 0.9)])
def test_predict_matches_enumerated_ewa(beta, eps):
    # the chain marginal equals EWA over the listed experts on every round,
    # with a third of the labels at +-M
    rng = np.random.default_rng(17)
    net = build_net(beta=beta, clip_m=1.0, epsilon=eps)
    oracle = EnumeratedEwa(enumerate_experts(beta, 1.0, eps), net.eta)
    worst = 0.0
    for t in range(2000):
        x = float(rng.uniform(-1, 1))
        y = float(rng.choice([-1.0, 1.0])) if t % 3 == 0 else float(rng.uniform(-1, 1))
        worst = max(worst, abs(ewa_predict(net, x) - oracle.predict(x)))
        ewa_update(net, x, y)
        oracle.update(x, y)
    assert worst <= 1e-12


def test_aggregation_bound_beyond_enumeration():
    # epsilon = 1/32: N ~ 5e45 experts over 64 cells, far past any listing;
    # the best expert comes from a min-sum pass over per-cell loss totals
    eps = 1.0 / 32.0
    net = build_net(beta=1.0, clip_m=1.0, epsilon=eps)
    n_experts = net_cardinality(1.0, 1.0, eps)
    assert n_experts > 1e45
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, 1024)
    ys = rng.uniform(-1, 1, 1024)
    ewa_loss = 0.0
    for x, y in zip(xs, ys):
        ewa_loss += (y - ewa_predict(net, x)) ** 2
        ewa_update(net, x, y)
    m = net.m_cells
    grid = net.grid
    cells = np.array([cell_index(x, m) for x in xs])
    reach = np.abs(grid[:, None] - grid[None, :]) <= 2.0 * eps * (1.0 + 1e-9)
    best = None
    for j in range(m):
        loss = np.array([math.fsum((ys[cells == j] - v) ** 2) for v in grid])
        best = loss if best is None else loss + np.where(reach, best[None, :], np.inf).min(axis=1)
    assert ewa_loss - best.min() <= math.log(n_experts) / net.eta


def test_balanced_epsilon_formula():
    assert balanced_epsilon(1024, 1.0, 1) == pytest.approx(1024.0 ** (-0.5))


def test_forecaster_adapter():
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    fc = EwaForecaster(net)
    x = 0.2
    p1 = fc.predict(x)
    fc.update(x, 0.5)
    p2 = fc.predict(x)
    assert p1 != p2  # weights moved toward experts close to the label
