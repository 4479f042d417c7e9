"""Property tests: the kernel at every order up to d/2 + 40.5, the replay on near-duplicate inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kaarbench.kaar import KaarForecaster, replay_forecasts
from kaarbench.kernel import KernelParams, kernel_of_dist

MAX_ORDER = 40.5


def switch_radius(nu):
    """r_0(nu): the larger of 1e-300 and the radius where Gamma(nu) / 2 (2 / r)^nu reaches 1e300."""
    return max(1e-300, 2.0 * math.exp((math.lgamma(nu) - math.log(2.0) - 300.0 * math.log(10.0)) / nu))


@st.composite
def kernels(draw, min_order=0.0):
    d = draw(st.sampled_from([1, 2, 3]))
    s = draw(st.floats(d / 2 + min_order, d / 2 + MAX_ORDER, exclude_min=True))
    return KernelParams(d, s)


@st.composite
def kernels_and_distances(draw):
    p = draw(kernels())
    r0 = switch_radius(p.nu)
    distance = st.one_of(
        st.just(0.0),
        st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
        st.floats(1e-300, 2.0 * math.sqrt(p.d)),
        st.floats(1.0 - 1e-6, 1.0 + 1e-6).map(lambda f: r0 * f),
    )
    return p, draw(st.lists(distance, min_size=1, max_size=40))


@settings(deadline=None, max_examples=300)
@given(kernels_and_distances())
def test_kernel_finite_bounded_and_nonincreasing(case):
    p, rs = case
    k = kernel_of_dist(p, np.sort(rs))
    assert np.all(np.isfinite(k))
    assert np.all(k > 0.0)
    assert np.all(k <= p.kappa_sq * (1.0 + 1e-13))
    assert np.all(np.diff(k) <= 1e-13 * p.kappa_sq)


# Below nu = 0.025 the kernel itself falls by more than 1e-15 of kappa_sq
# between r = 0 and r = 1e-300 (its distance to the limit shrinks only like
# r^{2 nu}), so no representable switch radius is continuous there.
@settings(deadline=None, max_examples=200)
@given(kernels(min_order=0.025))
def test_kernel_continuous_across_switch_radius(p):
    r0 = switch_radius(p.nu)
    rs = np.concatenate([
        r0 * np.linspace(1.0 - 1e-9, 1.0 + 1e-9, 33),
        [r0, np.nextafter(r0, 0.0), np.nextafter(r0, np.inf)],
    ])
    k = kernel_of_dist(p, rs)
    assert k.max() - k.min() <= 1e-13 * p.kappa_sq


@st.composite
def near_duplicate_games(draw):
    p = draw(kernels())
    tau = draw(st.floats(1e-3, 1e3))
    n = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.uniform(-1.0, 1.0, (n, p.d))
    for t in range(1, n):
        if rng.random() < 0.5:
            step = rng.normal(size=p.d)
            xs[t] = xs[rng.integers(t)] + 10.0 ** rng.uniform(-12.0, -5.0) * step / np.linalg.norm(step)
    return p, tau, xs, rng.uniform(-1.0, 1.0, n)


@settings(deadline=None, max_examples=40)
@given(near_duplicate_games())
def test_replay_matches_online_forecaster_on_near_duplicates(game):
    p, tau, xs, ys = game
    yhat, pivots = replay_forecasts(p, tau, xs, ys)
    assert np.all(pivots >= tau * (1.0 - 1e-9))
    fc = KaarForecaster(p, tau)
    for x, y, replayed in zip(xs, ys, yhat):
        online = fc.predict(x)
        assert abs(replayed - online) <= 1e-10 * max(1.0, abs(online))
        fc.update(x, y)
