"""Sobolev kernel: closed forms, diagonal limit, Gram invariants."""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy.spatial.distance import cdist, pdist, squareform

from kaarbench.kernel import MAX_ORDER, KernelParams, diagonal_value, gram, kernel_eval, kernel_of_dist


def test_params_reject_low_smoothness():
    with pytest.raises(ValueError):
        KernelParams(2, 1.0)
    with pytest.raises(ValueError):
        KernelParams(1, 0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_params_accept_property_tests_top_order(d):
    assert KernelParams(d, d / 2 + 40.5).nu == pytest.approx(40.5)


def test_params_reject_orders_where_the_limit_is_off():
    # r_0(nu)^2 / (4 nu): the relative gap between the r -> 0 limit and the kernel at r_0
    def gap(nu):
        r0 = 2.0 * math.exp((math.lgamma(nu) - math.log(2e300)) / nu)
        return r0**2 / (4.0 * nu)

    assert gap(MAX_ORDER) <= 1e-13 < gap(MAX_ORDER + 1e-5)
    KernelParams(2, 1.0 + MAX_ORDER)
    for d, s in ((2, 1.0 + MAX_ORDER + 1e-5), (1, 60.5)):
        with pytest.raises(ValueError, match=str(MAX_ORDER)):
            KernelParams(d, s)


def test_params_cache_diagonal():
    p = KernelParams(3, 2.5)
    assert p.kappa_sq == diagonal_value(3, 2.5)


def test_diagonal_value_closed_forms():
    # 2^{-d/2} Gamma(s - d/2) / Gamma(s)
    assert diagonal_value(1, 1.0) == pytest.approx(1.2533141373155003, rel=1e-14)
    assert diagonal_value(2, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert diagonal_value(1, 2.0) == pytest.approx(0.6266570686577502, rel=1e-14)


@pytest.mark.parametrize("d,s", [(1, 1.0), (2, 2.0), (1, 2.0), (3, 2.0)])
def test_diagonal_value_is_the_r_to_zero_limit(d, s):
    # numerical cross-check: formula at shrinking r approaches the closed form
    p = KernelParams(d, s)
    limit = diagonal_value(d, s)
    gaps = []
    for r in (1e-4, 1e-5, 1e-6):
        val = float(kernel_of_dist(p, np.array([r]))[0])
        gaps.append(abs(val - limit) / limit)
    assert gaps[-1] <= 1e-5
    assert gaps[0] >= gaps[-1] * 0.999  # shrinking with r


def test_exponential_closed_form_d1_s1():
    # with nu = 1/2 the kernel reduces to sqrt(pi/2) e^{-r}
    p = KernelParams(1, 1.0)
    assert kernel_eval(p, [0.0], [0.7]) == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-0.7), rel=1e-13)
    assert kernel_eval(p, [0.3], [0.3]) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)


@pytest.mark.parametrize("d,s", [(1, 1.0), (2, 2.0), (3, 1.8)])
def test_kernel_at_identical_points_equals_diagonal(d, s):
    p = KernelParams(d, s)
    x = np.full(d, 0.21)
    assert kernel_eval(p, x, x) == diagonal_value(d, s)


def test_kernel_dimension_mismatch():
    p = KernelParams(2, 2.0)
    with pytest.raises(ValueError):
        kernel_eval(p, [0.0], [0.0, 0.0])


def test_gram_single_and_duplicate_points():
    p = KernelParams(2, 2.0)
    K1 = gram(p, np.array([[0.1, 0.2]]))
    assert K1.shape == (1, 1) and K1[0, 0] == p.kappa_sq
    K2 = gram(p, np.array([[0.1, 0.2], [0.1, 0.2]]))
    assert np.all(K2 == p.kappa_sq)


def test_gram_entries_match_closed_form():
    p = KernelParams(1, 1.0)
    pts = np.array([[0.0], [0.5], [1.0]])
    K = gram(p, pts)
    expected = math.sqrt(math.pi / 2) * math.exp(-1.0)
    assert K[0, 2] == pytest.approx(expected, rel=1e-13)
    assert np.allclose(K, K.T)
    assert np.all(np.diag(K) == p.kappa_sq)


def test_gram_blocks_match_pairwise_formula():
    # 600 points span six blocks of rows; every entry is the formula at the
    # pair's distance, bit for bit, including a repeated point
    rng = np.random.default_rng(3)
    for d, s in [(1, 1.0), (2, 1.05), (3, 2.5)]:
        p = KernelParams(d, s)
        pts = rng.uniform(-1, 1, (600, d))
        pts[500] = pts[7]
        expected = squareform(kernel_of_dist(p, pdist(pts)))
        np.fill_diagonal(expected, p.kappa_sq)
        K = gram(p, pts)
        assert np.array_equal(K, expected)
        assert np.array_equal(K, K.T)


def test_gram_empty_rejected():
    with pytest.raises(ValueError):
        gram(KernelParams(1, 1.0), np.zeros((0, 1)))


def test_gram_psd_random_families():
    # 50 random point sets across (d, s) families; smallest eigenvalue above
    # the roundoff floor relative to the trace
    rng = np.random.default_rng(42)
    for trial in range(50):
        d = int(rng.integers(1, 4))
        s = [d / 2 + 0.6, float(d), 2.0 * d][trial % 3]
        n = int(rng.integers(2, 65))
        pts = rng.uniform(-1, 1, (n, d))
        K = gram(KernelParams(d, s), pts)
        lam_min = np.linalg.eigvalsh(K)[0]
        assert lam_min >= -1e-8 * np.trace(K)


def test_continuity_at_diagonal():
    p = KernelParams(2, 2.0)
    x = np.array([0.3, -0.4])
    gaps = []
    for delta in (1e-3, 1e-5):
        y = x + np.array([delta, 0.0])
        gaps.append(abs(kernel_eval(p, x, y) - p.kappa_sq))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-6


def test_small_order_continuous_across_former_switch():
    # nu = 0.05: r^nu K_nu(r) nears its limit only like r^{2 nu}, so a switch
    # to the limit at r = 1e-10 would jump by 10 %; the kernel itself moves
    # by 2e-5 of kappa_sq between these two distances
    p = KernelParams(1, 0.55)
    below, above = kernel_of_dist(p, np.array([0.999e-10, 1.001e-10]))
    assert 0.0 <= below - above <= 1e-4 * p.kappa_sq


def test_gram_of_hard_lattice_matches_kv_per_pair():
    # the hard preset's d = 2 game at n = 1024: 32 x 32 cube centres and nu = 0.05,
    # where bessel_k evaluates each of the 430 distinct nonzero distances once
    from kaarbench.adversary import shattering_stream

    xs = shattering_stream(256, 2, 1.0, 0.9, 0).xs
    p = KernelParams(2, 1.05)
    r = cdist(xs, xs)
    off = r > 0
    expected = np.full_like(r, p.kappa_sq)
    expected[off] = 2.0 ** (1.0 - p.s) / sp.gamma(p.s) * r[off] ** p.nu * sp.kv(p.nu, r[off])
    assert xs.shape == (1024, 2)
    assert np.array_equal(gram(p, xs), expected)


def test_nan_distance_rejected():
    from kaarbench.kaar import KaarForecaster

    p = KernelParams(1, 1.0)
    with pytest.raises(ValueError):
        gram(p, [[0.1], [math.nan]])
    fc = KaarForecaster(p, 1.0)
    fc.update([0.1], 0.3)
    with pytest.raises(ValueError):
        fc.predict([math.nan])


def test_translation_invariance():
    p = KernelParams(2, 1.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)
        c = rng.uniform(-0.4, 0.4, 2)
        assert kernel_eval(p, x, y) == pytest.approx(kernel_eval(p, x + c, y + c), abs=1e-12)


def test_kernel_values_in_range():
    p = KernelParams(1, 1.5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        v = kernel_eval(p, x, y)
        assert 0.0 < v <= p.kappa_sq
