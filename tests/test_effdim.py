"""Effective dimension: eigenvalue-sum vs direct-trace oracle, monotonicity, fits."""

import numpy as np
import pytest

from kaarbench.effdim import effective_dimension, scaling_fit, spectrum
from kaarbench.kernel import KernelParams, gram


def direct_trace(K, tau):
    """Independent oracle: Tr((K + tau I)^{-1} K) by dense solve."""
    n = K.shape[0]
    return float(np.trace(np.linalg.solve(K + tau * np.eye(n), K)))


def test_single_point_half():
    p = KernelParams(1, 1.0)
    K = np.array([[p.kappa_sq]])
    rep = effective_dimension(K, tau=p.kappa_sq)
    assert rep.value == pytest.approx(0.5, abs=1e-14)


def test_limits_in_tau():
    rng = np.random.default_rng(0)
    K = gram(KernelParams(1, 1.0), rng.uniform(-1, 1, (40, 1)))
    lam1 = np.linalg.eigvalsh(K)[-1]
    huge = effective_dimension(K, tau=1e12 * lam1)
    assert huge.value <= 1e-10 * 40
    # tau well below the smallest positive eigenvalue: d_eff approaches the rank
    lam = np.maximum(np.linalg.eigvalsh(K), 0.0)
    positive = lam[lam > 1e-12 * lam.max()]
    tiny = effective_dimension(K, tau=1e-12 * positive.min())
    rank = len(positive)
    assert abs(tiny.value - rank) <= 0.01 * rank + 0.01


def test_matches_direct_trace_oracle():
    rng = np.random.default_rng(7)
    for n in (8, 64, 256):
        pts = rng.uniform(-1, 1, (n, 2))
        K = gram(KernelParams(2, 2.0), pts)
        for tau in (0.1, 1.0, 17.0):
            rep = effective_dimension(K, tau)
            assert rep.value == pytest.approx(direct_trace(K, tau), abs=1e-9)


def test_report_invariants():
    rng = np.random.default_rng(1)
    K = gram(KernelParams(1, 2.0), rng.uniform(-1, 1, (50, 1)))
    rep = effective_dimension(K, tau=0.5)
    lam = spectrum(K)
    assert np.all(np.diff(lam) <= 0) and np.all(lam >= 0)
    rank_proxy = int(np.sum(lam > 1e-12 * lam[0]))
    assert 0.0 <= rep.value <= min(rep.n, rank_proxy)


def test_monotone_decreasing_in_tau():
    rng = np.random.default_rng(2)
    K = gram(KernelParams(1, 1.0), rng.uniform(-1, 1, (30, 1)))
    taus = [0.01, 0.1, 1.0, 10.0, 100.0]
    vals = [effective_dimension(K, t).value for t in taus]
    assert np.all(np.diff(vals) < 0)


def test_duplicate_point_bounds():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (20, 1))
    p = KernelParams(1, 1.0)
    base = effective_dimension(gram(p, pts), 1.0).value
    dup = effective_dimension(gram(p, np.vstack([pts, pts[:1]])), 1.0).value
    assert base - 1e-12 <= dup <= base + 1.0 + 1e-12


def test_rejects_nonsymmetric():
    K = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        effective_dimension(K, 1.0)
    # at n = 600 the check runs over blocks of rows: a gap in any block is
    # found, and one inside the tolerance (1e-12 of the largest entry) is not
    K = gram(KernelParams(1, 1.0), np.linspace(-1, 1, 600))
    for i, j in [(0, 599), (599, 0), (300, 301)]:
        bad = K.copy()
        bad[i, j] += 1e-9
        with pytest.raises(ValueError):
            effective_dimension(bad, 1.0)
        bad[i, j] = K[i, j] + 1e-13
        assert effective_dimension(bad, 1.0).n == 600


def test_rejects_bad_tau():
    K = np.eye(3)
    for tau in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            effective_dimension(K, tau)


def _fake_report(n, tau, value):
    from kaarbench.effdim import EffDimReport

    return EffDimReport(n=n, tau=tau, value=value)


def test_scaling_fit_exact_power_law():
    reports = [_fake_report(n, 1.0, (n / 1.0) ** 0.5) for n in (16, 32, 64, 128, 256)]
    slope, r2 = scaling_fit(reports)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_constant_reports():
    reports = [_fake_report(n, 1.0, 7.0) for n in (16, 32, 64, 128)]
    slope, r2 = scaling_fit(reports)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_scaling_fit_input_validation():
    reports = [_fake_report(n, 1.0, 2.0) for n in (16, 32, 64)]
    with pytest.raises(ValueError):
        scaling_fit(reports)
    bad = [_fake_report(n, 1.0, v) for n, v in ((16, 1.0), (32, -1.0), (64, 2.0), (128, 3.0))]
    with pytest.raises(ValueError):
        scaling_fit(bad)


def test_equispaced_grid_slope_below_theory_band():
    # d=1, s=1 equispaced grids: the growth exponent of d_eff in n at tau=1
    # stays near d/(2s) = 0.5 (small sizes here; the acceptance suite runs
    # the full 256..8192 grid)
    p = KernelParams(1, 1.0)
    reports = []
    for n in (64, 128, 256, 512, 1024):
        pts = np.linspace(-1, 1, n)[:, None]
        reports.append(effective_dimension(gram(p, pts), 1.0))
    slope, r2 = scaling_fit(reports)
    assert slope <= 0.6
    assert r2 >= 0.9


@pytest.mark.parametrize("d,s,n", [(1, 1.0, 2048), (2, 2.0, 700), (1, 2.0, 333)])
def test_cholesky_value_matches_eigenvalue_sum(d, s, n):
    # n - tau ||R^{-1}||_F^2 against sum_j lambda_j / (lambda_j + tau) from eigvalsh
    K = gram(KernelParams(d, s), np.random.default_rng(n).uniform(-1, 1, (n, d)))
    lam = spectrum(K)
    for tau in (1e-3, 1.0, n ** (1.0 / 3.0), 1e3):
        want = float(np.sum(lam / (lam + tau)))
        assert effective_dimension(K, tau).value == pytest.approx(want, rel=1e-9)


def test_reads_the_given_matrix_without_changing_it():
    K = gram(KernelParams(1, 1.0), np.linspace(-1, 1, 300))
    before = K.copy()
    effective_dimension(K, 0.5)
    assert np.array_equal(K, before)


def test_lambda_columns_come_from_the_spectrum(tmp_path):
    from kaarbench.harness import write_effdim_csv

    K = gram(KernelParams(1, 1.0), np.linspace(-1, 1, 40))
    write_effdim_csv([effective_dimension(K, 1.0)], [spectrum(K)], tmp_path / "effdim.csv")
    row = (tmp_path / "effdim.csv").read_text().splitlines()[1].split(",")
    lam = np.linalg.eigvalsh(K)
    assert float(row[3]) == lam[-1] and float(row[4]) == max(lam[0], 0.0)
