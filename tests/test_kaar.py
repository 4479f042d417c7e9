"""Forecaster: direct-solve oracle equivalence, factor invariants, schedules."""

import math

import numpy as np
import pytest

from kaarbench.kaar import (
    KaarForecaster,
    NumericalBreakdownError,
    Schedule,
    inverse_column_norms,
    panel_cholesky,
    regret_certificate,
    replay_forecasts,
    schedule_tau,
    target_regret_exponent,
)
from kaarbench.kernel import KernelParams, gram


def predict_direct(params, tau, xs, ys, x):
    """Independent oracle: fresh dense factorization of K_t + tau I."""
    t = len(ys)
    pts = np.vstack([xs, np.atleast_1d(x)[None, :]]) if t else np.atleast_1d(x)[None, :]
    K = gram(params, pts)
    ytil = np.append(ys, 0.0)
    return float(ytil @ np.linalg.solve(K + tau * np.eye(t + 1), K[:, -1]))


def test_first_round_predicts_zero():
    fc = KaarForecaster(KernelParams(2, 2.0), tau=1.0)
    assert fc.predict([0.3, -0.1]) == 0.0


def test_duplicate_point_matches_two_by_two_solve():
    # history {(0, 1)}, query the same point: oracle is the dense 2x2 solve,
    # whose closed form is kappa^2 / (tau + 2 kappa^2)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    fc.update([0.0], 1.0)
    got = fc.predict([0.0])
    oracle = predict_direct(params, 1.0, np.array([[0.0]]), np.array([1.0]), [0.0])
    assert got == pytest.approx(oracle, abs=1e-12)
    kap = params.kappa_sq
    assert got == pytest.approx(kap / (1.0 + 2.0 * kap), rel=1e-12)


def test_huge_tau_shrinks_prediction_to_zero():
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1e12)
    rng = np.random.default_rng(0)
    for _ in range(5):
        fc.update(rng.uniform(-1, 1, 1), float(rng.uniform(-1, 1)))
    assert abs(fc.predict([0.0])) <= 1e-9 * np.abs(fc.labels).max()


@pytest.mark.parametrize("d,s,tau", [(1, 1.0, 1.0), (2, 2.0, 1.0), (1, 2.0, 0.1), (3, 2.0, 25.0)])
def test_oracle_equivalence_across_rounds(d, s, tau):
    rng = np.random.default_rng(d * 7 + 1)
    params = KernelParams(d, s)
    fc = KaarForecaster(params, tau)
    xs = rng.uniform(-1, 1, (100, d))
    ys = rng.uniform(-1, 1, 100)
    worst = 0.0
    for t in range(100):
        incremental = fc.predict(xs[t])
        direct = predict_direct(params, tau, xs[:t], ys[:t], xs[t])
        worst = max(worst, abs(incremental - direct))
        fc.update(xs[t], ys[t])
    assert worst <= 1e-8


def test_factor_reproduces_regularized_gram():
    rng = np.random.default_rng(1)
    params = KernelParams(2, 2.0)
    tau = 0.5
    fc = KaarForecaster(params, tau)
    for t in range(60):
        x = rng.uniform(-1, 1, 2)
        fc.predict(x)
        fc.update(x, float(rng.uniform(-1, 1)))
    R = fc.chol
    target = gram(params, fc.inputs) + tau * np.eye(fc.t)
    assert np.abs(R.T @ R - target).max() <= 1e-9 * (params.kappa_sq + tau)


def test_first_update_scalar_factor():
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=2.0)
    fc.update([0.1], 0.5)
    assert fc.chol[0, 0] == pytest.approx(math.sqrt(params.kappa_sq + 2.0), rel=1e-15)


def test_duplicate_inputs_allowed():
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    for _ in range(10):
        fc.predict([0.25])
        fc.update([0.25], 1.0)
    assert fc.t == 10
    assert np.isfinite(fc.predict([0.25]))


def test_update_rejects_nonfinite_label():
    fc = KaarForecaster(KernelParams(1, 1.0), tau=1.0)
    with pytest.raises(ValueError):
        fc.update([0.0], math.nan)
    with pytest.raises(ValueError):
        fc.update([0.0], math.inf)


def test_dimension_mismatch_rejected():
    fc = KaarForecaster(KernelParams(2, 2.0), tau=1.0)
    with pytest.raises(ValueError):
        fc.predict([0.0])
    with pytest.raises(ValueError):
        fc.update([0.0, 0.0, 0.0], 1.0)


def test_update_without_matching_predict():
    # update on a point other than the last predicted one recomputes its column
    rng = np.random.default_rng(2)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    xs = rng.uniform(-1, 1, (30, 1))
    ys = rng.uniform(-1, 1, 30)
    for t in range(30):
        fc.predict(rng.uniform(-1, 1, 1))  # probe a different point
        fc.update(xs[t], ys[t])
    R = fc.chol
    target = gram(params, xs) + np.eye(30)
    assert np.abs(R.T @ R - target).max() <= 1e-10


def test_predict_does_not_mutate_state():
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    fc.update([0.0], 1.0)
    before = (fc.t, fc.chol.copy())
    for _ in range(5):
        fc.predict([0.4])
    assert fc.t == before[0]
    assert np.array_equal(fc.chol, before[1])


def test_corrupted_state_recovers_by_refactorization():
    # a shrunken factor inflates the solved column, so the provisional pivot
    # turns non-positive; the forecaster rebuilds the factorization from
    # scratch and carries on
    rng = np.random.default_rng(9)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    xs = rng.uniform(-1, 1, (20, 1))
    ys = rng.uniform(-1, 1, 20)
    for t in range(20):
        fc.update(xs[t], ys[t])
    fc._ap[: 20 * 21 // 2] *= 0.02  # corrupt the packed factor R
    got = fc.predict([0.3])
    direct = predict_direct(params, 1.0, xs, ys, [0.3])
    assert got == pytest.approx(direct, abs=1e-9)


def test_persistent_breakdown_raises():
    from kaarbench.kaar import NumericalBreakdownError

    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    fc.update([0.0], 1.0)
    fc._ap[0] = 1e-6  # R_00
    fc._refactorize = lambda: None  # refactorization cannot repair this one
    with pytest.raises(NumericalBreakdownError):
        fc.predict([0.5])


def test_prediction_continuity_shrinks_with_perturbation():
    rng = np.random.default_rng(3)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0)
    for _ in range(50):
        x = rng.uniform(-1, 1, 1)
        fc.update(x, float(rng.uniform(-1, 1)))
    x0 = np.array([0.2])
    base = fc.predict(x0)
    gaps = [abs(fc.predict(x0 + delta) - base) for delta in (1e-1, 1e-3, 1e-5)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-4


def test_large_order_predict_finite_for_close_inputs():
    # s = 40.5: K_nu alone overflows 2.4e-7 away from an earlier input
    fc = KaarForecaster(KernelParams(1, 40.5), 1.0)
    fc.update([0.3], 0.5)
    assert math.isfinite(fc.predict([0.3 + 2.4e-7]))


def test_clipping():
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=0.01, clip_m=1.0)
    assert min(max(-1.0, 3.2), 1.0) == 1.0  # clip algebra: above, inside, below
    assert min(max(-1.0, -0.4), 1.0) == -0.4
    assert min(max(-2.0, -7.0), 2.0) == -2.0
    fc.update([0.0], 0.9)
    fc.update([0.001], 0.9)
    raw = fc.predict([0.0005])
    clipped = fc.predict_clipped([0.0005])
    assert clipped == min(max(-1.0, raw), 1.0)


def test_clipping_requires_level():
    fc = KaarForecaster(KernelParams(1, 1.0), tau=1.0)
    with pytest.raises(ValueError):
        fc.predict_clipped([0.0])


def test_clipping_dominance_on_game_rounds():
    # with labels in [-M, M] the clipped forecast is never worse per round
    rng = np.random.default_rng(4)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=0.05, clip_m=0.5)
    for _ in range(300):
        x = rng.uniform(-1, 1, 1)
        y = float(rng.uniform(-0.5, 0.5))
        raw = fc.predict(x)
        clipped = fc.predict_clipped(x)
        assert (y - clipped) ** 2 <= (y - raw) ** 2
        fc.update(x, y)


# -- schedules ---------------------------------------------------------


def test_schedule_smooth_examples():
    s, tau = schedule_tau(Schedule("smooth", beta=1.0, n=1000), 1)
    assert s == 1.0
    assert tau == pytest.approx(10.0, rel=1e-12)
    s, tau = schedule_tau(Schedule("smooth", beta=2.0, n=4096), 2)
    assert s == 2.0
    assert tau == pytest.approx(16.0, rel=1e-12)


def test_schedule_hard_example():
    s, tau = schedule_tau(Schedule("hard", beta=0.9, p=4.0, epsilon=0.05, n=1000), 2)
    assert s == pytest.approx(1.05)
    assert tau == pytest.approx(1000.0**0.35, rel=1e-12)


def test_schedule_hard_p_infinity():
    s, tau = schedule_tau(Schedule("hard", beta=0.5, p=math.inf, epsilon=0.05, n=256), 1)
    assert s == pytest.approx(0.55)
    assert tau == pytest.approx(256.0**0.45, rel=1e-12)


def test_schedule_accepts_kernel_params_for_dimension():
    params = KernelParams(1, 1.0)
    assert schedule_tau(Schedule("smooth", beta=1.0, n=1000), params)[1] == pytest.approx(10.0)


def test_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        schedule_tau(Schedule("smooth", beta=0.4, n=100), 1)  # beta <= d/2
    with pytest.raises(ValueError):
        schedule_tau(Schedule("hard", beta=0.9, p=4.0, n=100), 1)  # beta > d/2
    with pytest.raises(ValueError):
        schedule_tau(Schedule("hard", beta=0.4, p=2.0, n=100), 1)  # p must exceed 2
    with pytest.raises(ValueError):
        schedule_tau(Schedule("manual", n=100), 1)  # missing s, tau
    with pytest.raises(ValueError):
        schedule_tau(Schedule("nonsense", n=100), 1)


def test_target_exponents():
    assert target_regret_exponent("smooth", 1, 1.0) == pytest.approx(1.0 / 3.0)
    assert target_regret_exponent("hard", 2, 0.9, 4.0) == pytest.approx(0.6)
    assert target_regret_exponent("hard", 1, 0.5, math.inf) == pytest.approx(0.5)


# -- certificate -------------------------------------------------------


def test_certificate_zero_function():
    fc = KaarForecaster(KernelParams(1, 1.0), tau=1.0, clip_m=1.0)
    assert regret_certificate(fc, 0.0, 1, 0.0) == 0.0


def test_certificate_unit_log_term():
    # pick n with n kappa^2 / tau = e - 1 so the log term equals 2
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=1.0, clip_m=1.0)
    n_eff = (math.e - 1.0) / params.kappa_sq
    d_eff = 3.0
    got = regret_certificate(fc, 4.0, n_eff, d_eff)
    assert got == pytest.approx(4.0 + 2.0 * d_eff, rel=1e-12)


def test_certificate_requires_clip_level():
    fc = KaarForecaster(KernelParams(1, 1.0), tau=1.0)
    with pytest.raises(ValueError):
        regret_certificate(fc, 1.0, 10, 1.0)


# -- replay from the level-3 panel factor ------------------------------


@pytest.mark.parametrize("t", [0, 1, 127, 128, 200, 299])
def test_replay_forecasts_do_not_read_their_own_label(t):
    # changing y_t (0-based) leaves the forecasts of rounds 1 .. t+1 bit-identical
    rng = np.random.default_rng(12)
    params = KernelParams(1, 1.0)
    xs = rng.uniform(-1, 1, (300, 1))
    ys = rng.uniform(-1, 1, 300)
    base, _ = replay_forecasts(params, 2.0, xs, ys)
    moved = ys.copy()
    moved[t] += 0.75
    again, _ = replay_forecasts(params, 2.0, xs, moved)
    assert np.array_equal(base[: t + 1], again[: t + 1])
    if t + 1 < 300:
        assert not np.array_equal(base[t + 1 :], again[t + 1 :])


def test_panel_cholesky_matches_dense_factor():
    rng = np.random.default_rng(13)
    params = KernelParams(1, 2.0)
    K = gram(params, rng.uniform(-1, 1, (300, 1)))
    panels = panel_cholesky(lambda s, e, out: out.__setitem__(Ellipsis, K[:e, s:e]), 300, 0.3)
    R = np.zeros((300, 300))
    for P in panels:
        e, w = P.shape
        R[:e, e - w : e] = P
    dense = np.linalg.cholesky(K + 0.3 * np.eye(300)).T
    assert np.abs(R - dense).max() <= 1e-12 * np.abs(dense).max()


def test_panel_breakdown_reports_dpotrf_column():
    # identity with column 200 duplicating column 37: every step is exact in
    # floating point and the pivot of column 200 (1-based 201) is exactly 0
    A = np.eye(260)
    A[37, 200] = A[200, 37] = 1.0
    with pytest.raises(NumericalBreakdownError) as exc_info:
        panel_cholesky(lambda s, e, out: out.__setitem__(Ellipsis, A[:e, s:e]), 260, 0.0)
    assert exc_info.value.round_index == 201


def test_inverse_column_norms_give_prefix_effective_dimensions():
    rng = np.random.default_rng(14)
    params = KernelParams(1, 1.0)
    K = gram(params, rng.uniform(-1, 1, (300, 1)))
    tau = 0.5
    norms = inverse_column_norms(
        panel_cholesky(lambda s, e, out: out.__setitem__(Ellipsis, K[:e, s:e]), 300, tau)
    )
    prefix = np.arange(1, 301) - tau * np.cumsum(norms)
    for t in (1, 2, 64, 128, 129, 256, 300):
        lam = np.maximum(np.linalg.eigvalsh(K[:t, :t]), 0.0)
        assert prefix[t - 1] == pytest.approx(float(np.sum(lam / (lam + tau))), rel=1e-9)
