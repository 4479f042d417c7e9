"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact oracle checks run at fixed tolerances; the rate claims (regret growth,
effective-dimension scaling) are slope fits on log-log axes with slack that
absorbs the theory's logarithmic and n^epsilon factors at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import math
import time

import numpy as np
import pytest

from kaarbench.adversary import bump_comparator
from kaarbench.effdim import effective_dimension, scaling_fit
from kaarbench.ewa import build_net, ewa_predict, ewa_update
from kaarbench.harness import ExperimentConfig, estimate_exponent, map_seeds, run_game, run_horizon_family
from kaarbench.kaar import KaarForecaster, regret_certificate
from kaarbench.kernel import KernelParams, diagonal_value, gram, kernel_eval
from kaarbench.special import bessel_k

from expert_paths import EnumeratedEwa, enumerate_experts

WORKERS = 2


def check(label: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def predict_direct(K, tau, ys):
    """Dense KAAR forecast at the last point of the Gram matrix K, given the
    labels ys of the points before it."""
    ytil = np.append(ys, 0.0)
    return float(ytil @ np.linalg.solve(K + tau * np.eye(len(ytil)), K[:, -1]))


# -- criterion 1: incremental scheme equals the dense definition ------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    params = KernelParams(2, 2.0)
    tau = 1.0
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1, 1, (256, 2))
        ys = rng.uniform(-1, 1, 256)
        K = gram(params, xs)  # the Gram matrix of each prefix is its leading block
        fc = KaarForecaster(params, tau)
        for t in range(256):
            incremental = fc.predict(xs[t])
            direct = predict_direct(K[: t + 1, : t + 1], tau, ys[:t])
            worst = max(worst, abs(incremental - direct))
            fc.update(xs[t], ys[t])
    elapsed = time.perf_counter() - t0
    check(
        "criterion 1 (incremental vs direct solve)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |diff| = {worst:.2e} over 5 seeds x 256 rounds, {elapsed:.1f}s",
    )


# -- criteria 2 and 5 share the same twenty games ---------------------------


@pytest.fixture(scope="module")
def certificate_games():
    config = ExperimentConfig(
        name="certificate", horizon=2000, seeds=tuple(range(20)), threads=WORKERS,
        d=1, regime="smooth", beta=1.0, forecaster="kaar_clipped", clip_m=1.0,
        adversary="iid", noise_sd=0.1, comparator="representer",
        comparator_centers=5, comparator_norm=2.0, comparator_seed=0,
    )
    t0 = time.perf_counter()
    traces = map_seeds(run_game, config)
    elapsed = time.perf_counter() - t0
    return config, traces, elapsed


def test_criterion_2_regret_certificate(certificate_games):
    from kaarbench.harness import make_comparator

    config, traces, run_elapsed = certificate_games
    t0 = time.perf_counter()
    s, tau = config.schedule()
    params = KernelParams(config.d, s)
    comp = make_comparator(config, params)
    assert comp.norm_sq <= 4.0 + 1e-9
    margins = []
    for seed, trace in traces.items():
        fc = KaarForecaster(params, tau, clip_m=config.clip_m)
        d_eff = effective_dimension(gram(params, trace.xs), tau).value
        bound = regret_certificate(fc, comp.norm_sq, trace.n, d_eff)
        realized = trace.final_regret("representer")
        margins.append(bound - realized)
    elapsed = run_elapsed + (time.perf_counter() - t0)
    check(
        "criterion 2 (regret certificate)",
        all(m >= 0 for m in margins) and elapsed < 120.0,
        f"min bound-regret margin {min(margins):.2f} over 20 seeds, {elapsed:.0f}s",
    )


def test_criterion_5_clipping_dominance(certificate_games):
    _, traces, _ = certificate_games
    violations = 0
    rounds = 0
    for trace in traces.values():
        assert trace.raw_yhats is not None
        assert np.all(np.abs(trace.ys) <= 1.0)
        clipped_losses = (trace.ys - trace.yhats) ** 2
        raw_losses = (trace.ys - trace.raw_yhats) ** 2
        violations += int(np.sum(clipped_losses > raw_losses))
        rounds += trace.n
    check(
        "criterion 5 (clipping dominance)",
        violations == 0,
        f"0 violations expected, got {violations} over {rounds} rounds",
    )


# -- criterion 3: effective-dimension scaling law ----------------------------


def test_criterion_3_effective_dimension_scaling():
    t0 = time.perf_counter()
    ns = (256, 512, 1024, 2048, 4096, 8192)
    results = {}
    for s, cap in ((1.0, 0.5 + 0.1), (2.0, 0.25 + 0.1)):
        params = KernelParams(1, s)
        reports = []
        for n in ns:
            pts = np.linspace(-1.0, 1.0, n)[:, None]
            reports.append(effective_dimension(gram(params, pts), 1.0))
        slope, r2 = scaling_fit(reports)
        results[s] = (slope, r2, cap)
    elapsed = time.perf_counter() - t0
    ok = all(slope <= cap and r2 >= 0.9 for slope, r2, cap in results.values()) and elapsed < 300.0
    detail = ", ".join(
        f"s={s}: slope {slope:.3f} (cap {cap}), r2 {r2:.4f}" for s, (slope, r2, cap) in results.items()
    )
    check("criterion 3 (effective-dimension scaling)", ok, f"{detail}, {elapsed:.0f}s")


# -- criterion 4: regret growth exponent in the smooth regime ----------------


def test_criterion_4_regret_growth_exponent():
    # fresh games at each horizon with tau_n = n^{1/3}; regrets are averaged
    # over the seeds before fitting (single-seed curves carry a martingale
    # term of the same scale as the regret itself, so per-seed log-log fits
    # measure flooring artifacts rather than growth)
    t0 = time.perf_counter()
    ns = (128, 256, 512, 1024, 2048, 4096)
    seeds = tuple(range(10))
    target = 1.0 / 3.0 + 0.15
    fits = {}
    for adversary in ("shattering", "iid"):
        config = ExperimentConfig(
            name=f"growth-{adversary}", horizon=4096, seeds=seeds, threads=WORKERS,
            d=1, regime="smooth", beta=1.0, forecaster="kaar_clipped", clip_m=1.0,
            adversary=adversary, noise_sd=0.1, comparator="representer",
            comparator_centers=5, comparator_norm=0.65, comparator_seed=0,
        )
        families = map_seeds(run_horizon_family, config, tuple(ns))
        played = families[seeds[0]][0]
        mean_curve = np.mean([families[s][1] for s in seeds], axis=0)
        fits[adversary] = estimate_exponent(played, mean_curve)
    elapsed = time.perf_counter() - t0
    ok = all(f.slope <= target and not f.all_nonpositive for f in fits.values()) and elapsed < 600.0
    detail = ", ".join(f"{k}: slope {f.slope:.3f} (r2 {f.r_squared:.2f})" for k, f in fits.items())
    check(
        "criterion 4 (smooth-regime regret exponent)",
        ok,
        f"{detail} vs cap {target:.3f}, 10 seeds averaged, {elapsed:.0f}s",
    )


# -- criterion 6: special functions ------------------------------------------


def test_criterion_6_special_functions():
    xs = np.linspace(0.05, 20.0, 20)
    k_half = np.sqrt(np.pi / (2 * xs)) * np.exp(-xs)
    k_3half = k_half * (1.0 + 1.0 / xs)
    err_half = float(np.max(np.abs(bessel_k(0.5, xs) - k_half) / k_half))
    err_3half = float(np.max(np.abs(bessel_k(1.5, xs) - k_3half) / k_3half))
    worst_rec = 0.0
    rec_xs = np.linspace(0.1, 20.0, 25)
    for nu in (1.0, 2.3, 4.7):
        lhs = bessel_k(nu + 1, rec_xs)
        resid = np.abs(lhs - bessel_k(nu - 1, rec_xs) - (2 * nu / rec_xs) * bessel_k(nu, rec_xs))
        worst_rec = max(worst_rec, float(np.max(resid / lhs)))
    ok = err_half <= 1e-10 and err_3half <= 1e-10 and worst_rec <= 1e-8
    check(
        "criterion 6 (special functions)",
        ok,
        f"closed-form rel err {max(err_half, err_3half):.2e}, recurrence residual {worst_rec:.2e}",
    )


# -- criterion 7: kernel PSD and diagonal limit -------------------------------


def test_criterion_7_kernel_psd_and_diagonal():
    rng = np.random.default_rng(12345)
    worst_ratio = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        s = d / 2 + float(rng.uniform(0.2, 1.5 * d))
        n = int(rng.integers(2, 65))
        K = gram(KernelParams(d, s), rng.uniform(-1, 1, (n, d)))
        worst_ratio = min(worst_ratio, float(np.linalg.eigvalsh(K)[0] / np.trace(K)))
    worst_gap = 0.0
    for d, s in ((1, 1.0), (2, 2.0), (3, 2.0)):
        params = KernelParams(d, s)
        x = np.zeros(d)
        y = np.full(d, 1e-6 / math.sqrt(d))
        gap = abs(kernel_eval(params, x, y) - diagonal_value(d, s)) / diagonal_value(d, s)
        worst_gap = max(worst_gap, gap)
    ok = worst_ratio >= -1e-8 and worst_gap <= 1e-6
    check(
        "criterion 7 (kernel PSD and diagonal limit)",
        ok,
        f"min eig/trace {worst_ratio:.2e}, diagonal rel gap {worst_gap:.2e}",
    )


# -- criterion 8: EWA aggregation bound ---------------------------------------


def test_criterion_8_ewa_aggregation_bound():
    slacks = []
    values = enumerate_experts(1.0, 1.0, 0.5)
    n_experts = len(values)
    assert n_experts <= 512
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
        assert net.eta == pytest.approx(1.0 / 8.0)
        oracle = EnumeratedEwa(values, net.eta)
        ewa_loss = 0.0
        for _ in range(1000):
            x = float(rng.uniform(-1, 1))
            y = float(rng.uniform(-1, 1))
            ewa_loss += (y - ewa_predict(net, x)) ** 2
            oracle.update(x, y)
            ewa_update(net, x, y)
        slacks.append(8.0 * math.log(n_experts) - (ewa_loss - float(oracle.losses.min())))
    check(
        "criterion 8 (EWA aggregation bound)",
        all(sl >= 0 for sl in slacks),
        f"min slack {min(slacks):.2f} over 10 seeds (N={n_experts}, bound 8 ln N = {8 * math.log(n_experts):.1f})",
    )


# -- criterion 9: bump class ---------------------------------------------------


def test_criterion_9_bump_class():
    rng = np.random.default_rng(777)
    details = []
    ok = True
    for d, beta, m, n_grid in ((1, 0.5, 1.0, 64), (2, 1.0, 2.0, 16)):
        n_cubes = int(math.floor(2 * n_grid ** (1 / d))) ** d
        comp = bump_comparator(n_grid, d, beta, m, rng.choice([-1.0, 1.0], n_cubes))
        pts = rng.uniform(-1, 1, (100_000, d))
        sup = float(np.abs(comp.evaluate(pts)).max())
        centers = comp.centers()
        expected = comp.signs * m * n_grid ** (-beta / d) / (8.0 * comp.g_norm)
        center_err = float(np.abs(comp.evaluate(centers) - expected).max())
        # sampled points at least half a cell from every center (cube corners
        # sit outside every bump's support sphere only for d >= 2, so probe
        # cell boundaries along the first axis and far-field points)
        probes = centers.copy()
        probes[:, 0] += comp.side / 2.0
        outside = np.abs(comp.evaluate(probes)).max()
        far = np.abs(comp.evaluate(np.full((4, d), 3.0))).max()
        this_ok = sup <= m / 4.0 and center_err <= 1e-12 and outside == 0.0 and far == 0.0
        ok = ok and this_ok
        details.append(f"(d={d}) sup {sup:.4f} <= {m / 4}, center err {center_err:.1e}")
    check("criterion 9 (bump class)", ok, "; ".join(details))


# -- criterion 10: runtime scaling ---------------------------------------------


def _timed_game(n: int, seed: int) -> float:
    params = KernelParams(2, 2.0)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1, 1, (n, 2))
    ys = rng.uniform(-1, 1, n)
    fc = KaarForecaster(params, tau=1.0, clip_m=1.0)
    t0 = time.perf_counter()
    for t in range(n):
        fc.predict_clipped(xs[t])
        fc.update(xs[t], ys[t])
    return time.perf_counter() - t0


def test_criterion_10_runtime_scaling():
    _timed_game(128, 0)  # warm-up: imports, BLAS threads, allocator
    t512 = min(_timed_game(512, 1), _timed_game(512, 2))
    t1024 = min(_timed_game(1024, 1), _timed_game(1024, 2))
    ratio = t1024 / t512
    check(
        "criterion 10 (runtime scaling)",
        ratio <= 10.0,
        f"time(1024)/time(512) = {t1024:.2f}s/{t512:.2f}s = {ratio:.2f} (cubic predicts 8)",
    )
