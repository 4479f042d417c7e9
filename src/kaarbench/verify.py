"""Self-contained verification battery behind `kaarbench verify`.

Each check is a cheap, deterministic property test of one load-bearing piece
of the library: special-function accuracy, kernel positive
semi-definiteness and diagonal limits, equivalence of the incremental
forecaster with a from-scratch dense solve, clipping dominance, the expert
aggregation bound, and the mollifier/bump-class identities.  The battery is
meant to run in seconds on a fresh checkout; the pytest suite covers the
same ground (and much more) at higher resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import BumpComparator, RepresenterComparator, iid_stream, mollifier_g
from .effdim import effective_dimension
from .ewa import _chain, build_net, ewa_predict, ewa_update
from .kaar import KaarForecaster, regret_certificate
from .kernel import KernelParams, diagonal_value, gram, kernel_eval
from .special import bessel_k, gamma

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# frozen arbitrary-precision reference values (40 digits, rounded to double)
_K_REFERENCE = [
    (2.3, 0.5, 13.509653881303644),
    (4.7, 3.0, 0.657016759689256),
    (0.05, 1e-4, 9.686762419754823),
    (6.25, 20.0, 1.4795316462955002e-09),
]
_GAMMA_REFERENCE = [(0.5, 1.772453850905516), (7.25, 1155.3810139199898)]


def check_bessel_closed_forms() -> CheckResult:
    xs = np.linspace(0.05, 20.0, 20)
    k_half = np.sqrt(np.pi / (2 * xs)) * np.exp(-xs)
    k_3half = k_half * (1.0 + 1.0 / xs)
    worst = 0.0
    for nu, ref in ((0.5, k_half), (1.5, k_3half)):
        got = bessel_k(nu, xs)
        worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    return CheckResult("bessel half-integer closed forms", worst <= 1e-10, f"worst rel err {worst:.2e}")


def check_bessel_reference() -> CheckResult:
    worst = 0.0
    for nu, x, ref in _K_REFERENCE:
        worst = max(worst, abs(bessel_k(nu, x) - ref) / abs(ref))
    for x, ref in _GAMMA_REFERENCE:
        worst = max(worst, abs(gamma(x) - ref) / ref)
    return CheckResult("special-function reference values", worst <= 1e-10, f"worst rel err {worst:.2e}")


def check_bessel_recurrence() -> CheckResult:
    xs = np.linspace(0.1, 20.0, 30)
    worst = 0.0
    for nu in (1.0, 2.3, 4.7):
        lhs = bessel_k(nu + 1, xs)
        rhs = bessel_k(nu - 1, xs) + (2 * nu / xs) * bessel_k(nu, xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / lhs)))
    return CheckResult("bessel three-term recurrence", worst <= 1e-8, f"worst residual {worst:.2e}")


def check_gram_psd(inject_gram: np.ndarray | None = None) -> CheckResult:
    """PSD of random Gram matrices; inject_gram substitutes a matrix (test hook)."""
    rng = np.random.default_rng(11)
    worst = 0.0
    cases = []
    if inject_gram is not None:
        cases.append(np.asarray(inject_gram, dtype=float))
    else:
        for _ in range(10):
            d = int(rng.integers(1, 4))
            s = d / 2 + float(rng.uniform(0.1, d))
            n = int(rng.integers(2, 48))
            pts = rng.uniform(-1, 1, (n, d))
            cases.append(gram(KernelParams(d, s), pts))
    for K in cases:
        lam_min = float(np.linalg.eigvalsh(K)[0])
        worst = min(worst, lam_min / np.trace(K))
    return CheckResult("kernel matrices positive semi-definite", worst >= -1e-8, f"min eig/trace {worst:.2e}")


def check_diagonal_limit() -> CheckResult:
    worst = 0.0
    for d, s in ((1, 1.0), (2, 2.0), (3, 2.0)):
        params = KernelParams(d, s)
        x = np.zeros(d)
        y = np.full(d, 1e-6 / math.sqrt(d))
        gap = abs(kernel_eval(params, x, y) - diagonal_value(d, s)) / diagonal_value(d, s)
        worst = max(worst, gap)
    return CheckResult("kernel diagonal limit", worst <= 1e-6, f"worst rel gap {worst:.2e}")


def check_oracle_equivalence() -> CheckResult:
    rng = np.random.default_rng(3)
    params = KernelParams(2, 2.0)
    tau = 1.0
    fc = KaarForecaster(params, tau)
    worst = 0.0
    xs = rng.uniform(-1, 1, (64, 2))
    ys = rng.uniform(-1, 1, 64)
    for t in range(64):
        x = xs[t]
        incremental = fc.predict(x)
        pts = np.vstack([xs[:t], x[None, :]])
        K = gram(params, pts)
        ytil = np.append(ys[:t], 0.0)
        direct = float(ytil @ np.linalg.solve(K + tau * np.eye(t + 1), K[:, -1]))
        worst = max(worst, abs(incremental - direct))
        fc.update(x, ys[t])
    return CheckResult("incremental forecaster matches dense solve", worst <= 1e-8, f"max abs diff {worst:.2e}")


def check_clipping_dominance() -> CheckResult:
    rng = np.random.default_rng(5)
    params = KernelParams(1, 1.0)
    fc = KaarForecaster(params, tau=0.05, clip_m=0.5)
    ok = True
    for t in range(200):
        x = rng.uniform(-1, 1, 1)
        y = float(rng.uniform(-0.5, 0.5))
        raw = fc.predict(x)
        clipped = fc.predict_clipped(x)
        if (y - clipped) ** 2 > (y - raw) ** 2:
            ok = False
            break
        fc.update(x, y)
    return CheckResult("clipped forecast never worse", ok, "pointwise on 200 rounds")


def check_ewa_bound() -> CheckResult:
    rng = np.random.default_rng(9)
    net = build_net(beta=1.0, clip_m=1.0, epsilon=0.5)
    xs = rng.uniform(-1, 1, 400)
    ys = rng.uniform(-1, 1, 400)
    ewa_loss = 0.0
    for x, y in zip(xs, ys):
        pred = ewa_predict(net, x)
        ewa_loss += (y - pred) ** 2
        ewa_update(net, x, y)
    losses = net.S / net.eta
    best = float((_chain(net.allowed, losses[:-1], np.min) + losses[-1]).min())
    slack = net.log_n_experts / net.eta - (ewa_loss - best)
    return CheckResult("EWA aggregation bound", slack >= 0, f"bound slack {slack:.3f} (N={net.n_experts:.0f})")


def check_mollifier() -> CheckResult:
    ok = (
        abs(mollifier_g([0.0]) - 0.5) < 1e-15
        and abs(mollifier_g([0.25]) - 0.5) < 1e-15
        and mollifier_g([0.6]) == 0.0
        and mollifier_g([0.5]) == 0.0
    )
    vals = np.array([mollifier_g([x]) for x in np.linspace(-0.7, 0.7, 401)])
    ok = ok and bool(np.all(vals >= 0) and np.all(vals <= 0.5))
    return CheckResult("mollifier values and range", ok, "plateau 1/2, support radius 1/2")


def check_bump_class() -> CheckResult:
    rng = np.random.default_rng(13)
    comp = BumpComparator(n_grid=64, d=1, beta=0.5, clip_m=1.0, signs=rng.choice([-1.0, 1.0], 128))
    pts = rng.uniform(-1, 1, (20_000, 1))
    sup = float(np.abs(comp.evaluate(pts)).max())
    centers = comp.centers()
    expected = comp.signs * comp.clip_m * comp.n_grid ** (-comp.beta / comp.d) / (8.0 * comp.g_norm)
    center_err = float(np.abs(comp.evaluate(centers) - expected).max())
    ok = sup <= comp.clip_m / 4 and center_err <= 1e-12
    return CheckResult("bump class bounds and amplitude", ok, f"sup {sup:.4f} <= M/4, center err {center_err:.1e}")


def check_certificate() -> CheckResult:
    rng = np.random.default_rng(21)
    params = KernelParams(1, 1.0)
    comp = RepresenterComparator(params, centers=np.array([[-0.5], [0.4]]), coeffs=np.array([0.6, -0.4]))
    stream = iid_stream(comp, noise_sd=0.1, n=300, rng=rng, clip_m=1.0)
    tau = 300 ** (1 / 3)
    fc = KaarForecaster(params, tau, clip_m=1.0)
    loss = comp_loss = 0.0
    fvals = comp.evaluate(stream.xs)
    for t in range(300):
        yhat = fc.predict_clipped(stream.xs[t])
        loss += (stream.ys[t] - yhat) ** 2
        comp_loss += (stream.ys[t] - fvals[t]) ** 2
        fc.update(stream.xs[t], stream.ys[t])
    d_eff = effective_dimension(gram(params, stream.xs), tau).value
    bound = regret_certificate(fc, comp.norm_sq, 300, d_eff)
    regret = loss - comp_loss
    return CheckResult("regret certificate holds", regret <= bound, f"regret {regret:.2f} <= bound {bound:.2f}")


ALL_CHECKS = [
    check_bessel_closed_forms,
    check_bessel_reference,
    check_bessel_recurrence,
    check_gram_psd,
    check_diagonal_limit,
    check_oracle_equivalence,
    check_clipping_dominance,
    check_ewa_bound,
    check_mollifier,
    check_bump_class,
    check_certificate,
]


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
