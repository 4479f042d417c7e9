"""Game loop protocol, regret accounting, exponent fits, persistence."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from kaarbench.ewa import balanced_epsilon
from kaarbench.harness import (
    ExperimentConfig,
    GameFailure,
    GameTrace,
    _OrderGuard,
    default_checkpoints,
    estimate_exponent,
    kahan_cumsum,
    map_seeds,
    point_layout,
    run_game,
    run_horizon_family,
    write_effdim_csv,
    write_gram_csv,
    write_plot_data,
    write_stream_csv,
    write_summary_csv,
    write_trace_csv,
)


def small_config(**kw):
    base = dict(
        name="t", horizon=128, seeds=(0,), d=1, regime="smooth", beta=1.0,
        forecaster="kaar_clipped", clip_m=1.0, adversary="iid", noise_sd=0.1,
        comparator="representer", comparator_norm=0.65,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_zero_forecaster_vs_zero_comparator_zero_regret():
    cfg = small_config(forecaster="zero", comparator="zero", noise_sd=0.3)
    trace = run_game(cfg, 0)
    assert np.allclose(trace.regret("zero"), 0.0, atol=1e-12)


def test_oracle_forecaster_zero_regret(monkeypatch):
    # a forecaster that predicts f(x_t) has regret exactly 0 against f
    from kaarbench import harness

    cfg = small_config(noise_sd=0.2, forecaster="zero")

    class Oracle:
        def __init__(self):
            self.f = None

        def predict(self, x):
            return float(self.f.evaluate(np.atleast_2d(x))[0])

        def update(self, x, y):
            pass

    oracle = Oracle()
    orig_stream = harness.make_stream

    def capture_stream(config, params, seed):
        stream = orig_stream(config, params, seed)
        oracle.f = stream.comparator
        return stream

    monkeypatch.setattr(harness, "make_stream", capture_stream)
    monkeypatch.setattr(harness, "make_forecaster", lambda *a, **k: oracle)
    trace = run_game(cfg, 0)
    assert np.allclose(trace.regret("representer"), 0.0, atol=1e-12)


def test_losses_are_squared_errors():
    trace = run_game(small_config(), 0)
    assert np.allclose(trace.losses, (trace.ys - trace.yhats) ** 2, atol=0)


def test_regret_additivity_vs_plain_sums():
    trace = run_game(small_config(horizon=512), 0)
    plain = np.cumsum(trace.losses) - np.cumsum(trace.ys**2)
    assert np.abs(trace.regret("zero") - plain).max() <= 1e-9


def test_replay_determinism():
    cfg = small_config(horizon=200, noise_sd=0.2)
    a = run_game(cfg, 3)
    b = run_game(cfg, 3)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.yhats, b.yhats)
    assert np.array_equal(a.cum_losses, b.cum_losses)


def test_clipped_trace_records_raw_predictions():
    trace = run_game(small_config(forecaster="kaar_clipped"), 0)
    assert trace.raw_yhats is not None
    assert np.all(np.abs(trace.yhats) <= 1.0)
    assert np.allclose(trace.yhats, np.clip(trace.raw_yhats, -1.0, 1.0))


def test_shattering_game_runs_to_cube_count():
    cfg = small_config(adversary="shattering", horizon=128, n_grid=64)
    trace = run_game(cfg, 0)
    assert trace.n == 128
    assert "bump" in trace.comparator_cum


def test_checkpoints_default_powers_of_two():
    assert default_checkpoints(8) == (1, 2, 4, 8)
    assert default_checkpoints(10) == (1, 2, 4, 8, 10)
    trace = run_game(small_config(horizon=100), 0)
    assert trace.checkpoints == (1, 2, 4, 8, 16, 32, 64, 100)


def test_explicit_checkpoints_validated():
    with pytest.raises(ValueError):
        small_config(checkpoints=(1, 500)).validate()


def test_config_validation_catches_unknown_ids():
    with pytest.raises(ValueError):
        small_config(forecaster="oracle").validate()
    with pytest.raises(ValueError):
        small_config(adversary="martian").validate()
    with pytest.raises(ValueError):
        small_config(forecaster="ewa", d=2).validate()


def test_game_failure_carries_round_index():
    # a nan comparator scale poisons the labels; the forecaster rejects the
    # first non-finite one and the harness wraps it with the round index
    cfg = small_config(comparator_norm=float("nan"))
    with pytest.raises(GameFailure) as exc_info:
        run_game(cfg, 0)
    assert exc_info.value.round_index >= 1


def test_game_failure_survives_pickling():
    # a failure raised in a worker process reaches the parent intact
    again = pickle.loads(pickle.dumps(GameFailure("game 'g' seed 0 failed at round 3: x", 3)))
    assert isinstance(again, GameFailure)
    assert str(again) == "game 'g' seed 0 failed at round 3: x"
    assert again.round_index == 3


def test_config_comparator_id_and_ewa_scale():
    assert small_config().comparator_id == "representer"
    assert small_config(comparator="zero").comparator_id == "zero"
    assert small_config(adversary="shattering", comparator="zero").comparator_id == "bump"
    cfg = small_config(beta=1.5, horizon=256)
    assert cfg.ewa_scale() == (1.0, balanced_epsilon(256, 1.0))
    assert replace(cfg, ewa_beta=0.5, ewa_epsilon=0.3).ewa_scale() == (0.5, 0.3)
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            replace(cfg, ewa_beta=bad).validate()


def test_large_order_game_plays_every_round():
    # at s = 40.5 this stream first brings two inputs 2.4e-7 apart together
    # at round 507, where K_nu alone would overflow; the kernel stays finite
    from kaarbench.kaar import KaarForecaster
    from kaarbench.kernel import KernelParams

    cfg = small_config(regime="manual", s=40.5, tau=1.0, horizon=512)
    trace = run_game(cfg, 0)
    assert trace.n == 512
    assert np.all(np.isfinite(trace.raw_yhats))
    fc = KaarForecaster(KernelParams(1, 40.5), 1.0)
    worst = 0.0
    for x, y, yhat in zip(trace.xs, trace.ys, trace.raw_yhats):
        worst = max(worst, abs(fc.predict(x) - yhat))
        fc.update(x, y)
    assert worst <= 1e-12


@pytest.mark.parametrize("d,beta", [(1, 1.0), (2, 1.5), (3, 2.0)])
@pytest.mark.parametrize("adversary", ["iid", "shattering"])
def test_replayed_game_matches_online_forecaster(d, beta, adversary):
    # horizon 300 plays 300, 289 or 216 rounds: never a multiple of the panel width
    from kaarbench.kaar import KaarForecaster, PANEL_WIDTH
    from kaarbench.kernel import KernelParams

    cfg = small_config(d=d, beta=beta, adversary=adversary, horizon=300, forecaster="kaar")
    trace = run_game(cfg, 3)
    assert trace.n % PANEL_WIDTH != 0
    fc = KaarForecaster(KernelParams(d, trace.s), trace.tau)
    worst = 0.0
    for x, y, yhat in zip(trace.xs, trace.ys, trace.yhats):
        worst = max(worst, abs(fc.predict(x) - yhat))
        fc.update(x, y)
    assert worst <= 1e-12


def test_replay_breakdown_carries_dpotrf_round(monkeypatch):
    # a kernel of 4 on equal inputs and 0 elsewhere, tau far below its
    # roundoff: round 200 repeats the input of round 38, and the factor's
    # pivot there is exactly 0, in the second panel of 128 columns
    from kaarbench import harness, kaar
    from kaarbench.adversary import Stream, ZeroComparator

    xs = np.linspace(-1, 1, 256)[:, None]
    xs[199] = xs[37]
    stream = Stream(xs=xs, ys=np.zeros(256), comparator=ZeroComparator(dim=1))
    monkeypatch.setattr(harness, "make_stream", lambda *a, **k: stream)
    monkeypatch.setattr(kaar, "kernel_block", lambda params, a, b, out: np.multiply(4.0, a == b.T, out=out))
    cfg = small_config(regime="manual", s=1.0, tau=2.0**-60, horizon=256, comparator="zero")
    with pytest.raises(GameFailure) as exc_info:
        run_game(cfg, 0)
    assert exc_info.value.round_index == 200
    assert exc_info.value.__cause__.round_index == 200


def test_replay_records_log_det_and_min_pivot():
    from kaarbench.kernel import KernelParams, gram

    cfg = small_config(horizon=300, checkpoints=(1, 7, 128, 129, 300))
    trace = run_game(cfg, 5)
    K = gram(KernelParams(1, trace.s), trace.xs)
    for t, got in zip(trace.checkpoints, trace.log_det):
        sign, want = np.linalg.slogdet(np.eye(t) + K[:t, :t] / trace.tau)
        assert sign == 1.0 and got == pytest.approx(want, rel=1e-9)
    L = np.linalg.cholesky(K + trace.tau * np.eye(trace.n))
    assert trace.min_pivot == pytest.approx(float(np.min(np.diag(L) ** 2)), rel=1e-9)
    assert trace.min_pivot >= trace.tau * (1.0 - 1e-9)
    ewa = run_game(small_config(horizon=16, forecaster="ewa"), 5)
    assert ewa.log_det is None and ewa.min_pivot is None


def _blas_threads(config, seed):
    """Thread count of each OpenBLAS bundled with numpy and scipy, as a worker sees it."""
    import ctypes

    from kaarbench.harness import _bundled_openblas

    counts = []
    for lib in _bundled_openblas():
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def test_map_seeds_workers_run_one_blas_thread():
    if (os.cpu_count() or 1) == 1:
        pytest.skip("one core: the library default is already one BLAS thread")
    if any(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        pytest.skip("BLAS threads set by the environment")
    parent = _blas_threads(None, None)
    if not parent:
        pytest.skip("no bundled OpenBLAS to query")
    assert all(c > 1 for c in parent)  # this process keeps the library default
    counts = map_seeds(_blas_threads, small_config(seeds=(0, 1), threads=2))
    assert all(c == [1] * len(parent) for c in counts.values())


def test_order_guard_blocks_label_leakage_patterns():
    class Dummy:
        def predict(self, x):
            return 0.0

        def update(self, x, y):
            pass

    guard = _OrderGuard(Dummy())
    with pytest.raises(RuntimeError):
        guard.update([0.0], 1.0)  # update before any prediction
    guard.predict([0.0])
    guard.update([0.0], 1.0)
    guard.predict([0.1])
    with pytest.raises(RuntimeError):
        guard.predict([0.2])  # second prediction without an update


def test_map_seeds_serial_and_parallel_agree():
    cfg = small_config(horizon=64, seeds=(0, 1, 2))
    serial = map_seeds(run_game, cfg)
    parallel = map_seeds(run_game, ExperimentConfig(**{**cfg.__dict__, "threads": 2}))
    for seed in cfg.seeds:
        assert np.array_equal(serial[seed].yhats, parallel[seed].yhats)


def test_run_horizon_family_reschedules_tau():
    cfg = small_config(horizon=64)
    played, regs = run_horizon_family(cfg, (8, 16, 32), 0)
    assert played.tolist() == [8, 16, 32]
    assert regs.shape == (3,)
    t8 = run_game(ExperimentConfig(**{**cfg.__dict__, "horizon": 8}), 0)
    assert t8.tau == pytest.approx(8.0 ** (1.0 / 3.0))


def test_run_horizon_family_reports_rounds_played():
    # at d = 2 the shattering stream of horizon 8 has 2^2 cubes and that of
    # horizon 32 has 5^2; a game played at the horizon stands in for its member
    cfg = small_config(d=2, regime="hard", beta=0.9, p=4, adversary="shattering", horizon=32)
    full = run_game(cfg, 0)
    played, regs = run_horizon_family(cfg, (8, 32), 0, full=full)
    assert played.tolist() == [4, 25]
    assert regs[-1] == full.final_regret("bump")


def test_domain_warning_for_out_of_box_inputs():
    # representer centers inside the box, but a stream wider than the box warns
    from kaarbench.adversary import Stream, ZeroComparator
    from kaarbench import harness

    cfg = small_config()
    stream = Stream(xs=np.array([[1.5]]), ys=np.array([0.0]), comparator=ZeroComparator(dim=1))
    orig = harness.make_stream
    harness.make_stream = lambda *a, **k: stream
    try:
        with pytest.warns(UserWarning):
            run_game(ExperimentConfig(**{**cfg.__dict__, "horizon": 1}), 0)
    finally:
        harness.make_stream = orig


# -- kahan / exponent fits ------------------------------------------------


def test_kahan_cumsum_matches_fsum():
    import math

    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, 10_000) * 1e-3
    ks = kahan_cumsum(vals)
    assert ks[-1] == pytest.approx(math.fsum(vals), abs=1e-12)


def test_estimate_exponent_exact_power_law():
    ns = np.array([16, 32, 64, 128, 256])
    fit = estimate_exponent(ns, ns**0.4)
    assert fit.slope == pytest.approx(0.4, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.flagged


def test_estimate_exponent_constant():
    fit = estimate_exponent([16, 32, 64, 128], [7.0, 7.0, 7.0, 7.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_estimate_exponent_floors_nonpositive():
    fit = estimate_exponent([16, 32, 64, 128], [1.0, -2.0, 3.0, 4.0])
    assert fit.flagged and not fit.all_nonpositive
    all_bad = estimate_exponent([16, 32, 64, 128], [-1.0, -1.0, -1.0, -1.0])
    assert all_bad.all_nonpositive


def test_estimate_exponent_needs_four_checkpoints():
    with pytest.raises(ValueError):
        estimate_exponent([16, 32, 64], [1.0, 2.0, 3.0])


# -- layouts / persistence -------------------------------------------------


def test_point_layouts():
    eq = point_layout("equispaced", 16, 1)
    assert eq.shape == (16, 1) and eq[0, 0] == -1.0 and eq[-1, 0] == 1.0
    un = point_layout("uniform", 20, 2, rng=0)
    assert un.shape == (20, 2) and np.all(np.abs(un) <= 1)
    cl = point_layout("clustered", 30, 1, rng=0)
    assert cl.shape == (30, 1) and np.all(np.abs(cl) <= 1)
    with pytest.raises(ValueError):
        point_layout("spiral", 10, 1)


def test_trace_csv_format(tmp_path):
    trace = run_game(small_config(horizon=16), 0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,y,yhat,loss,cum_loss,regret_representer,regret_zero"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[3]) == pytest.approx((float(first[1]) - float(first[2])) ** 2)


def test_summary_and_plot_files(tmp_path):
    rows = [{"seed": 0, "n": 16, "regret": 1.5, "slope": 0.3}, {"seed": 1, "n": 16, "regret": 2.0, "slope": None}]
    p = tmp_path / "summary.csv"
    write_summary_csv(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "seed,n,regret,slope"
    assert lines[2].endswith(",")  # missing slope stays empty
    dat = tmp_path / "curve.dat"
    write_plot_data(dat, [1, 2], [0.5, 0.25])
    assert dat.read_text().splitlines()[0] == "1 0.5"


def test_gram_and_stream_csv(tmp_path):
    from kaarbench.adversary import ZeroComparator, iid_stream

    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    gpath = tmp_path / "gram.csv"
    write_gram_csv(K, gpath)
    lines = gpath.read_text().strip().splitlines()
    assert lines[0] == "i,j,value"
    assert lines[1] == "0,0,1"
    assert len(lines) == 5

    stream = iid_stream(ZeroComparator(dim=2), 0.1, 3, np.random.default_rng(0))
    spath = tmp_path / "stream.csv"
    write_stream_csv(stream, spath)
    lines = spath.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,y"
    assert len(lines) == 4


def test_writers_golden_text(tmp_path):
    # every byte of each writer on a tiny fixed input: 17 significant digits,
    # ints as ints, an unset slope as an empty field, spaces in .dat files
    from kaarbench.adversary import Stream, ZeroComparator
    from kaarbench.effdim import EffDimReport

    trace = GameTrace(
        seed=0, n=2, s=1.0, tau=1.0, xs=np.array([[0.5], [-0.25]]), ys=np.array([0.1, -1.0]),
        yhats=np.array([0.0, 0.3]), losses=np.array([0.01, 1.69]), cum_losses=np.array([0.01, 1.7]),
        comparator_cum={"zero": np.array([0.01, 1.01]), "representer": np.array([0.0, 0.5])},
        checkpoints=(1, 2),
    )
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_summary_csv(
        [{"seed": 0, "n": 16, "regret": 1.5, "slope": 0.1}, {"seed": 1, "n": 16, "regret": -2.0, "slope": None}],
        tmp_path / "summary.csv",
    )
    write_plot_data(tmp_path / "curve.dat", [1, 2, 4], [0.5, 1 / 3, 2])
    write_gram_csv(np.array([[1.0, 0.1], [0.1, 1.0]]), tmp_path / "gram.csv")
    stream = Stream(xs=np.array([[0.1, -0.5], [1.0, 0.2]]), ys=np.array([1.0, -0.3]), comparator=ZeroComparator(dim=2))
    write_stream_csv(stream, tmp_path / "stream.csv")
    reports = [EffDimReport(n=3, tau=0.5, value=1.2345), EffDimReport(n=64, tau=2.0, value=7.0)]
    write_effdim_csv(reports, [np.array([2.5, 0.5, 0.0]), np.array([9.0, 1e-20])], tmp_path / "effdim.csv")

    expected = {
        "trace.csv": "t,y,yhat,loss,cum_loss,regret_representer,regret_zero\n"
                     "1,0.10000000000000001,0,0.01,0.01,0.01,0\n"
                     "2,-1,0.29999999999999999,1.6899999999999999,1.7,1.2,0.68999999999999995\n",
        "summary.csv": "seed,n,regret,slope\n0,16,1.5,0.10000000000000001\n1,16,-2,\n",
        "curve.dat": "1 0.5\n2 0.33333333333333331\n4 2\n",
        "gram.csv": "i,j,value\n0,0,1\n0,1,0.10000000000000001\n1,0,0.10000000000000001\n1,1,1\n",
        "stream.csv": "t,x_1,x_2,y\n1,0.10000000000000001,-0.5,1\n2,1,0.20000000000000001,-0.29999999999999999\n",
        "effdim.csv": "n,tau,d_eff,lambda_max,lambda_min\n"
                      "3,0.5,1.2344999999999999,2.5,0\n64,2,7,9,9.9999999999999995e-21\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text, name
