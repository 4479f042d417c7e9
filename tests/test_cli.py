"""CLI: subcommands, exit codes, output files, failure cleanup."""

import numpy as np
import pytest

from kaarbench.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

SMALL = """
[experiment]
name = clismoke
horizon = 64
seeds = 0,1
checkpoints = pow2
threads = 1

[kernel]
d = 1
regime = smooth
beta = 1.0

[forecaster]
id = kaar_clipped
clip_m = 1.0

[adversary]
id = iid
noise_sd = 0.1
comparator = representer
centers = 3
norm = 0.65
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_config_is_usage_error():
    assert main(["bench"]) == EXIT_USAGE


def test_nonexistent_config_is_config_error(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nhorizon = banana\n")
    assert main(["bench", "--config", str(bad)]) == EXIT_CONFIG


def test_bench_small(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bench", "--config", str(config_file), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "clismoke_summary.csv").is_file()
    assert (out / "clismoke_seed0.csv").is_file()
    assert (out / "clismoke_seed1.csv").is_file()
    assert (out / "clismoke_regret.dat").is_file()
    printed = capsys.readouterr().out
    assert "0.3333" in printed  # theory target for d=1, beta=1


def test_bench_resolved_config_round_trips(config_file, tmp_path):
    from kaarbench.configio import parse_config, write_config

    out = tmp_path / "out"
    assert main(["bench", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
    path = out / "clismoke.resolved.cfg"
    resolved = parse_config(path)
    assert resolved.name == "clismoke"
    assert resolved.out_dir == str(out)
    # writing the parsed config back reproduces the file byte for byte
    assert write_config(resolved) == path.read_text()


def test_bench_horizon_one_skips_fit(config_file, tmp_path, capsys):
    out = tmp_path / "out1"
    code = main([
        "bench", "--config", str(config_file), "--out", str(out),
        "--override", "experiment.horizon=1", "--override", "experiment.checkpoints=1",
    ])
    assert code == EXIT_OK
    assert "fit skipped" in capsys.readouterr().out


def test_bench_single_seed_flag(config_file, tmp_path):
    out = tmp_path / "out2"
    assert main(["bench", "--config", str(config_file), "--out", str(out), "--seed", "7"]) == EXIT_OK
    assert (out / "clismoke_seed7.csv").is_file()


@pytest.mark.parametrize("command,threads", [("bench", "1"), ("compare", "1"), ("bench", "2"), ("compare", "2")])
def test_numerical_failure_tombstones(config_file, tmp_path, command, threads):
    # with two threads the failure is raised in a worker process
    out = tmp_path / "outfail"
    code = main([
        command, "--config", str(config_file), "--out", str(out), "--threads", threads,
        "--override", "adversary.norm=nan",
    ])
    assert code == EXIT_NUMERICAL
    assert (out / "FAILED.txt").is_file()
    leftovers = [p for p in out.iterdir() if p.name != "FAILED.txt"]
    assert leftovers == []


@pytest.mark.parametrize("override", ["adversary.noise_sd=-1", "forecaster.clip_m=0", "adversary.centers=0"])
def test_out_of_range_value_is_config_error_before_any_write(config_file, tmp_path, override):
    out = tmp_path / "bad"
    code = main(["bench", "--config", str(config_file), "--out", str(out), "--override", override])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_value_error_during_bench_writes_nothing(config_file, tmp_path, monkeypatch):
    # a ValueError after validation, from inside the computation
    from kaarbench import harness

    def failing_game(config, seed=None):
        raise ValueError("bad value inside the game")

    monkeypatch.setattr(harness, "run_game", failing_game)
    out = tmp_path / "late"
    code = main(["bench", "--config", str(config_file), "--out", str(out), "--threads", "1"])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_bench_large_order_kernel_completes(config_file, tmp_path):
    # the game whose kernel's Bessel factor alone would overflow at round 507
    out = tmp_path / "large_order"
    code = main([
        "bench", "--config", str(config_file), "--out", str(out), "--seed", "0",
        "--override", "kernel.regime=manual", "--override", "kernel.s=40.5",
        "--override", "kernel.tau=1", "--override", "experiment.horizon=512",
    ])
    assert code == EXIT_OK
    assert not (out / "FAILED.txt").exists()


def test_bench_order_past_limit_gap_is_config_error(config_file, tmp_path):
    out = tmp_path / "past_limit"
    code = main([
        "bench", "--config", str(config_file), "--out", str(out), "--seed", "0",
        "--override", "kernel.regime=manual", "--override", "kernel.s=60.5",
        "--override", "kernel.tau=1",
    ])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_effdim_small(config_file, tmp_path, capsys):
    out = tmp_path / "eff"
    code = main([
        "effdim", "--config", str(config_file), "--out", str(out),
        "--ns", "16,32,64,128", "--tau", "1.0",
    ])
    assert code == EXIT_OK
    csv = out / "clismoke_effdim_equispaced.csv"
    assert csv.is_file()
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,tau,d_eff,lambda_max,lambda_min"
    assert len(lines) == 5
    printed = capsys.readouterr().out
    assert "0.5000" in printed  # d/(2s) target for d=1, s=1


def test_effdim_single_n_skips_slope(config_file, tmp_path, capsys):
    out = tmp_path / "eff1"
    code = main(["effdim", "--config", str(config_file), "--out", str(out), "--ns", "32"])
    assert code == EXIT_OK
    assert "slope skipped" in capsys.readouterr().out


def test_verify_passes_on_fresh_checkout(capsys):
    assert main(["verify"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed


def test_verify_detects_corrupted_gram():
    # test hook: inject a non-PSD matrix into the PSD check
    from kaarbench.verify import check_gram_psd

    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    result = check_gram_psd(inject_gram=bad)
    assert not result.passed


def test_compare_small(config_file, tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--config", str(config_file), "--out", str(out),
        "--override", "ewa.epsilon=0.5",
    ])
    assert code == EXIT_OK
    csv = out / "clismoke_compare.csv"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "seed,t,regret_kaar,regret_ewa"
    assert (out / "clismoke_kaar.dat").is_file()
    assert (out / "clismoke_ewa.dat").is_file()
    # byte-identical rerun, and again with the seeds across two workers
    first = csv.read_bytes()
    assert main([
        "compare", "--config", str(config_file), "--out", str(out),
        "--override", "ewa.epsilon=0.5",
    ]) == EXIT_OK
    assert csv.read_bytes() == first
    assert main([
        "compare", "--config", str(config_file), "--out", str(out), "--threads", "2",
        "--override", "ewa.epsilon=0.5",
    ]) == EXIT_OK
    assert csv.read_bytes() == first


def test_compare_files_golden_text(config_file, tmp_path, monkeypatch):
    # every byte of the compare CSV and its two curves on fixed per-seed rows
    from kaarbench import cli

    fixed = {0: [(1, 0.1, -0.5), (2, 1.0, 2.0)], 1: [(1, 0.2, 0.25), (2, -1.0, 1 / 3)]}
    monkeypatch.setattr(cli, "compare_seed", lambda config, seed: fixed[seed])
    out = tmp_path / "gold"
    assert main(["compare", "--config", str(config_file), "--out", str(out), "--threads", "1"]) == EXIT_OK
    assert (out / "clismoke_compare.csv").read_text() == (
        "seed,t,regret_kaar,regret_ewa\n"
        "0,1,0.10000000000000001,-0.5\n0,2,1,2\n"
        "1,1,0.20000000000000001,0.25\n1,2,-1,0.33333333333333331\n"
    )
    assert (out / "clismoke_kaar.dat").read_text() == "1 0.15000000000000002\n2 0\n"
    assert (out / "clismoke_ewa.dat").read_text() == "1 -0.125\n2 1.1666666666666667\n"


def test_compare_fine_net(config_file, tmp_path):
    # 3.4e5 experts at epsilon = 0.25: the net is a chain, never listed
    out = tmp_path / "fine"
    code = main([
        "compare", "--config", str(config_file), "--out", str(out),
        "--override", "ewa.epsilon=0.25",
    ])
    assert code == EXIT_OK
    lines = (out / "clismoke_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,t,regret_kaar,regret_ewa"
    assert len(lines) > 1


def test_compare_rejects_d2(config_file, tmp_path):
    code = main([
        "compare", "--config", str(config_file), "--out", str(tmp_path / "x"),
        "--override", "kernel.d=2", "--override", "kernel.beta=2.0",
        "--override", "adversary.id=shattering",
    ])
    assert code == EXIT_CONFIG


def test_bench_hard_regime_target(tmp_path, capsys):
    out = tmp_path / "hard"
    code = main([
        "bench", "--config", "hard", "--out", str(out),
        "--override", "experiment.horizon=64", "--override", "experiment.seeds=0",
        "--override", "experiment.checkpoints=8,16,32,64", "--override", "experiment.threads=1",
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "0.6000" in printed  # 1 - (beta/d)(p - d/beta)/(p - 2) at d=2, beta=0.9, p=4


def test_bench_hard_fits_over_played_rounds(tmp_path):
    # at d = 2 the shattering stream of horizon 512 has 22^2 = 484 cubes, and
    # the family games at n = 8, 32, 128 play 4, 25 and 121 rounds
    out = tmp_path / "hard512"
    code = main([
        "bench", "--config", "hard", "--out", str(out), "--threads", "1",
        "--override", "experiment.horizon=512", "--override", "experiment.seeds=0",
    ])
    assert code == EXIT_OK
    played = np.loadtxt(out / "hard-d2_regret.dat")[:, 0]
    assert played.tolist() == [4, 16, 25, 64, 121, 256, 484]
    assert not (out / "FAILED.txt").exists()


def test_effdim_clustered_slope_not_above_equispaced(config_file, tmp_path, capsys):
    out = tmp_path / "layouts"
    slopes = {}
    for layout in ("equispaced", "clustered"):
        code = main([
            "effdim", "--config", str(config_file), "--out", str(out),
            "--layout", layout, "--ns", "64,128,256,512",
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        slopes[layout] = float(printed.split("measured slope:")[1].split()[0])
    assert slopes["clustered"] <= slopes["equispaced"] + 0.1


def test_compare_kernel_beats_ewa_at_scale(config_file, tmp_path):
    # on the smooth d=1 setup the kernel forecaster's final regret undercuts
    # the epsilon-net baseline once the horizon is past a few hundred rounds
    out = tmp_path / "beats"
    code = main([
        "compare", "--config", str(config_file), "--out", str(out),
        "--override", "experiment.horizon=1024", "--override", "experiment.seeds=0,1,2",
        "--override", "ewa.epsilon=0.5",
    ])
    assert code == EXIT_OK
    kaar_curve = (out / "clismoke_kaar.dat").read_text().strip().splitlines()
    ewa_curve = (out / "clismoke_ewa.dat").read_text().strip().splitlines()
    kaar_final = float(kaar_curve[-1].split()[1])
    ewa_final = float(ewa_curve[-1].split()[1])
    assert kaar_final < ewa_final


def test_net_info(config_file, capsys):
    code = main(["net-info", "--config", str(config_file), "--override", "ewa.epsilon=0.5"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "cardinality" in printed and "epsilon*" in printed


@pytest.mark.parametrize("command", ["compare", "net-info"])
def test_ewa_beta_outside_unit_interval_is_config_error(config_file, tmp_path, command):
    code = main([
        command, "--config", str(config_file), "--out", str(tmp_path / "b0"),
        "--override", "ewa.beta=0",
    ])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "b0").exists()


def test_net_info_log_cardinality_past_float_range(capsys):
    # beta = 0.5 at epsilon* = 1/16: 1,024 cells, more paths than a float holds
    assert main(["net-info", "--config", "holder"]) == EXIT_OK
    line = next(ln for ln in capsys.readouterr().out.splitlines() if "cardinality" in ln)
    log_n = float(line.split("(log:")[1].rstrip(")"))
    assert np.isfinite(log_n) and log_n > 709.0
    assert "cardinality: inf" in line


def test_packaged_presets_parse():
    from kaarbench.cli import _load_config

    for preset in ("smooth", "hard", "holder", "ewa-compare", "effdim-grid"):
        cfg = _load_config(preset)
        cfg.validate()
