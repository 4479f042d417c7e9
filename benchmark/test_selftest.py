"""Fast self-test of the benchmark:  python3 -m pytest -q benchmark

It runs every workload end to end at a tiny size, traced and untraced,
checks the output contract against BENCHMARK.json, and shows that each
independent check rejects a corrupted output.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_meets_the_output_contract(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- each check rejects a corrupted output -------------------------------------

def failed_checks(workload, output) -> set[str]:
    return {c.name for c in workload.check(output) if not c.ok}


def play(cls, tmp_path_factory):
    workload = cls(seed=5, tiny=True)
    workload.prepare()
    output = workload.op(0, tmp_path_factory.mktemp(cls.name))
    assert failed_checks(workload, output) == set()
    return workload, output


@pytest.fixture(scope="module")
def game(tmp_path_factory):
    return play(wl.GameD1Certified, tmp_path_factory)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return play(wl.BenchD2Hard, tmp_path_factory)


@pytest.fixture(scope="module")
def compare(tmp_path_factory):
    return play(wl.CompareEwaFine, tmp_path_factory)


def corrupt_game(output, edit):
    bad = copy.deepcopy(output)
    edit(bad)
    return bad


def _nudge_last_forecast(o):
    o.trace.raw_yhats[-1] += 1e-6
    o.trace.yhats[-1] = min(max(-1.0, o.trace.raw_yhats[-1]), 1.0)


def _unclip(o):
    o.trace.yhats[3] = o.trace.raw_yhats[3] + 0.5


def _lose_everything(o):
    o.trace.yhats[:] = -o.trace.ys
    o.trace.raw_yhats[:] = -o.trace.ys


@pytest.mark.parametrize("edit, rejected_by", [
    (_nudge_last_forecast, "dense-oracle"),
    (_unclip, "clipping"),
    (lambda o: o.trace.cum_losses.__setitem__(-1, o.trace.cum_losses[-1] + 1e-6), "kahan-loss"),
    (lambda o: o.trace.cum_losses.__setitem__(-1, o.trace.cum_losses[-1] + 1e-6), "regret"),
    (lambda o: setattr(o.trace, "tau", o.trace.tau * (1 + 1e-9)), "schedule"),
    (lambda o: o.trace.comparator_cum["representer"].__setitem__(-1, 0.0), "kahan-comparator"),
    (lambda o: o.trace.xs.__setitem__((0, 0), o.trace.xs[0, 0] + 1e-9), "stream"),
    (_lose_everything, "kaar-bound"),
    (lambda o: setattr(o, "d_eff", o.d_eff * (1 + 1e-8)), "effective-dimension"),
    (lambda o: setattr(o, "certificate", o.certificate * 1.001), "certificate"),
])
def test_game_checks_reject_corruption(game, edit, rejected_by):
    workload, output = game
    assert rejected_by in failed_checks(workload, corrupt_game(output, edit))


def corrupt_csv(out: wl.CliRun, name: str, edit, tmp_path: Path) -> wl.CliRun:
    bad_dir = tmp_path / "corrupt"
    shutil.copytree(out.out_dir, bad_dir)
    table = wl.read_csv(bad_dir / name)
    edit(table)
    header = list(table)
    rows = np.column_stack([table[k] for k in header])
    with open(bad_dir / name, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return wl.CliRun(out.seeds, bad_dir, out.horizon)


def _nudge(column, k, delta):
    def edit(table):
        table[column][k] += delta
    return edit


@pytest.mark.parametrize("target, edit, rejected_by", [
    ("trace", _nudge("yhat", -1, 1e-6), "dense-oracle"),
    ("trace", _nudge("cum_loss", -1, 1e-6), "kahan-loss"),
    ("trace", lambda t: t["yhat"].__setitem__(5, 1.5), "forecast-range"),
    ("trace", _nudge("regret_bump", 7, 1e-6), "comparator-loss"),
    ("trace", lambda t: t["y"].__setitem__(0, 0.5), "trace-rows"),
    ("summary", _nudge("regret", 0, 1e-6), "summary-regret"),
])
def test_bench_checks_reject_corruption(bench, tmp_path, target, edit, rejected_by):
    workload, output = bench
    name = f"hard-d2_seed{output.seeds[0]}.csv" if target == "trace" else "hard-d2_summary.csv"
    assert rejected_by in failed_checks(workload, corrupt_csv(output, name, edit, tmp_path))


def test_compare_checks_reject_corruption(compare, tmp_path):
    workload, output = compare
    m, _, adjacent = ck.expert_net(workload.epsilon, 1.0, 1.0)
    slack = 8.0 * math.log(ck.net_size(m, adjacent))
    above = corrupt_csv(output, "ewa-compare_compare.csv", _nudge("regret_ewa", -1, slack + 1.0), tmp_path)
    assert failed_checks(workload, above) == {"aggregation-bound"}
    kaar_dir = tmp_path / "kaar"
    kaar_dir.mkdir()
    above = corrupt_csv(output, "ewa-compare_compare.csv", _nudge("regret_kaar", -1, 1e3), kaar_dir)
    assert failed_checks(workload, above) == {"kaar-bound"}
    rows_dir = tmp_path / "rows"
    rows_dir.mkdir()
    moved = corrupt_csv(output, "ewa-compare_compare.csv", lambda t: t["t"].__setitem__(1, 3.0), rows_dir)
    assert "checkpoint-rows" in failed_checks(workload, moved)


def test_expert_net_size_matches_enumeration():
    m, grid, adjacent = ck.expert_net(0.5, 1.0, 1.0)
    paths = [[i] for i in range(len(grid))]
    for _ in range(m - 1):
        paths = [p + [j] for p in paths for j in range(len(grid)) if adjacent[p[-1], j]]
    assert ck.net_size(m, adjacent) == len(paths)
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    cells = np.clip(np.floor((xs + 1) / 2 * m).astype(int), 0, m - 1)
    brute = min(math.fsum((ys - grid[np.asarray(p)][cells]) ** 2) for p in paths)
    assert math.isclose(ck.best_expert_loss(xs, ys, m, grid, adjacent), brute, rel_tol=1e-12)
