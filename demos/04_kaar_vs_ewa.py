#!/usr/bin/env python3
"""Kernel forecaster vs the epsilon-net EWA baseline on identical streams.

The EWA baseline discretizes the Holder(beta, M) ball into piecewise-constant
experts and aggregates them with exponential weights; its regret splits as
n * epsilon + ln(N) / eta and the net size N is exponential in
(1/epsilon)^(1/beta), which is exactly why the kernel route wins at scale.
Writes compare_kaar.dat / compare_ewa.dat (checkpoint vs mean regret).
"""

import numpy as np
from dataclasses import replace

from kaarbench import ExperimentConfig, balanced_epsilon, net_cardinality, run_game
from kaarbench.harness import write_plot_data

base = ExperimentConfig(
    name="demo-compare", horizon=1024, seeds=(0, 1, 2), d=1, regime="smooth", beta=1.0,
    forecaster="kaar_clipped", clip_m=1.0, adversary="iid", noise_sd=0.1,
    comparator="representer", comparator_centers=5, comparator_norm=0.65,
    ewa_epsilon=0.5, ewa_beta=1.0,
)

eps_star = balanced_epsilon(base.horizon, 1.0)
print(f"net scale in use: epsilon = {base.ewa_epsilon} "
      f"(entropy-balancing scale would be epsilon* = {eps_star:.4f}, "
      f"N = {net_cardinality(1.0, 1.0, eps_star):.3g} experts)")
print(f"net at epsilon = {base.ewa_epsilon}: N = {net_cardinality(1.0, 1.0, base.ewa_epsilon):.0f} experts, "
      "aggregated as a chain over its cells (never listed)\n")

curves = {"kaar": [], "ewa": []}
cps = None
for forecaster in ("kaar_clipped", "ewa"):
    for seed in base.seeds:
        trace = run_game(replace(base, forecaster=forecaster), seed)
        cps = trace.checkpoints
        curves["kaar" if forecaster.startswith("kaar") else "ewa"].append(
            [trace.regret_at("representer", c) for c in cps]
        )

mean_kaar = np.mean(curves["kaar"], axis=0)
mean_ewa = np.mean(curves["ewa"], axis=0)
print(f"{'checkpoint':>10} {'kernel':>10} {'ewa':>10}")
for c, rk, re in zip(cps, mean_kaar, mean_ewa):
    print(f"{c:>10} {rk:>10.3f} {re:>10.3f}")

write_plot_data("compare_kaar.dat", cps, mean_kaar)
write_plot_data("compare_ewa.dat", cps, mean_ewa)
print(f"\nfinal mean regret: kernel {mean_kaar[-1]:.3f} vs EWA {mean_ewa[-1]:.3f}")
print("wrote compare_kaar.dat compare_ewa.dat")
