#!/usr/bin/env python3
"""Effective dimension d_eff(tau) = Tr((K + tau I)^{-1} K) and its scaling law.

For the smoothness-s kernel on well-spread points the theory predicts
d_eff grows like (n/tau)^{d/2s}.  This script sweeps n at fixed tau on
equispaced grids for s = 1 and s = 2 and fits the exponent; it also shows
the monotone dependence on tau.  Writes effdim_s1.dat / effdim_s2.dat.
"""

import numpy as np

from kaarbench import KernelParams, effective_dimension, gram, scaling_fit
from kaarbench.effdim import spectrum
from kaarbench.harness import write_effdim_csv, write_plot_data

print("== effective dimension of equispaced grids ==\n")

for s in (1.0, 2.0):
    params = KernelParams(1, s)
    reports, spectra = [], []
    for n in (64, 128, 256, 512, 1024, 2048):
        K = gram(params, np.linspace(-1.0, 1.0, n)[:, None])
        # d_eff comes from a Cholesky factor; the lambda columns need the spectrum
        reports.append(effective_dimension(K, tau=1.0))
        spectra.append(spectrum(K))
    slope, r2 = scaling_fit(reports)
    target = 1.0 / (2.0 * s)
    print(f"s={s}: d_eff at n=2048 is {reports[-1].value:7.2f};"
          f" fitted exponent {slope:.3f} vs theoretical d/(2s) = {target}")
    write_plot_data(f"effdim_s{int(s)}.dat", [rep.n for rep in reports], [rep.value for rep in reports])
    write_effdim_csv(reports, spectra, f"effdim_s{int(s)}.csv")

print("\nwrote effdim_s1.dat effdim_s2.dat (n vs d_eff, log-log friendly)")

# tau controls the resolution scale: larger tau, smaller dimension
params = KernelParams(1, 1.0)
K = gram(params, np.linspace(-1, 1, 512)[:, None])
print("\ntau sweep at n=512, s=1:")
for tau in (0.01, 0.1, 1.0, 10.0, 100.0):
    print(f"  tau={tau:7.2f}: d_eff = {effective_dimension(K, tau).value:8.3f}")
print("(decreasing in tau; tends to the rank as tau -> 0 and to 0 as tau -> inf)")
