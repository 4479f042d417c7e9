"""Online kernel ridge regression over Sobolev-kernel RKHSs, with an
adversarial nonparametric regression benchmark harness.

The library is organized around a small set of pieces:

* `special` / `kernel`: modified Bessel K and the Sobolev (Matern-family)
  kernel with its Gram assembly.
* `kaar`: the online forecaster with O(t^2)-per-round incremental factor
  updates, the level-3 panel Cholesky factor that replays a whole
  oblivious game in O(n^3 / 3), clipping, regularization schedules, and
  the regret certificate.
* `effdim`: effective dimension of a kernel matrix by Cholesky, and
  log-log scaling fits.
* `ewa`: the epsilon-net exponentially-weighted-average baseline (d = 1).
* `adversary`: exact-norm representer comparators, the mollifier bump
  class, and seeded data streams.
* `harness`: the reveal-predict-reveal-suffer game loop, seeds mapped
  over a process pool, regret accounting, exponent estimation, and one
  table writer behind every CSV and plot-data file.
* `cli`: the `kaarbench` command (bench, effdim, verify, compare, net-info).
  Nothing is written until a run's numbers exist; a numerical failure
  leaves only `FAILED.txt`.

All randomness flows through numpy Generators seeded with PCG64, so streams
and games are reproducible bit for bit from (config, seed).
"""

from .adversary import (
    BumpComparator,
    RepresenterComparator,
    Stream,
    ZeroComparator,
    bump_comparator,
    iid_stream,
    mollifier_g,
    mollifier_norm,
    shattering_stream,
)
from .effdim import EffDimReport, effective_dimension, scaling_fit
from .ewa import (
    EwaForecaster,
    ExpertNet,
    balanced_epsilon,
    build_net,
    ewa_predict,
    ewa_update,
    net_cardinality,
)
from .harness import (
    ExperimentConfig,
    ExponentFit,
    GameFailure,
    GameTrace,
    default_checkpoints,
    estimate_exponent,
    map_seeds,
    point_layout,
    run_game,
    run_horizon_family,
)
from .kaar import (
    KaarForecaster,
    NumericalBreakdownError,
    Schedule,
    regret_certificate,
    schedule_tau,
    target_regret_exponent,
)
from .kernel import KernelParams, diagonal_value, gram, kernel_eval, kernel_of_dist
from .special import bessel_k, gamma

__version__ = "0.1.0"

__all__ = [
    "BumpComparator",
    "EffDimReport",
    "EwaForecaster",
    "ExperimentConfig",
    "ExpertNet",
    "ExponentFit",
    "GameFailure",
    "GameTrace",
    "KaarForecaster",
    "KernelParams",
    "NumericalBreakdownError",
    "RepresenterComparator",
    "Schedule",
    "Stream",
    "ZeroComparator",
    "balanced_epsilon",
    "bessel_k",
    "build_net",
    "bump_comparator",
    "default_checkpoints",
    "diagonal_value",
    "effective_dimension",
    "estimate_exponent",
    "ewa_predict",
    "ewa_update",
    "gamma",
    "gram",
    "iid_stream",
    "kernel_eval",
    "kernel_of_dist",
    "map_seeds",
    "mollifier_g",
    "mollifier_norm",
    "net_cardinality",
    "point_layout",
    "regret_certificate",
    "run_game",
    "run_horizon_family",
    "scaling_fit",
    "schedule_tau",
    "shattering_stream",
    "target_regret_exponent",
]
