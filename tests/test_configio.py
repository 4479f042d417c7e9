"""Config format: parsing, round-trip, overrides, schema errors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kaarbench.configio import (
    ConfigError,
    apply_overrides,
    parse_config_text,
    write_config,
)
from kaarbench.harness import ExperimentConfig

SAMPLE = """
# a comment
[experiment]
name = demo
horizon = 64
seeds = 0:3
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
noise_sd = 0.1   # trailing comment
comparator = representer
centers = 5
norm = 0.65
"""


def test_parse_sample():
    cfg = parse_config_text(SAMPLE)
    assert cfg.name == "demo"
    assert cfg.horizon == 64
    assert cfg.seeds == (0, 1, 2)
    assert cfg.checkpoints is None
    assert cfg.noise_sd == pytest.approx(0.1)


def test_seed_list_forms():
    cfg = parse_config_text(SAMPLE.replace("seeds = 0:3", "seeds = 5,7,9"))
    assert cfg.seeds == (5, 7, 9)


def test_infinity_and_none_values():
    text = SAMPLE.replace("regime = smooth\nbeta = 1.0", "regime = hard\nbeta = 0.5\np = inf\nepsilon = 0.05")
    cfg = parse_config_text(text)
    assert math.isinf(cfg.p)
    assert cfg.s is None


SAMPLE_RESOLVED = """\
[experiment]
name = demo
horizon = 64
seeds = 0,1,2
checkpoints = pow2
threads = 1

[kernel]
d = 1
regime = smooth
beta = 1.0
p = inf
epsilon = 0.05
s = none
tau = none

[forecaster]
id = kaar_clipped
clip_m = 1.0

[ewa]
epsilon = none
beta = none

[adversary]
id = iid
noise_sd = 0.1
comparator = representer
centers = 5
norm = 0.65
comparator_seed = 0
n_grid = none

[output]
dir = none
"""


def test_write_config_canonical_text():
    cfg = parse_config_text(SAMPLE)
    assert write_config(cfg) == SAMPLE_RESOLVED
    set_values = apply_overrides(cfg, [
        "experiment.checkpoints=1,8,64", "ewa.beta=0.5", "kernel.tau=0.125", "output.dir=out",
    ])
    lines = write_config(set_values).splitlines()
    for line in ("checkpoints = 1,8,64", "beta = 0.5", "tau = 0.125", "dir = out"):
        assert line in lines


def test_round_trip_identity():
    cfg = parse_config_text(SAMPLE)
    again = parse_config_text(write_config(cfg))
    assert again == cfg
    # also for a hard-regime config with explicit checkpoints
    cfg2 = ExperimentConfig(
        name="h", horizon=256, seeds=(0, 1), checkpoints=(16, 64, 128, 256), d=2,
        regime="hard", beta=0.9, p=4.0, adversary="shattering", n_grid=32,
    )
    assert parse_config_text(write_config(cfg2)) == cfg2
    # and for numpy floats, as a sweep over np.linspace hands them over
    cfg3 = replace(cfg, noise_sd=np.linspace(0.05, 0.2, 4)[1], comparator_norm=np.float64(0.5))
    assert "noise_sd = 0.1" in write_config(cfg3).splitlines()
    assert parse_config_text(write_config(cfg3)) == cfg3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(SAMPLE + "\n[experiment]\nflavor = vanilla\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("horizon = 4\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\nhorizon 4\n")


def test_invalid_schedule_rejected_at_parse():
    bad = SAMPLE.replace("beta = 1.0", "beta = 0.3")  # smooth needs beta > d/2
    with pytest.raises(ConfigError):
        parse_config_text(bad)


def test_overrides():
    cfg = parse_config_text(SAMPLE)
    out = apply_overrides(cfg, ["experiment.horizon=128", "adversary.noise_sd=0.0"])
    assert out.horizon == 128
    assert out.noise_sd == 0.0
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["experiment.horizon"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["experiment.unknown=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["kernel.beta=0.1"])  # breaks smooth invariant
