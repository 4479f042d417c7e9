"""Line-oriented experiment config files.

Format: `[section]` headers, `key = value` lines, `#` comments, blank lines
ignored.  Deliberately trivial to parse in any language.  Sections and keys:

    [experiment]  name, horizon, seeds, checkpoints, threads
    [kernel]      d, regime, beta, p, epsilon, s, tau
    [forecaster]  id, clip_m
    [ewa]         epsilon, beta
    [adversary]   id, noise_sd, comparator, centers, norm, comparator_seed, n_grid
    [output]      dir

Value syntax: `inf` for infinity, `none` to unset an optional key, seed
lists either comma-separated (`0,1,2`) or half-open ranges (`0:10`),
checkpoints either `pow2` or a comma list.  `write_config` emits a canonical
resolved form that reparses to an identical ExperimentConfig.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import groupby

from .harness import ExperimentConfig

__all__ = ["ConfigError", "parse_config", "parse_config_text", "write_config", "apply_overrides"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _parse_int(v: str) -> int:
    try:
        return int(v)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {v!r}") from exc


def _parse_float(v: str) -> float:
    if v.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(v)
    except ValueError as exc:
        raise ConfigError(f"expected a real number, got {v!r}") from exc


def _parse_opt_float(v: str) -> float | None:
    return None if v.lower() == "none" else _parse_float(v)


def _parse_opt_int(v: str) -> int | None:
    return None if v.lower() == "none" else _parse_int(v)


def _parse_seeds(v: str) -> tuple[int, ...]:
    v = v.strip()
    if ":" in v:
        lo, hi = v.split(":", 1)
        seeds = tuple(range(_parse_int(lo), _parse_int(hi)))
    else:
        seeds = tuple(_parse_int(tok) for tok in v.split(",") if tok.strip())
    if not seeds:
        raise ConfigError(f"empty seed list: {v!r}")
    return seeds


def _parse_checkpoints(v: str) -> tuple[int, ...] | None:
    if v.strip().lower() == "pow2":
        return None
    return tuple(_parse_int(tok) for tok in v.split(",") if tok.strip())


# (section, key) -> (config field, parser)
_SCHEMA = {
    ("experiment", "name"): ("name", str),
    ("experiment", "horizon"): ("horizon", _parse_int),
    ("experiment", "seeds"): ("seeds", _parse_seeds),
    ("experiment", "checkpoints"): ("checkpoints", _parse_checkpoints),
    ("experiment", "threads"): ("threads", _parse_int),
    ("kernel", "d"): ("d", _parse_int),
    ("kernel", "regime"): ("regime", str),
    ("kernel", "beta"): ("beta", _parse_float),
    ("kernel", "p"): ("p", _parse_float),
    ("kernel", "epsilon"): ("epsilon", _parse_float),
    ("kernel", "s"): ("s", _parse_opt_float),
    ("kernel", "tau"): ("tau", _parse_opt_float),
    ("forecaster", "id"): ("forecaster", str),
    ("forecaster", "clip_m"): ("clip_m", _parse_float),
    ("ewa", "epsilon"): ("ewa_epsilon", _parse_opt_float),
    ("ewa", "beta"): ("ewa_beta", _parse_opt_float),
    ("adversary", "id"): ("adversary", str),
    ("adversary", "noise_sd"): ("noise_sd", _parse_float),
    ("adversary", "comparator"): ("comparator", str),
    ("adversary", "centers"): ("comparator_centers", _parse_int),
    ("adversary", "norm"): ("comparator_norm", _parse_float),
    ("adversary", "comparator_seed"): ("comparator_seed", _parse_int),
    ("adversary", "n_grid"): ("n_grid", _parse_opt_int),
    ("output", "dir"): ("out_dir", lambda v: None if v.lower() == "none" else v),
}


def _parse_entry(where: str, section: str, key: str, value: str) -> tuple[str, object]:
    """Config field name and parsed value of one `[section] key = value` entry."""
    try:
        field_name, parser = _SCHEMA[(section, key)]
    except KeyError:
        raise ConfigError(f"{where}: unknown key [{section}] {key}") from None
    try:
        return field_name, parser(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _validated(config: ExperimentConfig, where: str) -> ExperimentConfig:
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return config


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """Parse config text into an ExperimentConfig (validated)."""
    entries = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        value = value.split("#", 1)[0].strip()
        entries.append(_parse_entry(f"{source}:{lineno}", section, key.strip().lower(), value))
    return _validated(ExperimentConfig(**dict(entries)), source)


def parse_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def _fmt_value(field_name: str, v) -> str:
    if v is None:
        return "pow2" if field_name == "checkpoints" else "none"
    if isinstance(v, tuple):
        return ",".join(map(str, v))
    return str(v)  # a float's shortest round-trip form (also for numpy floats and inf)


def write_config(config: ExperimentConfig) -> str:
    """Canonical resolved text form of every schema key, section by section;
    reparses to an identical config."""
    blocks = []
    for section, entries in groupby(_SCHEMA.items(), key=lambda entry: entry[0][0]):
        body = "".join(
            f"{key} = {_fmt_value(name, getattr(config, name))}\n" for (_, key), (name, _) in entries
        )
        blocks.append(f"[{section}]\n{body}")
    return "\n".join(blocks)


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply repeatable `section.key=value` command-line overrides."""
    entries = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, _, value = item.partition("=")
        if "." not in dotted:
            raise ConfigError(f"override key must be section.key, got {dotted!r}")
        section, _, key = dotted.strip().lower().partition(".")
        entries.append(_parse_entry(f"override {item!r}", section, key, value.strip()))
    return _validated(replace(config, **dict(entries)), "overrides")
