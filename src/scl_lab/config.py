"""Runtime configuration: Margulis constants and search budgets.

Margulis constants are user-supplied data, not computed facts: the shipped
default carries a commonly quoted placeholder for dimension 3 and is marked
non-normative.  Search budgets mirror the keyword defaults of the scl
engine so a config file can override them globally for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .scl_engine import (
    DEFAULT_MAX_GENUS,
    DEFAULT_MAX_LEN,
    DEFAULT_N_MAX,
    DEFAULT_PAIR_BUDGET,
)

__all__ = [
    "ConfigError",
    "Config",
    "DEFAULT_MARGULIS_CONSTANTS",
    "default_config",
    "load_config",
]

# placeholder, non-normative: a frequently quoted working value for the
# 3-dimensional Margulis constant, supplied only so the gap calculator has
# something to check against by default; override via config for real use
DEFAULT_MARGULIS_CONSTANTS: Mapping[int, float] = {3: 0.29}

_BUDGET_KEYS = ("n_max", "max_len", "max_genus", "pair_budget")


class ConfigError(ValueError):
    """Malformed configuration file."""


@dataclass(frozen=True)
class Config:
    margulis_constants: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_MARGULIS_CONSTANTS))
    n_max: int = DEFAULT_N_MAX
    max_len: int = DEFAULT_MAX_LEN
    max_genus: int = DEFAULT_MAX_GENUS
    pair_budget: int = DEFAULT_PAIR_BUDGET

    def __post_init__(self):
        for dim, eps in self.margulis_constants.items():
            if not (isinstance(dim, int) and dim >= 2):
                raise ConfigError(f"margulis dimension must be an integer >= 2, got {dim!r}")
            if not eps > 0:
                raise ConfigError(f"margulis constant for n={dim} must be positive, got {eps}")
        for key in _BUDGET_KEYS:
            value = getattr(self, key)
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{key} must be a positive integer, got {value!r}")

    def margulis_for(self, dimension: int) -> Optional[float]:
        return self.margulis_constants.get(dimension)


def default_config() -> Config:
    return Config()


def load_config(path: str) -> Config:
    """Read a JSON config: optional "margulis_constants" and budget keys."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = set(_BUDGET_KEYS) | {"margulis_constants"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; known keys are {sorted(known)}")
    kwargs = {}
    if "margulis_constants" in raw:
        table = raw["margulis_constants"]
        if not isinstance(table, dict):
            raise ConfigError("margulis_constants must be an object of dimension: value")
        parsed = {}
        for key, value in table.items():
            try:
                dim = int(key)
            except (TypeError, ValueError):
                raise ConfigError(f"margulis dimension {key!r} is not an integer") from None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"margulis constant for n={dim} must be a number")
            parsed[dim] = float(value)
        kwargs["margulis_constants"] = parsed
    for key in _BUDGET_KEYS:
        if key in raw:
            value = raw[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            kwargs[key] = value
    return Config(**kwargs)
