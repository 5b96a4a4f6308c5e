"""Pipeline configuration: one flat set of tunables shared by all commands.

Values come from defaults, then an optional ``key = value`` config file,
then command-line flags, in that order.  Unknown keys are rejected.  D (the
clustering distance ceiling) and gt_radius (the evaluation positive radius)
have no sensible defaults and stay None until provided.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import FormatError, InvalidParams

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class Config:
    k_local: int = 20
    k_graph: int = 20
    n_sub: int = 4096
    descriptor_dim: int = 256
    vlad_clusters: int = 64
    W: int = 10
    v_min: float = 0.8
    v_max: float = 1.2
    v_step: float = 0.1
    accept_ratio: float = 0.8
    D: float = None
    K_max: int = 25
    gt_radius: float = None
    seed: int = 0
    min_successes: int = 3
    mirror: bool = False

    def validate(self) -> "Config":
        if self.k_local < 2:
            raise InvalidParams("k_local must be >= 2")
        if self.k_graph < 1:
            raise InvalidParams("k_graph must be >= 1")
        if self.n_sub < 1:
            raise InvalidParams("n_sub must be >= 1")
        if self.descriptor_dim < 1:
            raise InvalidParams("descriptor_dim must be >= 1")
        if self.vlad_clusters < 1:
            raise InvalidParams("vlad_clusters must be >= 1")
        if self.W < 1:
            raise InvalidParams("W must be >= 1")
        if not 0.0 < self.v_min <= self.v_max:
            raise InvalidParams("need 0 < v_min <= v_max")
        if self.v_step <= 0.0:
            raise InvalidParams("v_step must be > 0")
        if not 0.0 < self.accept_ratio < 1.0:
            raise InvalidParams("accept_ratio must be in (0, 1)")
        # D is stored as float32 in the LPDC file
        if self.D is not None and not 0.0 < self.D <= _F32_MAX:
            raise InvalidParams(f"D must be in (0, {_F32_MAX:.7g}]")
        if self.K_max < 1:
            raise InvalidParams("K_max must be >= 1")
        if self.gt_radius is not None and not 0.0 < self.gt_radius < math.inf:
            raise InvalidParams("gt_radius must be finite and > 0")
        if not 1 <= self.min_successes <= 5:
            raise InvalidParams("min_successes must be in [1, 5]")
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")
        return self


_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


def _parse_value(key: str, raw: str):
    typ = _TYPES[key]
    text = raw.strip()
    try:
        if typ is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return typ(text)
    except ValueError:
        raise InvalidParams(f"invalid value for {key}: '{text}'") from None


def apply(config: Config, overrides: dict) -> Config:
    """New Config with the given key -> value overrides (strings are parsed)."""
    parsed = {}
    for key, value in overrides.items():
        if key not in _TYPES:
            raise InvalidParams(f"unknown config key '{key}'")
        parsed[key] = _parse_value(key, value) if isinstance(value, str) else value
    return dataclasses.replace(config, **parsed)


def parse_file(path) -> dict:
    """Read a ``key = value`` file; '#' lines and blanks are skipped."""
    out = {}
    for ln, line in enumerate(fileio.read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise FormatError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = text.partition("=")
        out[key.strip()] = value.strip()
    return out


def load(path, base: Config = None) -> Config:
    """Config from a file on top of ``base`` (or the defaults)."""
    return apply(base if base is not None else Config(), parse_file(path))
