"""Pipeline configuration: one flat set of tunables shared by all commands.

Values come from defaults, then an optional ``key = value`` config file,
then command-line flags, in that order.  Unknown keys are rejected.  D (the
clustering distance ceiling) and gt_radius (the evaluation positive radius)
have no sensible defaults and stay None until provided.
A key that a stage object (``NetConfig``, ``MatchParams``, ``ClusterParams``)
owns takes its default from it and is checked by building it.
"""

import dataclasses
import math
from dataclasses import dataclass

from . import cloud, cluster, features, fileio, metrics, net, seqmatch
from .errors import FormatError, InvalidParams

_MATCH = seqmatch.MatchParams


@dataclass(frozen=True)
class Config:
    k_local: int = features.DEFAULT_K
    k_graph: int = net.NetConfig.k_graph
    n_sub: int = cloud.DEFAULT_SUBMAP_SIZE
    W: int = _MATCH.W
    v_min: float = _MATCH.v_min
    v_max: float = _MATCH.v_max
    v_step: float = _MATCH.v_step
    accept_ratio: float = _MATCH.accept_ratio
    D: float = None
    K_max: int = cluster.ClusterParams.K_max
    gt_radius: float = None
    seed: int = 0
    min_successes: int = 3
    mirror: bool = _MATCH.mirror

    def net_config(self) -> net.NetConfig:
        """The net's hyperparameters; ``net.fit_widths`` sets its widths from the weights."""
        return net.NetConfig(k_graph=self.k_graph)

    def match_params(self) -> seqmatch.MatchParams:
        return seqmatch.MatchParams(W=self.W, v_min=self.v_min, v_max=self.v_max,
                                    v_step=self.v_step, accept_ratio=self.accept_ratio,
                                    mirror=self.mirror)

    def cluster_params(self) -> cluster.ClusterParams:
        if self.D is None:
            raise InvalidParams("D is required (flag --D or config key D)")
        return cluster.ClusterParams(D=self.D, K_max=self.K_max, seed=self.seed)

    def validate(self) -> "Config":
        self.net_config()
        self.match_params()
        if self.D is None:
            if self.K_max < 1:
                raise InvalidParams("K_max must be >= 1")
        else:
            self.cluster_params()
        if self.k_local < 2:
            raise InvalidParams("k_local must be >= 2")
        if self.n_sub < 1:
            raise InvalidParams("n_sub must be >= 1")
        if self.gt_radius is not None and not 0.0 < self.gt_radius < math.inf:
            raise InvalidParams("gt_radius must be finite and > 0")
        if not 1 <= self.min_successes <= metrics.RUN_LEN:
            raise InvalidParams(f"min_successes must be in [1, {metrics.RUN_LEN}]")
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
