"""Run configuration: a flat key-value text format, strictly validated.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are fatal, so a typo cannot silently fall back to a default.
Round trip is lossless: ``parse_config(serialize_config(c)) == c``.

``replicas`` is every protocol's one size input; left out (``None``), each
protocol runs at its own pinned size.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .field import GridSpec
from .metric import CONVENTIONS, EDGE_WEIGHTED
from .mollify import HEAT_TRUNCATED, MOLLIFIER_KINDS
from .params import LqgParams


@dataclass(frozen=True)
class RunConfig:
    params: LqgParams
    grid: GridSpec
    eps_list: Tuple[float, ...]
    replicas: Optional[int]
    master_seed: int
    convention: str
    mollifier: str
    output_dir: str
    workers: int = 1

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.mollifier not in MOLLIFIER_KINDS:
            raise ValueError(f"unknown mollifier {self.mollifier!r}")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        out = self.output_dir
        if "#" in out or out != out.strip() or len(out.splitlines()) > 1:
            raise ValueError(f"output_dir {out!r} holds a '#', a line break or surrounding blanks, "
                             "which the config text cannot read back")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must lie in [0, 2**64), a u64 seed, got {self.master_seed}")
        eps = tuple(float(e) for e in self.eps_list)
        if len(eps) == 0:
            raise ValueError("eps_list must be nonempty")
        if not all(0.0 < e < math.inf for e in eps):
            raise ValueError("eps values must be positive and finite")
        if len(eps) >= 2:
            ratios = np.array(eps[:-1]) / np.array(eps[1:])
            if np.any(ratios <= 1.0) or not np.allclose(
                np.log2(ratios), np.round(np.log2(ratios)), atol=1e-9
            ):
                raise ValueError("eps_list must be strictly decreasing with dyadic ratios")
        object.__setattr__(self, "eps_list", eps)


def default_config() -> RunConfig:
    n = 256
    return RunConfig(
        params=LqgParams.pure_gravity(),
        grid=GridSpec.centered(n, 2.05 / (n - 1)),
        eps_list=(2**-3, 2**-4, 2**-5, 2**-6),
        replicas=None,
        master_seed=0,
        convention=EDGE_WEIGHTED,
        mollifier=HEAT_TRUNCATED,
        output_dir="out",
        workers=1,
    )


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# The keys in serialization order: how a config writes each (None leaves the
# key out) and how its text reads back.  Read back in this order, the values
# are the positional fields of LqgParams, GridSpec and RunConfig.  _SETTINGS
# are the keys that decide a run's results, which config_hash digests; an
# _ORIGIN key left out follows n and spacing (parse_config).
_ORIGIN = {
    "origin_x": (lambda c: repr(c.grid.origin[0]), float),
    "origin_y": (lambda c: repr(c.grid.origin[1]), float),
}
_SETTINGS = {
    "gamma": (lambda c: repr(c.params.gamma), float),
    "d": (lambda c: repr(c.params.d), float),
    "n": (lambda c: str(c.grid.n), int),
    "spacing": (lambda c: repr(c.grid.spacing), float),
    **_ORIGIN,
    "eps_list": (lambda c: ",".join(repr(e) for e in c.eps_list), _floats),
    "replicas": (lambda c: None if c.replicas is None else str(c.replicas), int),
    "master_seed": (lambda c: str(c.master_seed), int),
    "convention": (lambda c: c.convention, str),
    "mollifier": (lambda c: c.mollifier, str),
}
_KEYS = {
    **_SETTINGS,
    # where the results are written and how many processes compute them
    "output_dir": (lambda c: c.output_dir, str),
    "workers": (lambda c: str(c.workers), int),
}


def parse_config(text: str) -> RunConfig:
    given: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            given[key] = _KEYS[key][1](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for key {key!r}: {exc}") from None

    defaults = {key: None if text is None else _KEYS[key][1](text)
                for key, text in _texts(default_config(), _KEYS).items()}
    # an origin coordinate left out centers the config's own grid on its axis
    n, spacing = (given.get(key, defaults[key]) for key in ("n", "spacing"))
    centered = dict(zip(_ORIGIN, GridSpec.centered(n, spacing).origin))
    # the given values replace the defaults in place, so the order is _KEYS'
    gamma, d, n, spacing, ox, oy, *rest = {**defaults, **centered, **given}.values()
    return RunConfig(LqgParams(gamma, d), GridSpec(n, spacing, (ox, oy)), *rest)


def _texts(config: RunConfig, keys: Dict[str, tuple]) -> Dict[str, Optional[str]]:
    return {key: write(config) for key, (write, _) in keys.items()}


def _lines(config: RunConfig, keys: Dict[str, tuple]) -> str:
    return "".join(f"{key} = {text}\n" for key, text in _texts(config, keys).items() if text is not None)


def serialize_config(config: RunConfig) -> str:
    return _lines(config, _KEYS)


def config_hash(config: RunConfig) -> str:
    """Digest of the settings that decide a run's results: the serialized
    config without the keys that say only where the results are written and
    how many processes compute them."""
    return hashlib.sha256(_lines(config, _SETTINGS).encode()).hexdigest()[:16]
