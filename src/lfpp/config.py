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
    spacing = 2.05 / (n - 1)
    half = (n - 1) * spacing / 2.0
    return RunConfig(
        params=LqgParams.pure_gravity(),
        grid=GridSpec(n=n, spacing=spacing, origin=(-half, -half)),
        eps_list=(2**-3, 2**-4, 2**-5, 2**-6),
        replicas=None,
        master_seed=0,
        convention=EDGE_WEIGHTED,
        mollifier=HEAT_TRUNCATED,
        output_dir="out",
        workers=1,
    )


_KEYS = (
    "gamma",
    "d",
    "n",
    "spacing",
    "origin_x",
    "origin_y",
    "eps_list",
    "replicas",
    "master_seed",
    "convention",
    "mollifier",
    "output_dir",
    "workers",
)


def parse_config(text: str) -> RunConfig:
    base = default_config()
    seen: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value

    gamma = float(seen.get("gamma", base.params.gamma))
    d = float(seen.get("d", base.params.d))
    params = LqgParams(gamma=gamma, d=d)
    n = int(seen.get("n", base.grid.n))
    spacing = float(seen.get("spacing", base.grid.spacing))
    # grid defaults stay centered unless an origin is given explicitly
    if "origin_x" in seen or "origin_y" in seen:
        ox = float(seen.get("origin_x", base.grid.origin[0]))
        oy = float(seen.get("origin_y", base.grid.origin[1]))
    else:
        half = (n - 1) * spacing / 2.0
        ox, oy = -half, -half
    grid = GridSpec(n=n, spacing=spacing, origin=(ox, oy))
    if "eps_list" in seen:
        eps_list = tuple(float(tok) for tok in seen["eps_list"].split(",") if tok.strip())
    else:
        eps_list = base.eps_list
    return RunConfig(
        params=params,
        grid=grid,
        eps_list=eps_list,
        replicas=int(seen["replicas"]) if "replicas" in seen else base.replicas,
        master_seed=int(seen.get("master_seed", base.master_seed)),
        convention=seen.get("convention", base.convention),
        mollifier=seen.get("mollifier", base.mollifier),
        output_dir=seen.get("output_dir", base.output_dir),
        workers=int(seen.get("workers", base.workers)),
    )


def serialize_config(config: RunConfig) -> str:
    lines = [
        f"gamma = {config.params.gamma!r}",
        f"d = {config.params.d!r}",
        f"n = {config.grid.n}",
        f"spacing = {config.grid.spacing!r}",
        f"origin_x = {config.grid.origin[0]!r}",
        f"origin_y = {config.grid.origin[1]!r}",
        "eps_list = " + ",".join(repr(e) for e in config.eps_list),
    ]
    if config.replicas is not None:
        lines.append(f"replicas = {config.replicas}")
    lines += [
        f"master_seed = {config.master_seed}",
        f"convention = {config.convention}",
        f"mollifier = {config.mollifier}",
        f"output_dir = {config.output_dir}",
        f"workers = {config.workers}",
    ]
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """Digest of the settings that decide a run's results: the serialized
    config without ``output_dir``, which only says where they are written,
    and ``workers``, which only says how many processes compute them."""
    lines = serialize_config(config).splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith(("output_dir = ", "workers = ")))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
