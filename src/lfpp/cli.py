"""Command-line surface: reproducible field sampling, metric queries, and
experiment runs driven by a flat key-value config file.

Exit codes: 0 success, 1 validation/usage error, 2 experiment failure
(a quantitative target was missed).  All diagnostics go to stderr; query
results print to stdout; artifacts land in the output directory and embed
the master seed and the config hash.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import io as lio
from .config import RunConfig, config_hash, default_config, parse_config
from .experiments import EXPERIMENTS, run_suite
from .field import (
    DETERMINISTIC,
    GridSpec,
    LatticeField,
    sample_whole_plane_gff,
    sample_zero_boundary_gff,
)
from .metric import MetricProblem
from .mollify import mollify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_EXPERIMENT = 2


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors exit with the validation code."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _load_config(args) -> RunConfig:
    if args.config is not None:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = default_config()
    overrides = {"master_seed": args.seed, "workers": args.workers, "output_dir": args.out}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _stamp(cfg: RunConfig) -> str:
    return f"master_seed={cfg.master_seed} config_hash={config_hash(cfg)}"


def _artifact(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _stamped_json(cfg: RunConfig, payload: dict) -> dict:
    payload = dict(payload)
    payload["master_seed"] = cfg.master_seed
    payload["config_hash"] = config_hash(cfg)
    return payload


def _nearest_vertex(spec: GridSpec, x: float, y: float):
    try:
        i, j = spec.nearest(x, y)
    except (OverflowError, ValueError):  # an infinite or nan quotient has no nearest vertex
        i = j = -1
    if not (0 <= i < spec.n and 0 <= j < spec.n):
        raise ValueError(f"point ({x}, {y}) lies outside the grid window")
    return (i, j)


def _print_path(cfg: RunConfig, name: str, spec: GridSpec, res, missing: str) -> int:
    """Write a path result to the named CSV and print its distance; ``missing`` if empty."""
    if not res.path:
        raise ValueError(missing)
    lio.write_geodesic_csv(_artifact(cfg, name), spec, res.path, res.costs, comment=_stamp(cfg))
    print(repr(res.distance))
    return EXIT_OK


def cmd_sample_field(args, cfg: RunConfig) -> int:
    spec = cfg.grid
    if args.kind == "zero-boundary":
        field = sample_zero_boundary_gff(spec, cfg.master_seed)
    else:
        field = sample_whole_plane_gff(spec, cfg.master_seed)
    path = _artifact(cfg, f"{args.name}.lfpf")
    lio.save_field(path, field)
    lio.write_json(_artifact(cfg, f"{args.name}.json"), _stamped_json(cfg, {
        "artifact": os.path.basename(path),
        "kind": field.kind,
        "n": spec.n,
        "spacing": spec.spacing,
    }))
    print(path)
    return EXIT_OK


def cmd_distance(args, cfg: RunConfig) -> int:
    field = lio.load_field(args.field)
    prob = MetricProblem(field, cfg.params, cfg.convention)
    z = _nearest_vertex(field.spec, args.src[0], args.src[1])
    w = _nearest_vertex(field.spec, args.dst[0], args.dst[1])
    res = prob.distance(z, w)
    return _print_path(cfg, "geodesic.csv", field.spec, res, "target not reachable from source")


def cmd_crossing(args, cfg: RunConfig) -> int:
    if args.field is not None:
        field = lio.load_field(args.field)
    else:
        field = mollify(sample_whole_plane_gff(cfg.grid, cfg.master_seed), cfg.eps_list[-1], cfg.mollifier)
    prob = MetricProblem(field, cfg.params, cfg.convention)
    if args.square is not None:
        square = tuple(args.square)
    else:
        cx, cy = field.spec.center
        square = (cx - 0.5, cy - 0.5, 1.0)
    val = prob.crossing_distance(square)
    lio.write_json(_artifact(cfg, "crossing.json"), _stamped_json(cfg, {
        "square": list(square),
        "convention": cfg.convention,
        "crossing_distance": val,
    }))
    print(repr(val))
    return EXIT_OK


def cmd_ball(args, cfg: RunConfig) -> int:
    field = lio.load_field(args.field)
    prob = MetricProblem(field, cfg.params, cfg.convention)
    center = _nearest_vertex(field.spec, args.center[0], args.center[1])
    ball = prob.metric_ball(center, args.radius)
    mask_values = ball.membership.astype(np.float64)
    mask_values.setflags(write=False)
    mask_field = LatticeField(spec=field.spec, values=mask_values, kind=DETERMINISTIC)
    path = _artifact(cfg, "ball.lfpf")
    lio.save_field(path, mask_field)
    lio.write_json(_artifact(cfg, "ball.json"), _stamped_json(cfg, {
        "artifact": os.path.basename(path),
        "center": list(args.center),
        "radius": args.radius,
        "vertices": int(ball.membership.sum()),
        "boundary_vertices": len(ball.boundary),
    }))
    print(int(ball.membership.sum()))
    return EXIT_OK


def cmd_annulus_cycle(args, cfg: RunConfig) -> int:
    field = lio.load_field(args.field)
    prob = MetricProblem(field, cfg.params, cfg.convention)
    res = prob.distance_around_annulus((args.center[0], args.center[1]), args.r1, args.r2)
    return _print_path(cfg, "annulus_cycle.csv", field.spec, res, "no separating cycle found in the annulus")


def cmd_suite(args, cfg: RunConfig) -> int:
    """Run the named experiments (all when none is named), writing each
    report's JSON and a status line as it is returned, then the summary."""
    reports = []
    for report in run_suite(cfg.params, cfg, args.names or None):
        lio.write_json(_artifact(cfg, f"{report.name}.json"), _stamped_json(cfg, report.to_dict()))
        status = "pass" if report.passed else "FAIL"
        print(f"{report.name}: {status} ({report.runtime_seconds:.1f}s)", file=sys.stderr)
        reports.append(report)
    lio.write_suite_summary_csv(_artifact(cfg, "suite_summary.csv"), reports, comment=_stamp(cfg))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_EXPERIMENT


def build_parser() -> _Parser:
    parser = _Parser(prog="lfpp", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (flat key = value lines)")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--workers", type=int, help="override the worker count")
    common.add_argument("--out", help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sample-field", parents=[common], help="sample and save a field")
    p.add_argument("--kind", choices=("zero-boundary", "whole-plane"), default="whole-plane")
    p.add_argument("--name", default="field")
    p.set_defaults(fn=cmd_sample_field)

    p = sub.add_parser("distance", parents=[common], help="point-to-point distance on a saved field")
    p.add_argument("--field", required=True, help="binary field file")
    p.add_argument("--src", type=float, nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--dst", type=float, nargs=2, required=True, metavar=("X", "Y"))
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("crossing", parents=[common], help="left-right crossing distance of a square")
    p.add_argument("--field", help="binary field file (default: sample per config)")
    p.add_argument("--square", type=float, nargs=3, metavar=("X0", "Y0", "SIDE"))
    p.set_defaults(fn=cmd_crossing)

    p = sub.add_parser("ball", parents=[common], help="metric ball membership mask")
    p.add_argument("--field", required=True)
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("annulus-cycle", parents=[common], help="cheapest separating cycle in an annulus")
    p.add_argument("--field", required=True)
    p.add_argument("--center", type=float, nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.set_defaults(fn=cmd_annulus_cycle)

    p = sub.add_parser("suite", parents=[common], help="run experiments and summarize")
    p.add_argument("names", nargs="*", help=f"experiment names (default: all): {', '.join(EXPERIMENTS)}")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse --help exits 0; usage errors already carry the right code
        return int(exc.code or 0)
    try:
        return args.fn(args, _load_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
