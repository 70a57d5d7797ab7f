"""Outputs pinned at fixed seeds, kept as JSON files beside this module.

* ``pinned_reports.json`` holds the ``settings``, ``metrics``, ``checks``
  and ``passed`` of the eleven acceptance reports, one per protocol, at the
  seeds and sizes in ``REPORTS``.
* ``pinned_cli.json`` holds what the benchmark's five ``cli`` commands
  (``bench/workloads.py``) print and write at seed ``CLI_SEED``: each
  command's exit code and stdout, and the SHA-256 of every artifact, with
  the work directory masked as ``<work>``.

Each file records the numpy, scipy and Python versions it was made with:
the values are bit-exact only under those.  A change that means to move
them regenerates both files with

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import lfpp.cli
from lfpp.config import default_config
from lfpp.experiments import EXPERIMENTS
from lfpp.params import LqgParams

HERE = Path(__file__).resolve().parent
REPORTS_FILE = HERE / "pinned_reports.json"
CLI_FILE = HERE / "pinned_cli.json"
WORKLOADS = HERE.parent / "bench" / "workloads.py"

PARAMS = LqgParams.pure_gravity()

# each protocol's pinned acceptance run: its config overrides
REPORTS = {
    "crossing-exponent": {"replicas": 100, "master_seed": 12345},
    "scale-ratio": {"replicas": 100, "master_seed": 2024},
    "weyl-check": {"master_seed": 12},
    "locality-check": {"master_seed": 1000},
    "scaling-relation": {"master_seed": 50},
    "circle-average-bm": {"master_seed": 303},
    "dufresne-check": {"master_seed": 99},
    "holder-scan": {"master_seed": 500},
    "tube-distance": {"master_seed": 700},
    "geodesic-ball-overlap": {"master_seed": 800},
    "diameter-tail": {"master_seed": 600},
}
CLI_SEED = 11


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run_report(name: str):
    # the worker count never changes a report (test_workers_do_not_change_reports)
    cfg = replace(default_config(), workers=min(2, os.cpu_count() or 1), **REPORTS[name])
    return EXPERIMENTS[name](PARAMS, cfg)


def report_entry(report) -> dict:
    """What a report pins, as it reads back from JSON."""
    d = report.to_dict()
    return json.loads(json.dumps({k: d[k] for k in ("settings", "metrics", "checks", "passed")}))


def load_workloads():
    """``bench/workloads.py`` as a module, without putting ``bench/`` on the path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_outputs(work: str, seed: int = CLI_SEED) -> dict:
    """Run the benchmark's ``cli`` commands in this process, in order, under
    ``work``: each one's exit code and stdout, and every artifact's SHA-256,
    the work path masked."""
    def mask(data: bytes) -> bytes:
        return data.replace(work.encode(), b"<work>")

    commands = {}
    for name, argv in load_workloads().Cli(seed, work).commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lfpp.cli.main(list(argv))
        commands[name] = {"exit": code, "stdout": mask(buf.getvalue().encode()).decode()}
    artifacts = {}
    for path in sorted(Path(work).rglob("*")):
        if path.is_file():
            artifacts[path.relative_to(work).as_posix()] = hashlib.sha256(mask(path.read_bytes())).hexdigest()
    return {"commands": commands, "artifacts": artifacts}


def mismatch(got, want, where: str = "") -> Optional[str]:
    """Where ``got`` and ``want`` first differ under ``==`` with equal types
    at every level (so 1 differs from 1.0, and True from 1), or None."""
    if type(got) is not type(want):
        return f"{where or '.'}: {got!r} ({type(got).__name__}) != {want!r} ({type(want).__name__})"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where or '.'}: keys {sorted(got)} != {sorted(want)}"
        items = ((f"{where}.{k}", got[k], want[k]) for k in want)
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{where or '.'}: length {len(got)} != {len(want)}"
        items = ((f"{where}[{k}]", g, w) for k, (g, w) in enumerate(zip(got, want)))
    else:
        return None if got == want else f"{where or '.'}: {got!r} != {want!r}"
    return next((m for m in (mismatch(g, w, at) for at, g, w in items) if m is not None), None)


def portable(entry: dict) -> dict:
    """The part of a report entry that holds across library versions: the
    pass flags, the ``property`` rows, and the rows with a 1e-12 bound,
    whose values are roundoff and so are left out."""
    rows = []
    for c in entry["checks"]:
        if c["kind"] == "property":
            rows.append(c)
        elif c["tolerance"] == 1e-12:
            rows.append({k: v for k, v in c.items() if k != "value"})
        else:
            rows.append({"metric": c["metric"], "passed": c["passed"]})
    return {"passed": entry["passed"], "checks": rows}


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        _write(CLI_FILE, {"versions": versions(), "seed": CLI_SEED, **cli_outputs(work)})
    print(f"wrote {CLI_FILE}", file=sys.stderr)
    reports = {}
    for name in REPORTS:
        reports[name] = report_entry(run_report(name))
        print(f"{name}: done", file=sys.stderr)
    _write(REPORTS_FILE, {"versions": versions(), "reports": reports})
    print(f"wrote {REPORTS_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
