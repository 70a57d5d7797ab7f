"""The benchmark's workloads: what one operation is and how its outputs are checked.

Each workload runs closed-loop, one operation at a time in one process
(``workers = 1``).  ``op(k)`` runs operation k and returns its wall time;
``units`` is the number of protocol replicas (or CLI rounds) one operation
holds.  ``check()`` runs after the timed loop and compares the outputs with
``oracle`` or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

import lfpp.cli
import lfpp.experiments
from lfpp.config import default_config
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField, sample_whole_plane_gff
from lfpp.metric import EDGE_WEIGHTED, VERTEX_SUM, MetricProblem
from lfpp.mollify import mollify, mollify_heat, subsample
from lfpp.seeds import replica_seed


def _master_seed(seed: int, k: int) -> int:
    """Master seed of operation k: distinct per operation, fixed by --seed."""
    return seed * 1_000_003 + k


class Workload:
    name = ""
    entry = ""  # module a user imports before the first operation
    units = 1
    in_process = False  # cli only: call lfpp.cli.main here instead of a fresh process

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.cfg = default_config()
        self.problems: List[str] = []
        self.failed = 0
        self.attempted = 0

    def op(self, k: int) -> float:
        raise NotImplementedError

    def peak_rss(self) -> float:
        """Peak resident set, in MB, of the processes that ran lfpp code."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_python(self, args: List[str]) -> Tuple[float, int, str, float]:
        """Run a child interpreter, importing lfpp from this checkout's src/, to
        its exit: (wall seconds, exit code, stdout, peak RSS in MB)."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(lfpp.cli.__file__))
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(os.path.join(self.work, "stderr.txt"), "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=env)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            dt = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        return dt, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0

    def check(self) -> None:
        raise NotImplementedError

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def expect_close(self, what: str, got: float, want: float) -> None:
        if not abs(got - want) <= 1e-12 * max(abs(got), abs(want)):
            self.fail(f"{what}: program {got!r}, oracle {want!r}")


class CrossingLadder(Workload):
    """EXPERIMENTS["crossing-exponent"] at its pinned geometry, a few replicas per call."""

    name = "crossing-ladder"
    entry = "lfpp.experiments"
    units = 2  # replicas per call
    n, side, square = 512, 2.02, (-0.5, -0.5, 1.0)

    def op(self, k: int) -> float:
        cfg = replace(self.cfg, replicas=self.units, master_seed=_master_seed(self.seed, k))
        protocol = lfpp.experiments.EXPERIMENTS["crossing-exponent"]
        self.attempted += 1
        t0 = time.perf_counter()
        report = protocol(cfg.params, cfg)
        dt = time.perf_counter() - t0
        for key in ("slope_vertex_sum", "slope_edge_weighted"):
            if not math.isfinite(report.metrics[key]):
                self.fail(f"op {k}: {key} = {report.metrics[key]}")
        return dt

    def check(self) -> None:
        import oracle

        s = self.side / (self.n - 1)
        half = (self.n - 1) * s / 2.0
        spec = GridSpec(n=self.n, spacing=s, origin=(-half, -half))
        params = self.cfg.params
        field = sample_whole_plane_gff(spec, replica_seed(_master_seed(self.seed, 0), 0))
        # the protocol's ladders, coarsest first; the oracle covers the
        # coarser scales, whose graphs are small enough for networkx
        ladders = ((VERTEX_SUM, (16, 8, 4, 2, 1), 4), (EDGE_WEIGHTED, (1,) * 5, 2))
        for convention, strides, oracle_scales in ladders:
            for a, stride in enumerate(strides):
                eps = 2 * 2 ** (4 - a) * s
                mf = subsample(mollify_heat(field, eps), stride)
                got = MetricProblem(mf, params, convention).crossing_distance(self.square)
                geometry = (mf.values, params.xi, mf.spec.spacing, convention, mf.spec.origin, self.square)
                bound = oracle.straight_row_bound(*geometry)
                if not got <= bound * (1 + 1e-12):
                    self.fail(f"{convention} eps={eps}: crossing {got!r} above straight row {bound!r}")
                if a < oracle_scales:
                    self.expect_close(f"{convention} eps={eps} crossing", got, oracle.crossing_distance(*geometry))


class Cli(Workload):
    """A fresh ``python -m lfpp.cli`` process per command, default 256^2 config."""

    name = "cli"
    entry = "lfpp.cli"
    ball_radius = 0.5
    annulus = (0.25, 0.45)

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.out = os.path.join(work, "out")
        self.field_path = os.path.join(self.out, "field.lfpf")
        grid = self.cfg.grid
        lo = [repr(c) for c in grid.origin]
        hi = [repr(c + grid.side) for c in grid.origin]
        r1, r2 = self.annulus
        common = ["--seed", str(seed), "--out", self.out]
        self.commands = [
            ("sample_field", ["sample-field"] + common),
            ("distance", ["distance", "--field", self.field_path, "--src", *lo, "--dst", *hi] + common),
            ("crossing", ["crossing"] + common),
            ("ball", ["ball", "--field", self.field_path, "--center", "0", "0",
                      "--radius", repr(self.ball_radius)] + common),
            ("annulus_cycle", ["annulus-cycle", "--field", self.field_path, "--center", "0", "0",
                               "--r1", repr(r1), "--r2", repr(r2)] + common),
        ]
        self.printed: Dict[str, str] = {}
        self.child_rss_mb = 0.0

    def _record(self, name: str, code: int, out: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"[bench] {name} exited {code}", file=sys.stderr)
        elif self.printed.setdefault(name, out) != out:
            self.fail(f"{name} printed {out!r}, earlier {self.printed[name]!r}")

    def op(self, k: int) -> float:
        t0 = time.perf_counter()
        walls = []
        for name, argv in self.commands:
            if self.in_process:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = lfpp.cli.main(list(argv))
                out = buf.getvalue()
            else:
                dt, code, out, rss = self.run_python(["-m", "lfpp.cli", *argv])
                walls.append(f"{name} {dt:.4f}")
                self.child_rss_mb = max(self.child_rss_mb, rss)
            self._record(name, code, out)
        if walls:
            print(f"[bench] round {k}: " + ", ".join(walls), file=sys.stderr)
        return time.perf_counter() - t0

    def peak_rss(self) -> float:
        return self.child_rss_mb

    def check(self) -> None:
        import oracle

        cfg, seed = self.cfg, self.seed
        if len(self.printed) != len(self.commands):
            self.fail("not every command produced output to check")
            return
        grid, params, conv = cfg.grid, cfg.params, cfg.convention
        header, values = oracle.read_lfpf(self.field_path)
        want = {"magic": b"LFPF", "version": 1, "n": grid.n, "spacing": grid.spacing,
                "origin": grid.origin, "seed": seed}
        for key, value in want.items():
            if header[key] != value:
                self.fail(f"field header {key} = {header[key]!r}, config says {value!r}")
        if not np.array_equal(values, sample_whole_plane_gff(grid, seed).values):
            self.fail("saved field differs from sample_whole_plane_gff")
        full = oracle.LatticeOracle(values, params.xi, grid.spacing, conv)
        n, s, origin = grid.n, grid.spacing, grid.origin

        distance = float(self.printed["distance"])
        src, dst = (0, 0), (n - 1, n - 1)
        self.expect_close("distance", distance, full.distance(src, dst))
        path, cumulative = _read_path_csv(os.path.join(self.out, "geodesic.csv"), s, origin)
        if not (path[0] == src and path[-1] == dst and oracle.is_chain(path)):
            self.fail("geodesic.csv is not an 8-adjacent chain between the corners")
        if any(b < a for a, b in zip(cumulative[:-1], cumulative[1:])):
            self.fail("geodesic.csv cumulative costs decrease")
        self.expect_close("geodesic.csv final cost", cumulative[-1], distance)
        self.expect_close("geodesic oracle cost", full.path_cost(path), distance)

        crossing = float(self.printed["crossing"])
        mf = mollify(sample_whole_plane_gff(grid, seed), cfg.eps_list[-1], cfg.mollifier)
        cx, cy = grid.center
        geometry = (mf.values, params.xi, s, conv, origin, (cx - 0.5, cy - 0.5, 1.0))
        self.expect_close("crossing", crossing, oracle.crossing_distance(*geometry))
        if not crossing <= oracle.straight_row_bound(*geometry) * (1 + 1e-12):
            self.fail("crossing distance above the straight-row bound")

        center = (int(round(-origin[0] / s)), int(round(-origin[1] / s)))
        xs = origin[0] + s * np.arange(n)
        ys = origin[1] + s * np.arange(n)
        rad = np.hypot(xs[:, None], ys[None, :])
        self._check_kernel_tail(values, rad)
        r = self.ball_radius
        ball = np.array(list(full.distances([center], cutoff=r * (1 + 1e-9)).values()))
        size = int(self.printed["ball"])
        lo, hi = int(np.sum(ball <= r * (1 - 1e-12))), int(np.sum(ball <= r * (1 + 1e-12)))
        if not lo <= size <= hi:
            self.fail(f"ball holds {size} vertices, oracle {lo}..{hi}")

        r1, r2 = self.annulus
        cycle_cost = float(self.printed["annulus_cycle"])
        cycle, _ = _read_path_csv(os.path.join(self.out, "annulus_cycle.csv"), s, origin)
        if not (len(cycle) > 3 and cycle[0] == cycle[-1] and oracle.is_chain(cycle)):
            self.fail("annulus cycle is not a closed 8-adjacent chain")
        if not all(r1 <= rad[v] <= r2 for v in cycle):
            self.fail("annulus cycle leaves the annulus")
        blocked = np.zeros((n, n), dtype=bool)
        for v in cycle:
            blocked[v] = True
        if np.any(oracle.flood_fill(~blocked, center) & (rad > r2)):
            self.fail("annulus cycle does not separate the two boundaries")
        self.expect_close("annulus cycle cost", full.cycle_cost(cycle), cycle_cost)
        ring = oracle.lattice_ring(n, s, origin, (0.0, 0.0), 0.5 * (r1 + r2))
        if not cycle_cost <= full.cycle_cost(ring) * (1 + 1e-12):
            self.fail("annulus cycle costs more than the mid-radius lattice ring")

    def _check_kernel_tail(self, values: np.ndarray, rad: np.ndarray) -> None:
        """Locality of the config's mollifier at the locality-check protocol's
        eps = 2^-4, where an untruncated heat-kernel tail is large enough to
        show: replacing the field beyond 2 sqrt(eps) + 2 spacings of the origin
        must leave every mollified value within sqrt(eps) of it bit for bit
        unchanged."""
        cfg = self.cfg
        eps, spec = 2 ** -4, cfg.grid
        radius = math.sqrt(eps)
        far = rad > 2 * radius + 2 * spec.spacing
        replaced = values.copy()
        replaced[far] = np.random.default_rng(self.seed).standard_normal(int(far.sum()))
        near = rad <= radius
        a, b = (mollify(LatticeField(spec=spec, values=v, kind=DETERMINISTIC), eps, cfg.mollifier).values
                for v in (values, replaced))
        if not np.array_equal(a[near], b[near]):
            self.fail(f"{cfg.mollifier} at eps={eps}: values within sqrt(eps) of the origin moved "
                      "when the field was replaced beyond 2 sqrt(eps)")


def _read_path_csv(path: str, spacing: float, origin) -> Tuple[List[Tuple[int, int]], List[float]]:
    """Vertices and cumulative costs of a geodesic table (step, x, y, cost)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    vertices = [(int(round((float(x) - origin[0]) / spacing)), int(round((float(y) - origin[1]) / spacing)))
                for _, x, y, _ in rows]
    return vertices, [float(r[3]) for r in rows]


WORKLOADS = {w.name: w for w in (CrossingLadder, Cli)}
