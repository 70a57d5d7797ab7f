import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinned
from lfpp.cli import build_parser, main
from lfpp.experiments import ExperimentReport, Protocol
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField
from lfpp.io import load_field, save_field


def write_constant_field(path, n=64, side=1.0, origin=None, value=0.0):
    s = side / (n - 1)
    if origin is None:
        origin = (0.0, 0.0)
    spec = GridSpec(n=n, spacing=s, origin=origin)
    f = LatticeField(spec=spec, values=np.full((n, n), value), kind=DETERMINISTIC)
    save_field(str(path), f)
    return spec


def small_config(tmp_path, **overrides):
    n = overrides.pop("n", 64)
    spacing = overrides.pop("spacing", 2.5 / (n - 1))
    lines = [f"n = {n}", f"spacing = {spacing!r}", "replicas = 2"]
    for k, v in overrides.items():
        lines.append(f"{k} = {v}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def stub_report(passed):
    return ExperimentReport(
        name="stub",
        settings={},
        metrics={"x": 1.0},
        checks=[{"metric": "x", "value": 1.0, "target": 1.0, "tolerance": 0.1,
                 "kind": "two-sided", "passed": passed}],
        passed=passed,
        runtime_seconds=0.0,
    )


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["distance", "--src", "0", "0", "--dst", "1", "1"]) == 1

    def test_unknown_experiment_name(self, tmp_path, capsys):
        rc = main(["suite", "no-such-thing", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_field_file(self, tmp_path, capsys):
        rc = main([
            "distance", "--field", str(tmp_path / "absent.lfpf"),
            "--src", "0", "0", "--dst", "1", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    def test_field_header_with_huge_n(self, tmp_path, capsys):
        # a header-only file claiming n = 2**31 must fail validation, not the read
        field_path = tmp_path / "huge.lfpf"
        write_constant_field(field_path, n=8)
        raw = bytearray(field_path.read_bytes()[: -8 * 8 * 8])
        raw[6:10] = (2**31).to_bytes(4, "little")  # little-endian u32 n field
        field_path.write_bytes(bytes(raw))
        rc = main([
            "distance", "--field", str(field_path),
            "--src", "0", "0", "--dst", "1", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "payload" in capsys.readouterr().err

    def test_config_with_n_beyond_field_header(self, tmp_path, capsys):
        # rejected when the config is read, before any sampling or writing
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n = 1099511627776\n")
        rc = main(["sample-field", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "2**32" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_beyond_field_file(self, tmp_path, capsys, monkeypatch, seed):
        # the config refuses the seed before any sampling starts
        monkeypatch.setattr("lfpp.cli.sample_whole_plane_gff", lambda *a: pytest.fail("sampled"))
        out = tmp_path / "out"
        rc = main(["sample-field", "--config", small_config(tmp_path), "--seed", str(seed),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: master_seed must lie in [0, 2**64)")
        assert not (out / "field.lfpf").exists()

    @pytest.mark.parametrize("square", [("0", "0", "nan"), ("0", "0", "inf"), ("nan", "0", "1.0")])
    def test_non_finite_square(self, tmp_path, capsys, square):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main(["crossing", "--field", str(field_path), "--square", *square,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "degenerate square" in capsys.readouterr().err

    @pytest.mark.parametrize("coord", ["inf", "nan"])
    @pytest.mark.parametrize("query", [["distance", "--dst", "0.5", "0.5", "--src"],
                                       ["ball", "--radius", "0.1", "--center"]], ids=["distance", "ball"])
    def test_non_finite_point(self, tmp_path, capsys, query, coord):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main([*query, coord, "0", "--field", str(field_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: point ({coord}, 0.0) lies outside the grid window\n"

    @pytest.mark.parametrize("coord", ["inf", "nan"])
    def test_non_finite_annulus_center(self, tmp_path, capsys, coord):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main(["annulus-cycle", "--field", str(field_path), "--center", coord, "0",
                   "--r1", "0.1", "--r2", "0.3", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: annulus center ({coord}, 0.0) is not finite\n"

    def test_out_the_config_cannot_hold(self, tmp_path, capsys):
        out = str(tmp_path / "runs#1")
        assert main(["suite", "weyl-check", "--out", out]) == 1
        assert "holds a '#'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_point_beyond_float_range(self, tmp_path, capsys):
        # finite, but its grid index overflows to inf
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main(["distance", "--src", "1e308", "0", "--dst", "0.5", "0.5", "--field", str(field_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: point (1e+308, 0.0) lies outside the grid window\n"

    def test_nan_ball_radius(self, tmp_path, capsys):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main(["ball", "--field", str(field_path), "--center", "0.5", "0.5",
                   "--radius", "nan", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "radius must be >= 0" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma = 9.0\n")
        rc = main(["sample-field", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err


class TestDistance:
    def test_constant_field_diagonal(self, tmp_path, capsys):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        out = tmp_path / "out"
        rc = main([
            "distance", "--field", str(field_path),
            "--src", "0", "0", "--dst", "1", "1", "--out", str(out),
        ])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(math.sqrt(2.0), rel=1e-12)
        lines = (out / "geodesic.csv").read_text().splitlines()
        assert lines[0].startswith("# master_seed=0 config_hash=")
        assert lines[1] == "step,x,y,cumulative_cost"
        assert len(lines) == 2 + 64  # 64 path vertices along the diagonal

    def test_point_outside_window(self, tmp_path, capsys):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        rc = main([
            "distance", "--field", str(field_path),
            "--src", "0", "0", "--dst", "5", "5", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1


class TestSampleField:
    def test_reproducible_across_runs(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sample-field", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["sample-field", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == 0
        assert (out_a / "field.lfpf").read_bytes() == (out_b / "field.lfpf").read_bytes()
        meta = json.loads((out_a / "field.json").read_text())
        assert meta["master_seed"] == 7
        assert len(meta["config_hash"]) == 16
        assert meta["kind"] == "whole-plane-gff-normalized"

    def test_seed_changes_field(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sample-field", "--config", cfg, "--seed", "7", "--out", str(out_a)])
        main(["sample-field", "--config", cfg, "--seed", "8", "--out", str(out_b)])
        a = load_field(str(out_a / "field.lfpf"))
        b = load_field(str(out_b / "field.lfpf"))
        assert not np.array_equal(a.values, b.values)

    def test_zero_boundary_kind(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "zb"
        rc = main(["sample-field", "--kind", "zero-boundary", "--config", cfg,
                   "--out", str(out), "--name", "zb"])
        assert rc == 0
        f = load_field(str(out / "zb.lfpf"))
        assert f.kind == "zero-boundary-gff"
        assert np.all(f.values[0, :] == 0.0)


class TestCrossingAndBall:
    def test_crossing_on_constant_field(self, tmp_path, capsys):
        field_path = tmp_path / "flat.lfpf"
        write_constant_field(field_path, n=64, side=1.0)
        out = tmp_path / "out"
        rc = main([
            "crossing", "--field", str(field_path),
            "--square", "0", "0", "1.0", "--out", str(out),
        ])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, rel=1e-12)
        payload = json.loads((out / "crossing.json").read_text())
        assert payload["crossing_distance"] == pytest.approx(1.0, rel=1e-12)
        assert "master_seed" in payload and "config_hash" in payload

    def test_ball_artifact(self, tmp_path, capsys):
        field_path = tmp_path / "flat.lfpf"
        n = 64
        write_constant_field(field_path, n=n, side=1.0)
        out = tmp_path / "out"
        rc = main([
            "ball", "--field", str(field_path),
            "--center", "0.5", "0.5", "--radius", "0.25", "--out", str(out),
        ])
        assert rc == 0
        count = int(capsys.readouterr().out.strip())
        mask = load_field(str(out / "ball.lfpf"))
        assert mask.kind == "deterministic"
        assert int(mask.values.sum()) == count
        assert 0 < count < n * n

    @pytest.mark.parametrize("convention", ["edge-weighted", "vertex-sum"])
    def test_annulus_cycle(self, tmp_path, capsys, convention):
        field_path = tmp_path / "flat.lfpf"
        n = 128
        write_constant_field(field_path, n=n, side=2.0, origin=(-1.0, -1.0))
        out = tmp_path / "out"
        rc = main([
            "annulus-cycle", "--field", str(field_path), "--config",
            small_config(tmp_path, convention=convention),
            "--center", "0", "0", "--r1", "0.3", "--r2", "0.7", "--out", str(out),
        ])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        lines = (out / "annulus_cycle.csv").read_text().splitlines()
        assert lines[0].startswith("# master_seed=")
        if convention == "edge-weighted":
            assert 2 * math.pi * 0.3 * 0.99 <= val <= 7.0 * 0.3
        else:
            assert val == len(lines) - 3  # distinct cycle vertices, each weighing 1
        costs = [float(row.split(",")[3]) for row in lines[2:]]
        assert costs[-1] == val
        assert all(a <= b for a, b in zip(costs[:-1], costs[1:]))


class TestExperimentAndSuite:
    def test_experiment_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import lfpp.cli as cli_mod

        monkeypatch.setitem(cli_mod.EXPERIMENTS, "stub", lambda p, c: stub_report(False))
        rc = main(["suite", "stub", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().err
        payload = json.loads((tmp_path / "out" / "stub.json").read_text())
        assert payload["passed"] is False

    def test_experiment_pass_exit_code(self, tmp_path, capsys, monkeypatch):
        import lfpp.cli as cli_mod

        monkeypatch.setitem(cli_mod.EXPERIMENTS, "stub", lambda p, c: stub_report(True))
        rc = main(["suite", "stub", "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_suite_summary(self, tmp_path, capsys, monkeypatch):
        import lfpp.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_suite", lambda p, c, names=None: [stub_report(True), stub_report(False)]
        )
        rc = main(["suite", "--out", str(tmp_path / "out")])
        assert rc == 2
        lines = (tmp_path / "out" / "suite_summary.csv").read_text().splitlines()
        assert lines[0].startswith("# master_seed=0 config_hash=")
        assert lines[1] == "experiment,metric,value,target,tolerance,kind,pass,seconds"
        assert len(lines) == 4

    def test_suite_keeps_reports_before_a_raising_experiment(self, tmp_path, capsys, monkeypatch):
        import lfpp.cli as cli_mod

        def raising(params, cfg, size):
            raise ValueError("second stub raised")

        monkeypatch.setitem(cli_mod.EXPERIMENTS, "first", Protocol(
            "first", 1, lambda params, cfg, size: (abs, 1, lambda outputs: ({}, {"x": 1.0}, []))))
        monkeypatch.setitem(cli_mod.EXPERIMENTS, "second", Protocol("second", 1, raising))
        rc = main(["suite", "first", "second", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.index("first: pass") < err.index("error: second stub raised")
        assert json.loads((tmp_path / "out" / "first.json").read_text())["passed"] is True


class TestBenchCommands:
    """The benchmark's ``cli`` workload (bench/workloads.py) runs five commands."""

    def test_every_command_parses(self, tmp_path):
        # a renamed command or option would first show as a failed benchmark run
        parser = build_parser()
        for name, argv in pinned.load_workloads().Cli(3, str(tmp_path)).commands:
            assert callable(parser.parse_args(argv).fn), name

    def test_outputs_match_pinned(self, tmp_path):
        # seed pinned.CLI_SEED; the geodesic, cycle and ball files must not move by a bit
        pin = json.loads(pinned.CLI_FILE.read_text())
        got = pinned.cli_outputs(str(tmp_path))
        want = {k: pin[k] for k in got}
        if pinned.versions() != pin["versions"]:
            warnings.warn(f"pinned under {pin['versions']}, running {pinned.versions()}: "
                          "comparing exit codes and artifact names only")
            got, want = ({"exits": {k: c["exit"] for k, c in o["commands"].items()},
                          "artifacts": sorted(o["artifacts"])} for o in (got, want))
        assert pinned.mismatch(got, want) is None, pinned.mismatch(got, want)


# Run in a fresh interpreter: the test process itself has long since imported
# every module, so only a child can see what `import lfpp.cli` pulls in.
COLD_START_PROBE = """
import json, math, sys
from dataclasses import replace
import numpy as np
import lfpp
import lfpp.cli
eager = sorted(m for m in sys.modules
               if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
from lfpp.config import default_config
from lfpp.experiments import EXPERIMENTS
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField
from lfpp.metric import MetricProblem, geodesic_tube_areas
from lfpp.params import LqgParams
spec = GridSpec(n=16, spacing=1.0 / 15)
prob = MetricProblem(LatticeField(spec=spec, values=np.zeros((16, 16)), kind=DETERMINISTIC),
                     LqgParams.pure_gravity())
prob.distance((0, 0), (15, 15))
csgraph_loaded = "scipy.sparse.csgraph" in sys.modules
geodesic_tube_areas(spec.spacing, (16, 16), [[(0, 0), (1, 1)]], [(2, 2)], [0.2])
ndimage_loaded = "scipy.ndimage" in sys.modules
rep = EXPERIMENTS["dufresne-check"](LqgParams.pure_gravity(), replace(default_config(), replicas=10))
print(json.dumps({"eager": eager, "csgraph_loaded": csgraph_loaded, "ndimage_loaded": ndimage_loaded,
                  "ks": rep.metrics["ks_alpha_0"], "stats_loaded": "scipy.stats" in sys.modules}))
"""


class TestColdStart:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # importing scipy (sparse and ndimage alone bring in over 400 modules)
        # or the process pool would be most of every command's start; each
        # loads on first use: csgraph with the first Dijkstra sweep, ndimage
        # with the first distance transform, scipy.stats with the Dufresne check
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["eager"] == []
        assert out["csgraph_loaded"]
        assert out["ndimage_loaded"]
        assert out["stats_loaded"]
        assert 0.0 < out["ks"] < 1.0
