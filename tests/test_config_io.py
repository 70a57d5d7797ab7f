import csv
import dataclasses
import math

import numpy as np
import pytest

from lfpp.config import RunConfig, config_hash, default_config, parse_config, serialize_config
from lfpp.experiments import ExperimentReport, _check
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField, sample_zero_boundary_gff
from lfpp.io import (
    FORMAT_VERSION,
    load_field,
    save_field,
    write_geodesic_csv,
    write_suite_summary_csv,
)
from lfpp.params import LqgParams

from test_experiments import KIND_RULES


def random_config(rng):
    n = int(rng.choice([8, 16, 32, 64, 128, 256, 512]))
    spacing = float(rng.uniform(0.001, 0.1))
    origin = (float(rng.normal()), float(rng.normal()))
    k = int(rng.integers(1, 5))
    top = float(rng.uniform(0.1, 1.0))
    eps_list = tuple(top * 2.0**-a for a in range(k))
    return RunConfig(
        params=LqgParams(gamma=float(rng.uniform(0.1, 1.99)), d=float(rng.uniform(2.0, 6.0))),
        grid=GridSpec(n=n, spacing=spacing, origin=origin),
        eps_list=eps_list,
        replicas=None if rng.random() < 0.25 else int(rng.integers(1, 500)),
        master_seed=int(rng.integers(0, 2**62)),
        convention=str(rng.choice(["vertex-sum", "edge-weighted"])),
        mollifier=str(rng.choice(["heat-full", "heat-truncated"])),
        output_dir=f"out_{rng.integers(0, 100)}",
        workers=int(rng.integers(1, 8)),
    )


def write_header_only_field(path, n):
    """A field file whose header claims n but which holds no payload."""
    spec = GridSpec(n=8, spacing=0.1)
    save_field(str(path), LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC))
    raw = bytearray(path.read_bytes()[: -8 * 8 * 8])
    raw[6:10] = n.to_bytes(4, "little")  # little-endian u32 n field
    path.write_bytes(bytes(raw))


class TestConfig:
    def test_round_trip_random_configs(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            c = random_config(rng)
            assert parse_config(serialize_config(c)) == c

    def test_empty_document_gives_defaults(self):
        c = parse_config("")
        assert c == default_config()
        assert c.params.gamma == pytest.approx(math.sqrt(8.0 / 3.0))
        assert c.params.xi == pytest.approx(1.0 / math.sqrt(6.0))
        assert c.params.d == 4.0
        assert c.convention == "edge-weighted"
        assert c.mollifier == "heat-truncated"
        assert c.replicas is None
        assert "replicas" not in serialize_config(c)
        assert c.grid.center == (pytest.approx(0.0), pytest.approx(0.0))

    def test_comments_and_blanks_ignored(self):
        c = parse_config("# a comment\n\nreplicas = 7  # trailing\n")
        assert c.replicas == 7

    def test_unknown_key_fatal(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("replcias = 7\n")

    def test_duplicate_key_fatal(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("replicas = 7\nreplicas = 8\n")

    @pytest.mark.parametrize("text, message", [
        ("n = 8.0\n", "line 1: bad value for key 'n'"),
        ("gamma = abc\n", "line 1: bad value for key 'gamma'"),
        ("# workers\n\nworkers = 2.5\n", "line 3: bad value for key 'workers'"),
    ])
    def test_unreadable_value_names_its_key_and_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_malformed_line_fatal(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("replicas 7\n")

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            parse_config("gamma = 3.0\n")
        with pytest.raises(ValueError, match="gamma"):
            parse_config("gamma = 0.0\n")

    @pytest.mark.parametrize("text", [
        "gamma = 1e-300\nd = 1e300\n",  # gamma/d underflows to 0
        "gamma = 1.0\nd = 5e-324\n",  # gamma/d overflows to inf
    ], ids=["underflow", "overflow"])
    def test_xi_outside_positive_finite_rejected(self, text):
        with pytest.raises(ValueError, match="xi = gamma/d"):
            parse_config(text)

    @pytest.mark.parametrize("text, what", [
        ("d = inf", "dimension"),
        ("d = nan", "dimension"),
        ("eps_list = nan", "eps"),
        ("eps_list = inf", "eps"),
        ("spacing = inf", "spacing"),
        ("spacing = nan", "spacing"),
        ("origin_x = nan", "origin"),
        ("origin_y = -inf", "origin"),
    ])
    def test_non_finite_value_rejected(self, text, what):
        with pytest.raises(ValueError, match=what):
            parse_config(text + "\n")

    def test_n_beyond_field_header_rejected(self):
        # a power of two the field file's u32 n cannot hold
        with pytest.raises(ValueError, match=r"2\*\*32"):
            parse_config("n = 1099511627776\n")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_beyond_field_file_rejected(self, seed):
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            parse_config(f"master_seed = {seed}\n")
        assert parse_config(f"master_seed = {2**64 - 1}\n").master_seed == 2**64 - 1

    def test_bad_convention_and_mollifier(self):
        with pytest.raises(ValueError):
            parse_config("convention = manhattan\n")
        with pytest.raises(ValueError):
            parse_config("mollifier = box\n")

    def test_eps_list_validation(self):
        with pytest.raises(ValueError):
            parse_config("eps_list = 0.125,0.25\n")  # increasing
        with pytest.raises(ValueError):
            parse_config("eps_list = 0.5,0.2\n")  # non-dyadic ratio
        with pytest.raises(ValueError):
            parse_config("eps_list = \n")  # empty

    @pytest.mark.parametrize("out", ["runs#1", " out", "runs\n1"], ids=["hash", "blank", "newline"])
    def test_output_dir_the_text_cannot_hold_rejected(self, out):
        # each read back as another config: "runs", "out", or no config at all
        with pytest.raises(ValueError, match="output_dir .* cannot read back"):
            dataclasses.replace(default_config(), output_dir=out)

    @pytest.mark.parametrize("out", ["runs 1", "a=b", "x/y_z", "out"])
    def test_output_dir_round_trips(self, out):
        c = dataclasses.replace(default_config(), output_dir=out)
        assert parse_config(serialize_config(c)) == c

    def test_default_origin_recenters_with_grid(self):
        c = parse_config("n = 64\nspacing = 0.1\n")
        assert c.grid.origin[0] == pytest.approx(-63 * 0.1 / 2.0)

    def test_explicit_origin_kept(self):
        c = parse_config("origin_x = 1.5\n")
        assert c.grid.origin[0] == 1.5

    @pytest.mark.parametrize("key, axis", [("origin_x", 0), ("origin_y", 1)])
    def test_one_origin_coordinate_centers_the_other_on_its_own_grid(self, key, axis):
        # the coordinate left out comes from this config's centered grid,
        # -2.555 here, not from the default 256^2 grid's -1.025
        c = parse_config(f"n = 512\nspacing = 0.01\n{key} = 0.0\n")
        centered = GridSpec.centered(512, 0.01).origin
        assert c.grid.origin[axis] == 0.0
        assert c.grid.origin[1 - axis] == centered[1 - axis] == -2.555
        assert parse_config(serialize_config(c)) == c

    def test_hash_stable_and_sensitive(self):
        a = default_config()
        assert config_hash(a) == config_hash(default_config())
        assert config_hash(a) == "1fbecb45e238234d"  # pure gravity on the 256^2 default grid
        b = parse_config("master_seed = 1\n")
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 16
        # where a run is written does not change what it computes
        c = parse_config("master_seed = 1\noutput_dir = elsewhere\n")
        assert config_hash(c) == config_hash(b)
        assert serialize_config(c) != serialize_config(b)
        # nor how many processes compute it
        w = parse_config("master_seed = 1\nworkers = 2\n")
        assert config_hash(w) == config_hash(b)
        assert serialize_config(w) != serialize_config(b)
        # an explicit replica count is a different run from the pinned sizes
        assert config_hash(parse_config("replicas = 20\n")) != config_hash(a)


class TestFieldFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = GridSpec(n=32, spacing=1.0 / 31)
        f = sample_zero_boundary_gff(spec, 12345)
        path = tmp_path / "f.lfpf"
        save_field(str(path), f)
        g = load_field(str(path))
        assert g.spec == f.spec
        assert g.kind == f.kind
        assert g.seed == f.seed
        np.testing.assert_array_equal(g.values, f.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lfpf"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(ValueError, match="magic"):
            load_field(str(path))

    def test_retired_kind_code_rejected(self, tmp_path):
        # code 3 was the "composite" kind, which no saved field carried
        spec = GridSpec(n=8, spacing=0.1)
        path = tmp_path / "f.lfpf"
        save_field(str(path), LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC))
        raw = bytearray(path.read_bytes())
        raw[34] = 3  # the u8 kind field, after magic, version, n, spacing and origin
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown field kind code 3"):
            load_field(str(path))

    def test_bad_version_rejected(self, tmp_path):
        spec = GridSpec(n=8, spacing=0.1)
        f = LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC)
        path = tmp_path / "f.lfpf"
        save_field(str(path), f)
        raw = bytearray(path.read_bytes())
        raw[4] = FORMAT_VERSION + 1  # little-endian u16 version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_field(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        spec = GridSpec(n=8, spacing=0.1)
        f = LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC)
        path = tmp_path / "f.lfpf"
        save_field(str(path), f)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_field(str(path))

    def test_huge_header_n_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.lfpf"
        write_header_only_field(path, 2**31)
        with pytest.raises(ValueError, match="payload"):
            load_field(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.lfpf"
        path.write_bytes(b"LFPF")
        with pytest.raises(ValueError, match="truncated"):
            load_field(str(path))


class TestCsvWriters:
    def test_geodesic_csv(self, tmp_path):
        spec = GridSpec(n=8, spacing=0.5, origin=(1.0, 2.0))
        path = tmp_path / "geo.csv"
        write_geodesic_csv(
            str(path), spec, [(0, 0), (1, 1)], [0.0, 0.7], comment="master_seed=3"
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# master_seed=3"
        assert lines[1] == "step,x,y,cumulative_cost"
        assert lines[2].startswith("0,1.0,2.0,")
        assert lines[3].startswith("1,1.5,2.5,0.7")

    def test_geodesic_csv_length_mismatch(self, tmp_path):
        spec = GridSpec(n=8, spacing=0.5)
        with pytest.raises(ValueError):
            write_geodesic_csv(str(tmp_path / "x.csv"), spec, [(0, 0)], [0.0, 1.0])

    def test_suite_summary_csv(self, tmp_path):
        # every kind at its threshold, where strict and non-strict rules part
        reports = [
            ExperimentReport("demo", {}, {}, [_check("slope", -0.83, -0.8333, 0.07)], True, 1.5),
            ExperimentReport("demo2", {}, {}, [
                _check("violations", 1.0, 0.0, None, "property"),
                _check("at_upper", 1.25, 1.0, 0.25, "one-sided-upper"),
                _check("at_strict_upper", 1.25, 1.0, 0.25, "strict-upper"),
                _check("at_lower", 0.75, 1.0, 0.25, "one-sided-lower"),
                _check("at_strict_lower", 0.75, 1.0, 0.25, "strict-lower"),
                _check("off_two_sided", 1.5, 1.0, 0.25),
            ], False, 0.25),
        ]
        path = tmp_path / "suite.csv"
        write_suite_summary_csv(str(path), reports, comment="config_hash=abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "experiment,metric,value,target,tolerance,kind,pass,seconds"
        assert lines[2] == "demo,slope,-0.83,-0.8333,0.07,two-sided,1,1.5"
        assert lines[3] == "demo2,violations,1.0,0.0,,property,0,0.25"
        # each row's pass follows from the file alone, by the README's rule table
        table = list(csv.DictReader(lines[1:]))
        assert [r["pass"] for r in table] == ["1", "0", "1", "0", "1", "0", "0"]
        for r in table:
            target = None if r["target"] == "" else float(r["target"])
            tol = 0.0 if r["tolerance"] == "" else float(r["tolerance"])
            assert r["pass"] == str(int(KIND_RULES[r["kind"]](float(r["value"]), target, tol))), r
