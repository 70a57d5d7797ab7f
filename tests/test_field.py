
import dataclasses
import tracemalloc

import numpy as np
import pytest

from lfpp.field import (
    GridSpec,
    LatticeField,
    DETERMINISTIC,
    _whole_plane_spectrum,
    bilinear,
    circle_average,
    sample_whole_plane_gff,
    sample_zero_boundary_gff,
)
from lfpp.experiments import relative_gaps, scaling_relation_sides
from lfpp.metric import EDGE_WEIGHTED, VERTEX_SUM
from lfpp.mollify import mollify_heat
from lfpp.params import LqgParams
from lfpp.seeds import replica_seed

PARAMS = LqgParams.pure_gravity()


def centered_spec(n, side):
    return GridSpec.centered(n, side / (n - 1))


def random_specs(count, seed=21):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        origin = tuple(rng.normal(0.0, 10.0, 2) * 10.0 ** rng.integers(-3, 3))
        yield GridSpec(n=int(rng.choice([8, 16, 32, 64])), spacing=float(10.0 ** rng.uniform(-4, 1)),
                       origin=origin)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        for bad in (0, 4, 7, 12, 100):
            with pytest.raises(ValueError):
                GridSpec(n=bad, spacing=0.1)

    @pytest.mark.parametrize("n", [256.0, "256"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            GridSpec(n=n, spacing=0.1)

    def test_numpy_integer_n_stored_as_int(self):
        assert type(GridSpec(n=np.int64(16), spacing=0.1).n) is int

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(n=16, spacing=0.0)

    def test_side_center_axis(self):
        spec = GridSpec(n=16, spacing=0.5, origin=(1.0, -2.0))
        assert spec.side == pytest.approx(7.5)
        assert spec.center == (pytest.approx(4.75), pytest.approx(1.75))
        xx, yy = spec.mesh()
        assert xx[3, 0] == pytest.approx(1.0 + 3 * 0.5)
        assert yy[0, 3] == pytest.approx(-2.0 + 3 * 0.5)

    def test_nearest_inverts_point(self):
        for spec in random_specs(24):
            for i in range(spec.n):
                for j in range(spec.n):
                    v = spec.nearest(*spec.point(i, j))
                    assert v == (i, j) and type(v[0]) is type(v[1]) is int

    def test_nearest_is_unchecked(self):
        spec = GridSpec(n=8, spacing=0.5, origin=(1.0, 1.0))
        assert spec.nearest(-0.3, 9.0) == (-3, 16)
        with pytest.raises(OverflowError):
            spec.nearest(float("inf"), 0.0)

    def test_axes_and_mesh_hold_the_points(self):
        for spec in random_specs(8):
            xs, ys = spec.axes()
            xx, yy = spec.mesh()
            for i in range(spec.n):
                x, y = spec.point(i, i)
                assert xs[i] == x and ys[i] == y
                assert np.all(xx[i] == x) and np.all(yy[:, i] == y)

    @pytest.mark.parametrize("n", [8, 64, 256, 512, 1024])
    def test_centered_keeps_the_old_expressions(self, n):
        # the expressions the protocols and the config used before centering
        # moved here; every origin must come out bit for bit the same
        for side in (1.0, 2.02, 2.05, 2.5, 4.1, *np.random.default_rng(n).uniform(0.01, 100.0, 20)):
            s = side / (n - 1)
            half = (n - 1) * s / 2.0
            spec = GridSpec.centered(n, side / (n - 1))
            assert spec == GridSpec(n=n, spacing=s, origin=(-half, -half))
            assert spec.origin == (-((n - 1) * s / 2.0),) * 2
            assert spec.center == (0.0, 0.0)

    def test_containment(self):
        spec = GridSpec(n=16, spacing=0.1, origin=(0.0, 0.0))
        assert spec.contains_disk((0.75, 0.75), 0.5)
        assert not spec.contains_disk((0.75, 0.75), 0.8)


class TestLatticeField:
    def test_holds_spec_values_kind_seed_only(self):
        assert [f.name for f in dataclasses.fields(LatticeField)] == ["spec", "values", "kind", "seed"]

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_beyond_field_file_rejected(self, seed):
        spec = GridSpec(n=8, spacing=0.1)
        with pytest.raises(ValueError, match="u64"):
            LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC, seed=seed)

    def test_largest_file_seed_accepted(self):
        spec = GridSpec(n=8, spacing=0.1)
        assert LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC, seed=2**64 - 1).seed == 2**64 - 1

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(n=8, spacing=0.1)
        with pytest.raises(ValueError):
            LatticeField(spec=spec, values=np.zeros((4, 4)), kind=DETERMINISTIC)

    def test_non_finite_rejected(self):
        spec = GridSpec(n=8, spacing=0.1)
        vals = np.zeros((8, 8))
        vals[2, 3] = np.nan
        with pytest.raises(ValueError):
            LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)

    def test_values_read_only(self):
        spec = GridSpec(n=8, spacing=0.1)
        f = LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_unknown_kind_rejected(self):
        spec = GridSpec(n=8, spacing=0.1)
        with pytest.raises(ValueError):
            LatticeField(spec=spec, values=np.zeros((8, 8)), kind="bogus")

    def test_caller_array_not_frozen(self):
        spec = GridSpec(n=8, spacing=0.1)
        v = np.zeros((8, 8))
        f = LatticeField(spec=spec, values=v, kind=DETERMINISTIC)
        v[0, 0] = 1.0  # the caller's array stays writable
        assert f.values[0, 0] == 0.0  # and the field does not see the write
        assert not f.values.flags.writeable
        # an array no one can write is kept as it is
        frozen = np.zeros((8, 8))
        frozen.setflags(write=False)
        assert LatticeField(spec=spec, values=frozen, kind=DETERMINISTIC).values is frozen


def dirichlet_green_diagonal(spec, index):
    """Direct eigen-sum for Var(h(x)) at a grid vertex of the Dirichlet field.

    Independent of the DST synthesis path: sums 2*pi * v_jk(x)^2 / (lambda_jk
    * s^2) over all retained modes with orthonormal eigenvectors v_jk.
    """
    m = spec.n - 2
    s = spec.spacing
    ix, iy = index
    if not (1 <= ix <= m and 1 <= iy <= m):
        raise ValueError("index must be an interior vertex")
    j = np.arange(1, m + 1)
    lam1 = (4.0 / s**2) * np.sin(np.pi * j / (2.0 * (m + 1))) ** 2
    lam = lam1[:, None] + lam1[None, :]
    vx = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * j * ix / (m + 1))
    vy = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * j * iy / (m + 1))
    v2 = (vx[:, None] * vy[None, :]) ** 2
    return float(np.sum(2.0 * np.pi * v2 / (lam * s**2)))


class TestZeroBoundarySampler:
    def test_boundary_exactly_zero(self):
        spec = GridSpec(n=32, spacing=1.0 / 31)
        f = sample_zero_boundary_gff(spec, 7)
        assert np.all(f.values[0, :] == 0.0)
        assert np.all(f.values[-1, :] == 0.0)
        assert np.all(f.values[:, 0] == 0.0)
        assert np.all(f.values[:, -1] == 0.0)

    def test_deterministic_given_seed(self):
        spec = GridSpec(n=32, spacing=1.0 / 31)
        a = sample_zero_boundary_gff(spec, 11)
        b = sample_zero_boundary_gff(spec, 11)
        c = sample_zero_boundary_gff(spec, 12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_pointwise_variance_matches_eigensum(self):
        # empirical variance at an interior vertex against the direct
        # eigen-sum for the covariance diagonal, an independent computation
        spec = GridSpec(n=16, spacing=1.0 / 15)
        idx = (8, 8)
        target = dirichlet_green_diagonal(spec, idx)
        reps = 4000
        vals = np.array([
            sample_zero_boundary_gff(spec, 10_000 + k).values[idx] for k in range(reps)
        ])
        assert vals.var(ddof=1) == pytest.approx(target, rel=0.1)

    def test_green_diagonal_rejects_boundary(self):
        spec = GridSpec(n=16, spacing=1.0 / 15)
        with pytest.raises(ValueError):
            dirichlet_green_diagonal(spec, (0, 5))


class TestWholePlaneSampler:
    def test_unit_circle_average_recentered_to_zero(self):
        spec = centered_spec(128, 2.5)
        f = sample_whole_plane_gff(spec, 3)
        assert abs(circle_average(f, spec.center, 1.0)) < 1e-10

    def test_window_must_contain_unit_disk(self):
        spec = centered_spec(64, 1.5)
        with pytest.raises(ValueError):
            sample_whole_plane_gff(spec, 0)

    def test_deterministic_given_seed(self):
        spec = centered_spec(64, 2.5)
        a = sample_whole_plane_gff(spec, 5)
        b = sample_whole_plane_gff(spec, 5)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_complex_fft_reference(self, seed):
        # the doubled-torus synthesis through full complex transforms
        spec = centered_spec(64, 2.5)
        n, s = spec.n, spec.spacing
        big = 2 * n
        lam1 = (4.0 / s**2) * np.sin(np.pi * np.arange(big) / big) ** 2
        lam = lam1[:, None] + lam1[None, :]
        g = np.zeros_like(lam)
        g[lam > 0] = np.sqrt(2.0 * np.pi / (s**2 * lam[lam > 0]))
        w = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((big, big))
        torus = np.fft.ifft2(np.fft.fft2(w) * g).real
        window = torus[n // 2 : n // 2 + n, n // 2 : n // 2 + n]
        raw = LatticeField(spec=spec, values=window, kind=DETERMINISTIC)
        want = window - circle_average(raw, spec.center, 1.0)
        got = sample_whole_plane_gff(spec, seed)
        assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()
        assert abs(circle_average(got, spec.center, 1.0)) < 1e-10

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_equals_whole_torus_irfft2(self, n, seed):
        # the sampler inverse-transforms only the window rows; the result
        # must equal the whole-torus irfft2 window bit for bit
        spec = centered_spec(n, 2.5)
        big = 2 * n
        noise = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal((big, big))
        spectrum = np.fft.rfft2(noise) * _whole_plane_spectrum(n, spec.spacing)
        torus = np.fft.irfft2(spectrum, s=(big, big))
        window = torus[n // 2 : n // 2 + n, n // 2 : n // 2 + n]
        raw = LatticeField(spec=spec, values=window, kind=DETERMINISTIC)
        want = window - circle_average(raw, spec.center, 1.0)
        assert np.array_equal(sample_whole_plane_gff(spec, seed).values, want)

    @pytest.mark.parametrize("n", [64, 512])
    def test_spectrum_equals_direct_formula(self, n):
        # the spectrum is built in place, whole or by column block; its bits
        # must be the direct formula's
        s = 2.02 / (n - 1)
        big = 2 * n
        lam1 = (4.0 / s**2) * np.sin(np.pi * np.arange(big) / big) ** 2
        lam = lam1[:, None] + lam1[None, : n + 1]
        want = np.zeros_like(lam)
        nz = lam > 0
        want[nz] = np.sqrt(2.0 * np.pi / (s**2 * lam[nz]))
        got = _whole_plane_spectrum(n, s)
        assert got.shape == (2 * n, n + 1)
        assert np.array_equal(got, want)
        for cols in (slice(0, 64), slice(n - 63, n + 1), slice(n // 2, n // 2 + 1)):
            assert np.array_equal(_whole_plane_spectrum(n, s, cols), want[:, cols])

    def test_traced_peak_below_two_half_spectra(self):
        # the noise and the forward and column transforms run in blocks into
        # one half-spectrum buffer, so a sample holds less than two of them
        spec = centered_spec(256, 2.02)
        sample_whole_plane_gff(spec, 2)  # FFT plans are not the sample's
        buffer_bytes = 2 * spec.n * (spec.n + 1) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            sample_whole_plane_gff(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * buffer_bytes

    def test_traced_peak_below_half_spectrum_and_one_and_a_half_windows(self):
        # the window's rows are inverse-transformed a block at a time into
        # the n x n result, so no n x 2n output sits beside the buffer
        spec = centered_spec(512, 2.02)
        sample_whole_plane_gff(spec, 2)  # FFT plans are not the sample's
        buffer_bytes = 2 * spec.n * (spec.n + 1) * np.dtype(complex).itemsize
        window_bytes = spec.n * spec.n * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            sample_whole_plane_gff(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffer_bytes + 1.5 * window_bytes, (peak - buffer_bytes) / window_bytes

    def test_sampling_leaves_nothing_resident(self):
        # the spectrum is computed per column block, so no (2n, n + 1)
        # array outlives a sample; the traced grid is one no other test
        # samples, so nothing about it is built before tracing starts
        sample_whole_plane_gff(centered_spec(128, 2.5), 0)  # imports and FFT plans
        spec = centered_spec(128, 2.3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for seed in (4, 5):
                sample_whole_plane_gff(spec, seed)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 8 * 1024


class TestBilinear:
    def test_reproduces_bilinear_functions_exactly(self):
        spec = GridSpec(n=16, spacing=0.25, origin=(-1.0, 2.0))
        xx, yy = spec.mesh()
        vals = 2.0 + 3.0 * xx - yy + 0.5 * xx * yy
        f = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
        rng = np.random.default_rng(0)
        pts = np.stack([
            rng.uniform(-1.0, -1.0 + spec.side, 50),
            rng.uniform(2.0, 2.0 + spec.side, 50),
        ], axis=1)
        expect = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        np.testing.assert_allclose(bilinear(f, pts), expect, rtol=1e-12, atol=1e-12)

    def test_rejects_outside_window(self):
        spec = GridSpec(n=16, spacing=0.25)
        f = LatticeField(spec=spec, values=np.zeros((16, 16)), kind=DETERMINISTIC)
        with pytest.raises(ValueError):
            bilinear(f, np.array([[50.0, 0.0]]))


class TestCircleAverage:
    def test_constant_field(self):
        spec = centered_spec(64, 2.0)
        f = LatticeField(spec=spec, values=np.full((64, 64), 3.25), kind=DETERMINISTIC)
        assert circle_average(f, (0.0, 0.0), 0.5) == pytest.approx(3.25, abs=1e-12)

    def test_linear_field_averages_to_center_value(self):
        spec = centered_spec(64, 2.0)
        xx, yy = spec.mesh()
        f = LatticeField(spec=spec, values=1.0 + 2.0 * xx - 0.5 * yy, kind=DETERMINISTIC)
        assert circle_average(f, (0.1, -0.2), 0.5) == pytest.approx(1.0 + 0.2 + 0.1, abs=1e-9)

    def test_under_resolved_radius_rejected(self):
        spec = centered_spec(64, 2.0)
        f = LatticeField(spec=spec, values=np.zeros((64, 64)), kind=DETERMINISTIC)
        with pytest.raises(ValueError):
            circle_average(f, (0.0, 0.0), spec.spacing)

    def test_circle_leaving_window_rejected(self):
        spec = centered_spec(64, 2.0)
        f = LatticeField(spec=spec, values=np.zeros((64, 64)), kind=DETERMINISTIC)
        with pytest.raises(ValueError):
            circle_average(f, (0.9, 0.0), 0.5)


class TestScalingRelation:
    """``scaling_relation_sides`` on the grid centered_spec(128, 4.2): the
    rescaling identity is exact for a constant field under both conventions,
    and for every field under vertex-sum."""

    spec = centered_spec(128, 4.2)
    eps = 2 ** -3

    @pytest.mark.parametrize("convention", [VERTEX_SUM, EDGE_WEIGHTED])
    def test_constant_field_exact(self, convention):
        const = LatticeField(spec=self.spec, values=np.full((128, 128), 1.3), kind=DETERMINISTIC)
        gaps = relative_gaps(scaling_relation_sides(const, mollify_heat(const, self.eps), PARAMS,
                                                    convention, 10, np.random.default_rng(0)))
        assert gaps.shape == (10,)
        assert np.abs(gaps).max() <= 1e-12

    def test_sampled_field_exact_under_vertex_sum(self):
        h = sample_whole_plane_gff(self.spec, 9)
        gaps = relative_gaps(scaling_relation_sides(h, mollify_heat(h, self.eps), PARAMS, VERTEX_SUM, 20,
                                                    np.random.default_rng(1)))
        assert gaps.shape == (20,)
        assert np.abs(gaps).max() <= 1e-12


class TestSeeds:
    def test_replica_seed_deterministic_and_distinct(self):
        a = replica_seed(42, 0)
        assert a == replica_seed(42, 0)
        assert a != replica_seed(42, 1)
        assert replica_seed(42, 1, 2) != replica_seed(42, 1, 3)
