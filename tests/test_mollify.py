import math
import weakref

import numpy as np
import pytest

from lfpp.field import (
    DETERMINISTIC,
    WHOLE_PLANE,
    GridSpec,
    LatticeField,
    sample_whole_plane_gff,
    sample_zero_boundary_gff,
)
from lfpp.mollify import (
    HEAT_FULL,
    HEAT_TRUNCATED,
    _heat_spectrum,
    bump_profile,
    mollify,
    mollify_heat,
    mollify_heat_ladder,
    mollify_truncated,
    subsample,
    truncated_kernel,
)


def unit_spec(n=128):
    return GridSpec(n=n, spacing=1.0 / (n - 1))


def constant_field(spec, value):
    return LatticeField(spec=spec, values=np.full((spec.n, spec.n), value), kind=DETERMINISTIC)


def padded_by(padding, values, spec):
    """The values as a field whose kind selects ``padding``."""
    kind = WHOLE_PLANE if padding == "periodic" else DETERMINISTIC
    return LatticeField(spec=spec, values=values, kind=kind)


class TestHeatMollifier:
    def test_constant_passes_through(self):
        spec = unit_spec()
        for padding in ("reflective", "periodic"):
            out = mollify_heat(padded_by(padding, np.full((spec.n, spec.n), 2.5), spec), 2 ** -4)
            np.testing.assert_allclose(out.values, 2.5, rtol=1e-12)

    def test_fourier_mode_damping(self):
        # on the torus, the mode sin(2*pi*k*x/L) is an eigenfunction of the
        # convolution with damping factor exp(-(pi*k*eps/L)^2)
        n = 256
        spec = GridSpec(n=n, spacing=1.0 / n)  # torus period L = n*spacing = 1
        i = np.arange(n)
        vals = np.sin(2.0 * np.pi * i / n)[:, None] * np.ones((1, n))
        f = LatticeField(spec=spec, values=vals, kind=WHOLE_PLANE)  # periodic padding
        eps = 2 ** -4
        out = mollify_heat(f, eps)
        factor = math.exp(-((math.pi * 1 * eps) / 1.0) ** 2)
        np.testing.assert_allclose(out.values, factor * vals, atol=2e-4)

    def test_under_resolved_eps_rejected(self):
        spec = unit_spec()
        with pytest.raises(ValueError):
            mollify_heat(constant_field(spec, 0.0), spec.spacing)

    def test_whole_plane_defaults_to_periodic(self):
        spec = GridSpec(n=64, spacing=2.5 / 63, origin=(-1.25, -1.25))
        f = sample_whole_plane_gff(spec, 4)
        eps = 2 ** -3
        out = mollify_heat(f, eps)
        assert (out.kind, out.seed) == (f.kind, f.seed)
        # a whole-plane field is convolved on its own torus, with no padding
        torus = np.fft.irfft2(np.fft.rfft2(f.values) * _heat_spectrum(64, spec.spacing, eps), s=(64, 64))
        assert np.array_equal(out.values, torus)
        reflective = mollify_heat(padded_by("reflective", f.values, spec), eps)
        assert not np.allclose(out.values, reflective.values)

    @pytest.mark.parametrize("m", [64, 64 + 2 * 26])
    def test_separable_spectrum_matches_2d_kernel(self, m):
        # the periodic size n and a reflective size n + 2p
        s, eps = 1.0 / 63, 4.0 / 63
        idx = np.arange(m)
        d = np.minimum(idx, m - idx) * s
        k = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / eps**2)
        want = np.fft.rfft2(k / k.sum())
        got = _heat_spectrum(m, s, eps)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("padding", ["periodic", "reflective"])
    def test_ladder_equals_single_scale(self, padding):
        spec = GridSpec(n=128, spacing=2.5 / 127, origin=(-1.25, -1.25))
        f = padded_by(padding, sample_whole_plane_gff(spec, 9).values, spec)
        # the reflective widths are 26, 26, 14 and 13 samples
        eps_list = [4 * spec.spacing, 3.9 * spec.spacing, 2.1 * spec.spacing, 2 * spec.spacing]
        ladder = list(mollify_heat_ladder(f, eps_list))
        assert len(ladder) == len(eps_list)
        for eps, mf in zip(eps_list, ladder):
            single = mollify_heat(f, eps)
            assert mf.kind == single.kind == f.kind
            assert np.array_equal(mf.values, single.values)

    @pytest.mark.parametrize("padding, kept", [("periodic", 0), ("reflective", 3)])
    def test_ladder_releases_its_field(self, padding, kept):
        # the ladder keeps the base values only until its last transform: the
        # first under periodic padding, the last of four under reflective
        spec = GridSpec(n=128, spacing=2.5 / 127, origin=(-1.25, -1.25))
        f = padded_by(padding, sample_whole_plane_gff(spec, 9).values, spec)
        field, values = weakref.ref(f), weakref.ref(f.values)
        ladder = mollify_heat_ladder(f, [4 * spec.spacing, 3.9 * spec.spacing, 2.1 * spec.spacing,
                                         2 * spec.spacing])
        del f
        taken = [next(ladder)]
        assert field() is None
        while values() is not None:
            taken.append(next(ladder))
        assert len(taken) - 1 == kept

    def test_ladder_validates_every_scale(self):
        spec = unit_spec()
        with pytest.raises(ValueError, match="resolvable"):
            mollify_heat_ladder(constant_field(spec, 0.0), [2 ** -4, spec.spacing])


class TestTruncatedMollifier:
    def test_kernel_tail_exactly_zero(self):
        s = 2 ** -7
        eps = 2 ** -4
        k = truncated_kernel(s, eps)
        half = (k.shape[0] - 1) // 2
        idx = np.arange(-half, half + 1) * s
        rho = np.hypot(idx[:, None], idx[None, :])
        assert np.all(k[rho >= math.sqrt(eps)] == 0.0)
        assert np.all(k[rho < 0.5 * math.sqrt(eps)] > 0.0)
        assert 0.0 < k.sum() < 1.0  # deliberately not mass-renormalized

    def test_bump_profile_shape(self):
        eps = 0.25
        R = math.sqrt(eps)
        rho = np.array([0.0, 0.49 * R, 0.5 * R, 0.75 * R, R, 2 * R])
        b = bump_profile(rho, eps)
        assert b[0] == 1.0 and b[1] == 1.0 and b[2] == 1.0
        assert 0.0 < b[3] < 1.0
        assert b[4] == 0.0 and b[5] == 0.0
        # C^1: smoothstep has zero slope at both ends of the ramp
        d = 1e-6
        assert bump_profile(np.array([0.5 * R + d]), eps)[0] == pytest.approx(1.0, abs=1e-9)
        assert bump_profile(np.array([R - d]), eps)[0] == pytest.approx(0.0, abs=1e-9)

    def test_constant_scales_by_kernel_mass(self):
        spec = GridSpec(n=128, spacing=2 ** -7)
        eps = 2 ** -4
        f = constant_field(spec, 2.0)
        out = mollify_truncated(f, eps)
        mass = truncated_kernel(spec.spacing, eps).sum()
        np.testing.assert_allclose(out.values, 2.0 * mass, rtol=1e-12)

    def test_bit_exact_locality(self):
        # values at the center must not move at all when the field changes
        # beyond the truncation radius
        spec = GridSpec(n=128, spacing=2 ** -7)
        eps = 2 ** -4
        radius = math.sqrt(eps)
        base = sample_zero_boundary_gff(spec, 21)
        center = (64, 64)
        xx, yy = spec.mesh()
        cx = spec.origin[0] + center[0] * spec.spacing
        cy = spec.origin[1] + center[1] * spec.spacing
        far = np.hypot(xx - cx, yy - cy) > radius + 2 * spec.spacing
        tampered = base.values.copy()
        tampered[far] += 100.0
        f2 = LatticeField(spec=spec, values=tampered, kind=DETERMINISTIC)
        a = mollify_truncated(LatticeField(spec=spec, values=base.values, kind=DETERMINISTIC), eps)
        b = mollify_truncated(f2, eps)
        assert a.values[center] == b.values[center]

    @pytest.mark.parametrize("padding, center", [("reflective", (64, 64)), ("periodic", (5, 120))])
    def test_zero_taps_inside_kernel_box_never_read(self, padding, center):
        # tamper only the lattice offsets inside the (2h+1)^2 kernel box whose
        # kernel entry is exactly 0; a sum that gave one of them a nonzero
        # weight, e.g. by pairing a weight with an offset outside the support,
        # would move the center value.  The periodic center's box wraps
        # across two edges of the grid.
        spec = GridSpec(n=128, spacing=2 ** -7)
        eps = 2 ** -4
        k = truncated_kernel(spec.spacing, eps)
        h = (k.shape[0] - 1) // 2
        da, db = np.nonzero(k == 0.0)
        assert da.size > 0
        rows = (center[0] + da - h) % spec.n
        cols = (center[1] + db - h) % spec.n
        if padding == "reflective":
            assert rows.min() == center[0] - h and rows.max() == center[0] + h
        base = sample_zero_boundary_gff(spec, 21).values
        tampered = base.copy()
        tampered[rows, cols] += 100.0 + np.arange(da.size)
        a, b = (mollify_truncated(padded_by(padding, v, spec), eps) for v in (base, tampered))
        assert a.values[center] == b.values[center]
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "spacing, eps",
        [(2.05 / 255, 2.0 ** -m) for m in (3, 4, 5, 6)]
        + [(2 ** -7, 2 ** -4), (1 / 15, 1.0), (0.013, 0.3)],
    )
    def test_kernel_mirror_symmetric(self, spacing, eps):
        # the folded direct sum gives the four taps (+-a, +-b) one weight
        k = truncated_kernel(spacing, eps)
        assert np.array_equal(k, k.T)
        assert np.array_equal(k, k[::-1, :])
        assert np.array_equal(k, k[:, ::-1])

    @pytest.mark.parametrize("padding, boundary", [("periodic", "wrap"), ("reflective", "symm")])
    @pytest.mark.parametrize(
        "n, spacing, eps",
        [(16, 1 / 15, 1.0), (16, 1 / 15, 0.25), (128, 2 ** -7, 2 ** -4)],
    )
    def test_matches_convolve2d_oracle(self, padding, boundary, n, spacing, eps):
        # scipy.signal is imported here only: convolve2d is the reference
        from scipy import signal

        spec = GridSpec(n=n, spacing=spacing)
        vals = np.random.default_rng(n).standard_normal((n, n))
        base = padded_by(padding, vals, spec)
        k = truncated_kernel(spacing, eps)
        out = mollify_truncated(base, eps)
        assert out.kind == base.kind
        ref = signal.convolve2d(vals, k, mode="same", boundary=boundary)
        assert np.abs(out.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_under_resolved_truncation_rejected(self):
        spec = GridSpec(n=16, spacing=0.1)
        with pytest.raises(ValueError):
            mollify_truncated(constant_field(spec, 0.0), 0.01)

    def test_gap_to_full_mollifier_shrinks_with_eps(self):
        spec = GridSpec(n=128, spacing=2 ** -7)
        f = sample_zero_boundary_gff(spec, 5)
        gaps = [
            np.abs(mollify_heat(f, e).values - mollify_truncated(f, e).values).max()
            for e in (2 ** -3, 2 ** -4, 2 ** -5)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestDispatchAndViews:
    def test_mollify_dispatch(self):
        spec = GridSpec(n=128, spacing=2 ** -7)
        f = sample_zero_boundary_gff(spec, 3)
        assert np.array_equal(mollify(f, 2 ** -4, HEAT_FULL).values, mollify_heat(f, 2 ** -4).values)
        assert np.array_equal(mollify(f, 2 ** -4, HEAT_TRUNCATED).values,
                              mollify_truncated(f, 2 ** -4).values)
        with pytest.raises(ValueError):
            mollify(f, 2 ** -4, "box")

    def test_subsample(self):
        spec = GridSpec(n=64, spacing=0.01)
        f = constant_field(spec, 0.0)
        mf = mollify_heat(f, 0.05)
        sub = subsample(mf, 4)
        assert sub.spec.n == 16
        assert sub.spec.spacing == pytest.approx(0.04)
        assert (sub.kind, sub.seed) == (mf.kind, mf.seed)
        np.testing.assert_array_equal(sub.values, mf.values[::4, ::4])
        assert subsample(mf, 1) is mf
        with pytest.raises(ValueError):
            subsample(mf, 0)

    def test_constant_and_explicit_wrappers(self):
        spec = GridSpec(n=16, spacing=0.1)
        vals = np.arange(256, dtype=float).reshape(16, 16)
        fv = LatticeField(spec=spec, values=vals, kind=DETERMINISTIC)
        np.testing.assert_array_equal(fv.values, vals)

    def test_package_exports(self):
        import lfpp
        import lfpp.field
        import lfpp.mollify

        assert all(hasattr(lfpp, name) for name in lfpp.__all__)
        for gone in ("MollifiedField", "from_values"):
            assert not hasattr(lfpp, gone)
            assert not hasattr(lfpp.mollify, gone)
        assert not hasattr(lfpp, "rescale_field")
        assert not hasattr(lfpp.field, "rescale_field")

    def test_values_shape_validated(self):
        spec = GridSpec(n=16, spacing=0.1)
        with pytest.raises(ValueError):
            LatticeField(spec=spec, values=np.zeros((8, 8)), kind=DETERMINISTIC)
