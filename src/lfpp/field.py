"""Lattice approximations of the planar Gaussian free field.

Two samplers are provided, both spectral and both deterministic given a
64-bit seed:

* ``sample_zero_boundary_gff`` draws independent Gaussians on the discrete
  sine modes of the grid, weighted by the inverse square root of the
  Dirichlet Laplacian eigenvalues.  The covariance is the discrete Green
  function in the -log|x-y| convention (the one under which circle
  averages run at unit Brownian diffusivity).

* ``sample_whole_plane_gff`` synthesizes a field on a torus of twice the
  requested side, crops the requested window, and recenters so that the
  unit-circle average about the window center is exactly zero.  This is
  the finite-volume surrogate for the whole-plane field: the short-range
  covariance in the window interior is correct, boundary effects are
  pushed to the doubled torus.  The noise is real, so the synthesis runs
  on real transforms (``rfft2``/``irfft2``) against the half-spectrum the
  real transform keeps; that spectrum depends only on (n, spacing) and is
  computed per column block, just before the block is multiplied, so no
  spectrum stays resident between samples.  The inverse runs as
  ``irfft2``'s two 1-D passes; the second transforms the window's rows
  only, a block of rows at a time, and writes each block's kept columns
  straight into the n x n window, so no n x 2n array is ever held.

Fields are immutable value objects; everything downstream (mollifiers,
metrics) treats them as read-only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

ZERO_BOUNDARY = "zero-boundary-gff"
WHOLE_PLANE = "whole-plane-gff-normalized"
DETERMINISTIC = "deterministic"

FIELD_KINDS = (ZERO_BOUNDARY, WHOLE_PLANE, DETERMINISTIC)


@dataclass(frozen=True)
class GridSpec:
    """Square grid: ``n`` vertices per side, physical step ``spacing``.

    ``origin`` is the physical coordinate of the vertex with index (0, 0);
    vertex (i, j) sits at ``origin + (i*spacing, j*spacing)``.  The first
    array axis is x, the second is y.  The map between vertices and points
    of the plane lives here alone: ``point``, ``nearest`` and ``axes``.
    """

    n: int
    spacing: float
    origin: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.n >= 2**32:
            raise ValueError(f"n must be below 2**32, the field file's u32 limit, got {self.n}")
        if not (0.0 < self.spacing < math.inf):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def centered(cls, n: int, spacing: float) -> "GridSpec":
        """The grid whose center is the plane's origin."""
        half = (n - 1) * spacing / 2.0
        return cls(n=n, spacing=spacing, origin=(-half, -half))

    def point(self, i, j) -> Tuple[float, float]:
        """The physical point of vertex (i, j)."""
        return (self.origin[0] + self.spacing * i, self.origin[1] + self.spacing * j)

    def nearest(self, x: float, y: float) -> Tuple[int, int]:
        """The indices of the vertex nearest the point (x, y), as Python ints,
        unchecked: they lie outside the grid when the point does.  A
        non-finite quotient raises as ``round`` does."""
        return (int(round((x - self.origin[0]) / self.spacing)),
                int(round((y - self.origin[1]) / self.spacing)))

    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The vertices' x and y coordinates, one array per axis."""
        steps = np.arange(self.n)
        return self.origin[0] + self.spacing * steps, self.origin[1] + self.spacing * steps

    @property
    def side(self) -> float:
        return (self.n - 1) * self.spacing

    @property
    def center(self) -> Tuple[float, float]:
        return (self.origin[0] + 0.5 * self.side, self.origin[1] + 0.5 * self.side)

    def mesh(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def contains_disk(self, z: Tuple[float, float], r: float) -> bool:
        x0, y0 = self.origin
        return (
            z[0] - r >= x0
            and z[0] + r <= x0 + self.side
            and z[1] - r >= y0
            and z[1] + r <= y0 + self.side
        )


@dataclass(frozen=True)
class LatticeField:
    spec: GridSpec
    values: np.ndarray
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2**64), the field file's u64 limit, got {self.seed}")
        v = read_only(self.values)
        if v.shape != (self.spec.n, self.spec.n):
            raise ValueError(f"values shape {v.shape} != grid {self.spec.n}")
        # min and max are nan or infinite exactly when some value is; unlike
        # isfinite they allocate no n x n temporary per field built
        if not (math.isfinite(v.min()) and math.isfinite(v.max())):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def read_only(values) -> np.ndarray:
    """``values`` as a float64 array that no one can write: an array a
    caller can still write is copied, so a field never freezes its caller's
    array, and a read-only one is kept as it is."""
    v = np.asarray(values, dtype=np.float64)
    if v.flags.writeable:
        v = v.copy()
        v.setflags(write=False)
    return v


# rows (columns) per block of the sampler's row (column) transforms
_BLOCK = 64


def sample_zero_boundary_gff(spec: GridSpec, seed: int) -> LatticeField:
    """Dirichlet GFF on the grid: exact zeros on the boundary ring.

    Spectral synthesis over the discrete sine modes.  Mode (j, k) gets an
    independent standard Gaussian scaled by sqrt(2*pi / (lambda_jk * s^2)),
    with lambda_jk the eigenvalue of the 5-point Dirichlet Laplacian, so the
    covariance matrix is 2*pi * (-Laplacian)^-1 interpreted as an integral
    kernel (the -log|x-y| + harmonic-correction convention).
    """
    from scipy import fft as sfft  # loaded on first use, off the CLI's import path

    m = spec.n - 2
    s = spec.spacing
    j = np.arange(1, m + 1)
    lam1 = (4.0 / s**2) * np.sin(np.pi * j / (2.0 * (m + 1))) ** 2
    lam = lam1[:, None] + lam1[None, :]
    amp = np.sqrt(2.0 * np.pi / (lam * s**2))
    coeff = np.random.default_rng(seed).standard_normal((m, m)) * amp / (2.0 * (m + 1))
    interior = sfft.dstn(coeff, type=1)
    values = np.zeros((spec.n, spec.n))
    values[1:-1, 1:-1] = interior
    values.setflags(write=False)
    return LatticeField(spec=spec, values=values, kind=ZERO_BOUNDARY, seed=int(seed))


def _whole_plane_spectrum(n: int, spacing: float, cols: slice = slice(None)) -> np.ndarray:
    """Columns ``cols`` of the doubled torus's (2n, n + 1) half-spectrum.

    Mode (j, k) gets sqrt(2*pi / (lambda_jk * s^2)), with lambda_jk the
    eigenvalue of the periodic 5-point Laplacian, and the zero mode gets 0.
    Only the columns ``rfft2`` keeps are built; each element goes through
    the same operations whichever slice holds it, so blocks equal the
    corresponding columns of the whole array bit for bit.
    """
    big = 2 * n
    lam1 = (4.0 / spacing**2) * np.sin(np.pi * np.arange(big) / big) ** 2
    g = lam1[:, None] + lam1[None, : n + 1][:, cols]  # lambda, turned into g in place
    nz = g > 0
    g *= spacing**2
    np.divide(2.0 * np.pi, g, out=g, where=nz)
    np.sqrt(g, out=g)
    g[~nz] = 0.0
    return g


def sample_whole_plane_gff(spec: GridSpec, seed: int) -> LatticeField:
    """Whole-plane surrogate: doubled-torus spectral sample, recentered.

    The additive-constant ambiguity of the whole-plane field is fixed by
    subtracting the unit-circle average about the grid center, so the
    returned field satisfies h_1(center) = 0 up to float roundoff.
    """
    half_side = 0.5 * spec.side
    if half_side <= 1.0 + spec.spacing:
        raise ValueError(
            "window must strictly contain the unit disk about its center "
            f"(half side {half_side:.4f})"
        )
    n = spec.n
    big = 2 * n
    # rfft2, the product and the axis-0 half of irfft2, run in blocks into
    # one half-spectrum buffer; every 1-D transform is independent of the
    # others, so the buffer holds the same bits as the whole-array passes
    F = np.empty((big, n + 1), dtype=complex)
    rng = np.random.default_rng(seed)
    for r in range(0, big, _BLOCK):  # the stream is sequential: one (big, big) draw
        F[r : r + _BLOCK] = np.fft.rfft(rng.standard_normal((min(_BLOCK, big - r), big)), axis=1)
    for c in range(0, n + 1, _BLOCK):
        cols = slice(c, c + _BLOCK)
        block = np.fft.fft(F[:, cols], axis=0)
        block *= _whole_plane_spectrum(n, spec.spacing, cols)
        F[:, cols] = np.fft.ifft(block, axis=0)
    # each row's irfft is independent, so the window equals irfft2's bit for
    # bit; a block of rows at a time, so no (n, 2n) output exists
    off = n // 2
    window = np.empty((n, n))
    for r in range(0, n, _BLOCK):
        rows = slice(off + r, off + min(r + _BLOCK, n))
        window[r : r + _BLOCK] = np.fft.irfft(F[rows], n=big, axis=1)[:, off : off + n]
    del F
    window.setflags(write=False)
    raw = LatticeField(spec=spec, values=window, kind=WHOLE_PLANE, seed=int(seed))
    values = window - circle_average(raw, spec.center, 1.0)
    values.setflags(write=False)
    return LatticeField(spec=spec, values=values, kind=WHOLE_PLANE, seed=int(seed))


def bilinear(field: LatticeField, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the field at physical points, shape (m, 2)."""
    spec = field.spec
    fx = (pts[:, 0] - spec.origin[0]) / spec.spacing
    fy = (pts[:, 1] - spec.origin[1]) / spec.spacing
    eps = 1e-9
    if np.any(fx < -eps) or np.any(fy < -eps) or np.any(fx > spec.n - 1 + eps) or np.any(fy > spec.n - 1 + eps):
        raise ValueError("interpolation point outside grid window")
    fx = np.clip(fx, 0.0, spec.n - 1.0)
    fy = np.clip(fy, 0.0, spec.n - 1.0)
    i0 = np.minimum(fx.astype(np.int64), spec.n - 2)
    j0 = np.minimum(fy.astype(np.int64), spec.n - 2)
    tx = fx - i0
    ty = fy - j0
    v = field.values
    return (
        v[i0, j0] * (1 - tx) * (1 - ty)
        + v[i0 + 1, j0] * tx * (1 - ty)
        + v[i0, j0 + 1] * (1 - tx) * ty
        + v[i0 + 1, j0 + 1] * tx * ty
    )


def circle_average(field: LatticeField, z: Tuple[float, float], r: float) -> float:
    """Mean of the (bilinearly interpolated) field over the circle dB_r(z)."""
    spec = field.spec
    if r < 2.0 * spec.spacing:
        raise ValueError(f"radius {r} below resolvable scale {2 * spec.spacing}")
    if not spec.contains_disk(z, r):
        raise ValueError("circle leaves the grid window")
    npts = max(64, int(math.ceil(2.0 * math.pi * r / spec.spacing)))
    theta = 2.0 * np.pi * np.arange(npts) / npts
    pts = np.stack([z[0] + r * np.cos(theta), z[1] + r * np.sin(theta)], axis=1)
    return float(np.mean(bilinear(field, pts)))

