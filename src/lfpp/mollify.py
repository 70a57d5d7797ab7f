"""Heat-kernel mollification of lattice fields, full and truncated.

Every mollifier returns a ``LatticeField`` of the base field's kind and
seed, and both pad the base by its kind: periodically for the torus-backed
whole-plane surrogate, by reflection otherwise.

The full mollifier convolves with the Gaussian kernel of per-coordinate
variance eps^2/2 (density (1/(pi*eps^2)) * exp(-|z|^2/eps^2)) by real FFT.
The kernel is
renormalized to unit mass on the grid, so constants pass through exactly.
The wrapped kernel is separable, so its spectrum is the outer product of
one 1-D transform; no 2-D kernel is built.  ``mollify_heat_ladder``
transforms the field once for a whole list of scales and yields them one
at a time; ``mollify_heat`` is its one-scale case.

The truncated mollifier multiplies the same kernel by a C^1 radial bump
that is 1 inside radius sqrt(eps)/2 and exactly 0 outside sqrt(eps), and
convolves in the spatial domain, as a direct sum over the kernel's nonzero
taps only.  A global FFT is ruled out: its roundoff would leak base values
from outside the support into every output.  The sum is folded by the
kernel's mirror symmetry, so the four base values that share a weight are
added first and multiplied once.  Zero taps are never read, so the output
at z is bit-for-bit independent of the base field outside B_sqrt(eps)(z).
This kernel is deliberately NOT renormalized: its mass is the actual mass
of psi_eps * p_(eps^2/2).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence

import numpy as np

from .field import WHOLE_PLANE, GridSpec, LatticeField

HEAT_FULL = "heat-full"
HEAT_TRUNCATED = "heat-truncated"

MOLLIFIER_KINDS = (HEAT_FULL, HEAT_TRUNCATED)


def _heat_spectrum(m: int, spacing: float, eps: float) -> np.ndarray:
    """``rfft2`` of the unit-mass Gaussian kernel on an m x m torus, centered
    at index (0, 0): shape (m, m // 2 + 1).

    The wrapped kernel is the outer product u u^T of the normalized 1-D
    profile u, whose transform is real because u is even, so its spectrum
    is the outer product of one 1-D transform with the half it keeps.
    """
    idx = np.arange(m)
    d = np.minimum(idx, m - idx) * spacing
    u = np.exp(-(d**2) / eps**2)
    u /= u.sum()
    fu = np.fft.fft(u).real
    return fu[:, None] * fu[None, : m // 2 + 1]


def mollify_heat_ladder(base: LatticeField, eps_list: Sequence[float]) -> Iterator[LatticeField]:
    """FFT convolution with the heat kernel at time eps^2/2, for each eps.

    Every scale is validated here, before anything is computed; the fields
    are then yielded one at a time, so a caller that consumes each before
    asking for the next holds one scale at a time.  A periodic field is
    transformed once and each scale only multiplies by its kernel's
    spectrum; reflective padding extends the field by min(n - 1,
    ceil(6.5 eps / s)) samples, so a reflective field is padded and
    transformed at every scale.  The ladder keeps the base values only
    until its last transform (under periodic padding, the first), so a
    caller that drops the field frees it once that scale is taken.
    """
    s = base.spec.spacing
    for eps in eps_list:
        if eps < 2.0 * s:
            raise ValueError(f"eps {eps} below resolvable scale {2 * s}")
    return _heat_ladder(base.values, base.spec, base.kind, base.seed, list(eps_list))


def _heat_ladder(base_values: np.ndarray, spec: GridSpec, kind: str, seed: int,
                 eps_list: List[float]) -> Iterator[LatticeField]:
    n, s = spec.n, spec.spacing
    for a, eps in enumerate(eps_list):
        p = 0 if kind == WHOLE_PLANE else min(n - 1, int(math.ceil(6.5 * eps / s)))
        if a == 0 or p:
            m = n + 2 * p
            # 'symmetric' repeats the edge sample, matching scipy.ndimage's
            # 'reflect' so both mollifiers see the same extension
            F = np.fft.rfft2(np.pad(base_values, p, mode="symmetric") if p else base_values)
            if not p or a == len(eps_list) - 1:
                del base_values  # no later scale reads it
        conv = np.fft.irfft2(F * _heat_spectrum(m, s, eps), s=(m, m))
        # a copy of the window, and conv dropped before the yield, so a
        # padded result does not keep the m x m array alive
        values = np.ascontiguousarray(conv[p : p + n, p : p + n])
        del conv
        values.setflags(write=False)
        yield LatticeField(spec=spec, values=values, kind=kind, seed=seed)


def mollify_heat(base: LatticeField, eps: float) -> LatticeField:
    """FFT convolution with the heat kernel at time eps^2/2."""
    return next(mollify_heat_ladder(base, [eps]))


def bump_profile(rho: np.ndarray, eps: float) -> np.ndarray:
    """C^1 radial bump: 1 on [0, sqrt(eps)/2], smoothstep down to 0 at sqrt(eps)."""
    R = math.sqrt(eps)
    t = np.clip((rho - 0.5 * R) / (0.5 * R), 0.0, 1.0)
    return 1.0 - (3.0 * t**2 - 2.0 * t**3)


def truncated_kernel(spacing: float, eps: float) -> np.ndarray:
    """Spatial kernel psi_eps * p_(eps^2/2) * spacing^2 with exact zero tail."""
    R = math.sqrt(eps)
    half = int(math.floor(R / spacing))
    idx = np.arange(-half, half + 1) * spacing
    rho = np.hypot(idx[:, None], idx[None, :])
    gauss = (1.0 / (math.pi * eps**2)) * np.exp(-(rho**2) / eps**2)
    k = bump_profile(rho, eps) * gauss * spacing**2
    k[rho >= R] = 0.0
    return k


def _symmetric_direct_sum(values: np.ndarray, k: np.ndarray, pad_mode: str) -> np.ndarray:
    """Convolve with a mirror-symmetric (2h+1)^2 kernel, summing nonzero taps only.

    ``pad_mode`` is the ``np.pad`` extension of the base field ("wrap" or
    "symmetric").  For each row offset a >= 0 the padded rows at +a and -a
    are added once; for each nonzero tap b >= 0 in that row the column
    shifts at +b and -b are added, multiplied once by k[h+a, h+b] and
    accumulated.  The order of the sum is fixed, and base values at zero
    taps never enter it.
    """
    h = (k.shape[0] - 1) // 2
    n0, n1 = values.shape
    padded = np.pad(values, h, mode=pad_mode)
    out = np.zeros((n0, n1))
    tmp = np.empty((n0, n1))
    for a in range(h + 1):
        taps = np.flatnonzero(k[h + a, h:])
        if taps.size == 0:
            continue
        rows = padded[h + a : h + a + n0]
        if a:
            rows = rows + padded[h - a : h - a + n0]
        for b in taps:
            cols = rows[:, h + b : h + b + n1]
            if b:
                cols = np.add(cols, rows[:, h - b : h - b + n1], out=tmp)
            out += np.multiply(cols, k[h + a, h + b], out=tmp)
    return out


def mollify_truncated(base: LatticeField, eps: float) -> LatticeField:
    """Spatial convolution with the bump-truncated heat kernel.

    A symmetric-folded direct sum over the kernel's nonzero taps (see
    ``_symmetric_direct_sum``), with the base field extended periodically
    or by reflection.  The value at z depends only on base values inside
    B_sqrt(eps)(z), exactly: a base value at a zero tap is never read.
    """
    s = base.spec.spacing
    if math.sqrt(eps) < 4.0 * s:
        raise ValueError(f"truncation radius sqrt({eps}) below 4*spacing = {4 * s}")
    extension = "wrap" if base.kind == WHOLE_PLANE else "symmetric"
    k = truncated_kernel(s, eps)
    out = _symmetric_direct_sum(base.values, k, extension)
    out.setflags(write=False)
    return LatticeField(spec=base.spec, values=out, kind=base.kind, seed=base.seed)


def mollify(base: LatticeField, eps: float, kind: str) -> LatticeField:
    if kind == HEAT_FULL:
        return mollify_heat(base, eps)
    if kind == HEAT_TRUNCATED:
        return mollify_truncated(base, eps)
    raise ValueError(f"unknown mollifier kind {kind!r}")


def subsample(mf: LatticeField, stride: int) -> LatticeField:
    """Coarsen a mollified lattice by an integer stride (metric lattices).

    Keeps the field's kind and seed; only the lattice the metric will be
    built on changes.  The coarse step may equal eps (the discretized-LFPP
    coupling), which is why resolvability is enforced at mollification
    time, not here.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if stride == 1:
        return mf
    # a copy, so the coarse field does not keep the fine values alive
    sub = mf.values[::stride, ::stride].copy()
    sub.setflags(write=False)
    spec = GridSpec(
        n=sub.shape[0], spacing=mf.spec.spacing * stride, origin=mf.spec.origin
    )
    return LatticeField(spec=spec, values=sub, kind=mf.kind, seed=mf.seed)
