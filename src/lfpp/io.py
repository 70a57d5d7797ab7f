"""Artifact persistence: binary field files, CSV tables, JSON reports.

The binary field format is fixed and versioned:
magic "LFPF", version u16, n u32, spacing f64, origin 2 x f64, kind u8,
seed u64, followed by n*n little-endian f64 values in row-major order.
The kind codes are 0 zero-boundary GFF, 1 whole-plane GFF and
2 deterministic; code 3, a retired "composite" kind, no longer loads.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .field import DETERMINISTIC, WHOLE_PLANE, ZERO_BOUNDARY, GridSpec, LatticeField

if TYPE_CHECKING:
    from .experiments import ExperimentReport

MAGIC = b"LFPF"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHIdddBQ")

_KIND_CODES = {
    ZERO_BOUNDARY: 0,
    WHOLE_PLANE: 1,
    DETERMINISTIC: 2,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def save_field(path: str, field: LatticeField) -> None:
    spec = field.spec
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        spec.n,
        spec.spacing,
        spec.origin[0],
        spec.origin[1],
        _KIND_CODES[field.kind],
        field.seed,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path: str) -> LatticeField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated field file header")
        magic, version, n, spacing, ox, oy, kind_code, seed = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a field file")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported field file version {version}")
        if kind_code not in _CODE_KINDS:
            raise ValueError(f"unknown field kind code {kind_code}")
        spec = GridSpec(n=int(n), spacing=float(spacing), origin=(float(ox), float(oy)))
        # size the payload from the file before reading it: a corrupt n must
        # not become a huge read
        size = 8 * n * n
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != size:
            what = "truncated" if held < size else "oversized"
            raise ValueError(f"{what} field file payload: {held} bytes, the header's n = {n} needs {size}")
        payload = fh.read(size)
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(np.float64)
    values.setflags(write=False)
    return LatticeField(spec=spec, values=values, kind=_CODE_KINDS[kind_code], seed=int(seed))


def _comment_line(fh, comment: Optional[str]) -> None:
    if comment is not None:
        fh.write(f"# {comment}\n")


def write_geodesic_csv(path: str, spec: GridSpec, geodesic: Sequence[Tuple[int, int]], costs: Sequence[float],
                       comment: Optional[str] = None) -> None:
    """Geodesic table: (step, x, y, cumulative_cost), physical coordinates."""
    if len(geodesic) != len(costs):
        raise ValueError("geodesic and cumulative costs must have equal length")
    with open(path, "w", newline="") as fh:
        _comment_line(fh, comment)
        w = csv.writer(fh)
        w.writerow(["step", "x", "y", "cumulative_cost"])
        for k, ((i, j), c) in enumerate(zip(geodesic, costs)):
            x, y = spec.point(i, j)
            w.writerow([k, repr(x), repr(y), repr(float(c))])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_suite_summary_csv(path: str, reports: Sequence[ExperimentReport],
                            comment: Optional[str] = None) -> None:
    """Suite table: one row per check of each experiment report.

    Each row carries its check's ``kind``, so its ``pass`` flag can be
    recomputed from the file by the kind's rule."""
    with open(path, "w", newline="") as fh:
        _comment_line(fh, comment)
        w = csv.writer(fh)
        w.writerow(["experiment", "metric", "value", "target", "tolerance", "kind", "pass", "seconds"])
        for rep in reports:
            for c in rep.checks:
                w.writerow(
                    [
                        rep.name,
                        c["metric"],
                        repr(float(c["value"])),
                        "" if c["target"] is None else repr(float(c["target"])),
                        "" if c["tolerance"] is None else repr(float(c["tolerance"])),
                        c["kind"],
                        int(bool(c["passed"])),
                        repr(float(rep.runtime_seconds)),
                    ]
                )
