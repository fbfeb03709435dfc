"""Field snapshot files: one JSON header line + raw little-endian float64.

Layout: a single line of JSON text (keys N, N_g, alpha, time) terminated by
a newline, followed by N*N coefficients in row-major (m, n) order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .spectral import SineField


def write_snapshot(path, field: SineField, n_grid: int, alpha: float, time: float) -> None:
    path = Path(path)
    header = {"N": field.n_modes, "N_g": int(n_grid), "alpha": float(alpha),
              "time": float(time)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(memoryview(np.ascontiguousarray(field.coeffs, dtype="<f8")))


_HEADER_KEYS = ("N", "N_g", "alpha", "time")


def read_snapshot(path):
    """Returns (SineField, header dict); ValueError on a malformed file."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
            raise ValueError(f"snapshot {path} header lacks one of {_HEADER_KEYS}")
        n = header["N"]
        if type(n) is not int or n < 1:
            raise ValueError(f"snapshot {path} header N={n!r} is not a positive integer")
        raw = fh.read(8 * n * n)
        trailing = fh.read(1)
    if len(raw) != 8 * n * n:
        raise ValueError(f"snapshot {path} truncated: expected {n}x{n} coefficients")
    if trailing:
        raise ValueError(f"snapshot {path} has bytes after its {n}x{n} coefficients")
    coeffs = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
    return SineField(coeffs), header
