"""Degenerate plateau initial vorticity.

On [0, pi)^2 the field is a tensor product w0(x1, x2) = u(x1) v(x2) of 1D
profiles that
  * equal (t/delta)^3 resp. t/delta up to the origin patch delta/2, so
    w0 = delta^-4 x1^3 x2 holds exactly on [0, delta/2]^2 (and in particular
    on the quarter-disk |x| <= delta/2),
  * blend monotonically to 1 across [delta/2, delta] with a C^blend_order
    polynomial smoothstep,
  * equal 1 on [delta, pi - delta],
  * fall back to 0 across [pi - delta, pi] with the same smoothstep.

This keeps 0 <= w0 <= 1, makes the leading small-x1 behavior cubic for
every x2 (so d_x1 w0(0, x2) = 0), and the odd-odd periodic extension is
C^blend_order.  The sine-series representation is obtained by the forward
transform followed by an exact projection onto the derivative-degeneracy
constraint (the projection only moves coefficients by the truncation
residual).
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .spectral import (GRADIENT_TERMS, GridField, GridMax, SineField, _eval_axis, _max_abs,
                       _project_degeneracy, forward_transform, grid_coordinates)

__all__ = ["InitialDataSpec", "smoothstep", "build_omega0", "check_degeneracy",
           "gradient_sup_norm", "plateau_deficit_fraction", "recorded_warnings"]

DELTA_HARD_MAX = np.pi / 4
# plateau_deficit_fraction counts the cells where omega < 1 - PLATEAU_TOL;
# the tolerance absorbs the series-truncation ripple on the plateau
# (otherwise half the plateau cells sit marginally below 1)
PLATEAU_TOL = 1e-3


@dataclass(frozen=True)
class InitialDataSpec:
    """Parameters of the plateau construction.

    delta is the boundary strip width; delta_max (default pi/8, hard cap
    DELTA_HARD_MAX = pi/4) only bounds the accepted delta and never changes
    the built field.  The monomial formula is exact on the origin patch
    [0, delta/2]^2.
    """

    delta: float
    n_modes: int
    n_grid: int
    blend_order: int = 4
    delta_max: float = np.pi / 8

    def __post_init__(self):
        if not self.delta_max < DELTA_HARD_MAX * (1 + 1e-12):
            raise ValueError(f"delta_max must be < pi/4, got {self.delta_max}")
        if not 0.0 < self.delta <= self.delta_max:
            raise ValueError(
                f"delta must lie in (0, delta_max={self.delta_max:.4g}], got {self.delta}")
        if self.blend_order < 1:
            raise ValueError("blend_order must be >= 1")
        if self.n_grid < 2 * self.n_modes:
            raise ValueError(f"n_grid={self.n_grid} < 2*N={2 * self.n_modes}")


@contextmanager
def recorded_warnings():
    """Record the distinct warnings raised in the block, and still emit them.

    Yields a list that holds their messages, in order, once the block is
    done.  Each distinct warning is emitted once more under the caller's
    warning filters, also when the block raises.
    """
    messages = []
    caught = {}
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            yield messages
    finally:
        for w in records:
            caught.setdefault((w.category, str(w.message)), w)
        for w in caught.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        messages.extend(message for _, message in caught)


def smoothstep(u, order: int):
    """Polynomial step 0 -> 1 on [0, 1] with `order` vanishing derivatives
    at both ends (C^order contact); clamps outside [0, 1]."""
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
    n = order
    acc = np.zeros_like(u)
    for j in range(n + 1):
        acc += math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * (-u) ** j
    return u ** (n + 1) * acc


def _axis_profile(t: np.ndarray, delta: float, order: int, power: int) -> np.ndarray:
    """1D profile: (t/delta)^power up to delta/2, blend to 1 by delta,
    plateau, smoothstep descent to 0 on [pi - delta, pi]."""
    rise = (t / delta) ** power
    s = smoothstep((t - delta / 2) / (delta / 2), order)
    out = np.where(t < delta, rise * (1.0 - s) + s, 1.0)
    fall = smoothstep((np.pi - t) / delta, order)
    return np.where(t > np.pi - delta, fall, out)


def build_omega0(spec: InitialDataSpec) -> SineField:
    """Construct the initial vorticity as a SineField; warns if it is under-resolved."""
    if spec.n_grid * spec.delta / np.pi < 8:
        warnings.warn(f"delta={spec.delta:.4g} spans fewer than 8 grid cells at "
                      f"n_grid={spec.n_grid}; construction is under-resolved")
    x = grid_coordinates(spec.n_grid)
    u = _axis_profile(x, spec.delta, spec.blend_order, 3)
    v = _axis_profile(x, spec.delta, spec.blend_order, 1)
    coeffs = forward_transform(GridField(np.outer(u, v)), spec.n_modes).coeffs
    _project_degeneracy(coeffs)
    return SineField(coeffs)


def check_degeneracy(omega: SineField, n_samples: int = 2048) -> float:
    """max over x2 = pi*i/n_samples of |d_x1 omega(0, x2)|, from the coefficients.

    d_x1 omega(0, x2) = sum_n (sum_m m a[m,n]) sin(n x2) is one sine series,
    evaluated on the n_samples-point collocation grid (x2 = 0 gives 0 exactly).
    """
    if omega.n_modes > n_samples - 1:
        raise ValueError(f"{omega.n_modes} modes do not fit on {n_samples} samples")
    m = np.arange(1, omega.n_modes + 1, dtype=np.float64)
    return _max_abs(_eval_axis(m @ omega.coeffs, "sin", n_samples, 0))


def gradient_sup_norm(omega: SineField, n_grid: int) -> float:
    """Max over grid points of max(|d1 omega|, |d2 omega|); NaN if either holds one.

    One GridMax call on GRADIENT_TERMS, which forms no derivative array.
    """
    return GridMax(omega.n_modes, n_grid)(omega.coeffs[None], GRADIENT_TERMS)


def plateau_deficit_fraction(values: np.ndarray) -> float:
    """Fraction of collocation cells where omega < 1 - PLATEAU_TOL, from
    omega's grid values (inverse_transform(omega, n_grid).values)."""
    return float(np.count_nonzero(values < 1.0 - PLATEAU_TOL)) / values.size
