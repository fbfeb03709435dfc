"""Double sine-series fields on the odd-odd symmetric torus.

Scalar fields are represented as

    f(x1, x2) = sum_{m,n >= 1} a[m,n] sin(m x1) sin(n x2),

which makes them odd in both coordinates and 2*pi-periodic by construction.
The collocation grid is the uniform grid x_i = pi*i/N_g, i = 0..N_g-1 of
[0, pi)^2; grid values on the boundary rows x1 = 0 / x2 = 0 vanish exactly.

Transforms on the collocation grid are DST-I/DCT-I based (scipy.fft), so a
grid of N_g points maps to FFTs of length 2*N_g.  Derivatives flip the
parity of the differentiated axis (sin -> cos for odd order), tracked by
MixedParityField.  One routine, _eval_axis, evaluates a series of either
parity along one axis: it zero-pads the halved modes into a buffer and runs
the DST-I or DCT-I there in place (overwrite_x).  MixedParityField.evaluate
makes one call per axis in buffers it allocates; every max|f| on the grid
goes through GridMax, which makes the same two calls in two buffers that it
holds, (n_grid+1)(N+n_grid) doubles: 3.2 MB at N=256, n_grid=512 and
50 MB at N=1024, n_grid=2048.  A caller that keeps one, as the time stepper
does for its CFL speed and its diagnostics, allocates no grid-sized array
per maximum; the stepper's GridMax runs, between steps, in the scratch that
its RK4 tendency uses during them.

Off the grid, evaluate_points sums a stack of series, each in its own
parity pair, at arbitrary points: one np.sin and one np.cos table of m*x,
each entry's rows picked from them, one batched matmul.  evaluate_at and
evaluate_offgrid pass it a stack of one; the trace sampler, the oracle's
linearization and transport_defect pass theirs.

The pointwise products of the time stepper are formed on a second,
staggered grid: the M midpoints x_j = pi*(j+1/2)/M, j = 0..M-1, per axis.
There a sine or cosine series is evaluated by a DST-III/DCT-III and a grid
function is projected onto sine modes by a DST-II, all real FFTs of length
M.  Sine mode k aliases to 2M - k on that grid, so a product of two band-N
fields keeps its band exact once M > 3N/2 (the 3/2 rule); dealias_grid
picks the smallest such M that is 5-smooth (no prime factor above 5;
scipy.fft.next_fast_len).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import fft as sfft

__all__ = [
    "SineField",
    "GridField",
    "MixedParityField",
    "GridMax",
    "dealias_grid",
    "forward_transform",
    "inverse_transform",
    "fractional_inverse_laplacian",
    "spectral_derivative",
    "velocity_coefficients",
    "evaluate_offgrid",
    "evaluate_points",
    "hessian_sup_norm",
    "l2_norm",
    "grid_max_abs",
    "grid_coordinates",
    "get_workers",
]

MIN_MODES = 4


def get_workers() -> int:
    """Thread count for FFT work, from MSQGLAB_THREADS (default: all cores)."""
    env = os.environ.get("MSQGLAB_THREADS", "")
    if not env.strip():
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"MSQGLAB_THREADS must be an integer, got {env!r}") from None


def _check_finite(arr: np.ndarray, what: str, mask: np.ndarray | None = None) -> None:
    """ValueError if arr holds a NaN or an infinity; mask, shaped like arr, receives the test."""
    mask = np.isfinite(arr, out=mask)
    if not mask.all():
        bad = int(np.count_nonzero(~mask))
        raise ValueError(f"{what} contains {bad} non-finite entries")


def _max_abs(v: np.ndarray) -> float:
    """max |v| without an |v| temporary; NaN if v holds a NaN."""
    # the outer abs only clears the sign of a zero maximum
    return abs(float(np.maximum(v.max(), -v.min())))


@dataclass(frozen=True)
class SineField:
    """Coefficients a[m-1, n-1] of a double sine series, 1 <= m, n <= N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"coefficient array must be square 2D, got shape {c.shape}")
        if c.shape[0] < MIN_MODES:
            raise ValueError(f"truncation order must be >= {MIN_MODES}, got {c.shape[0]}")
        _check_finite(c, "coefficient array")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def zeros(cls, n_modes: int) -> "SineField":
        return cls(np.zeros((n_modes, n_modes)))

    @classmethod
    def from_modes(cls, modes: dict, n_modes: int) -> "SineField":
        """Build from a sparse {(m, n): amplitude} dict (1-based mode indices)."""
        c = np.zeros((n_modes, n_modes))
        for (m, n), amp in modes.items():
            if not (1 <= m <= n_modes and 1 <= n <= n_modes):
                raise ValueError(f"mode ({m}, {n}) outside truncation order {n_modes}")
            c[m - 1, n - 1] = amp
        return cls(c)


@dataclass(frozen=True)
class GridField:
    """Sample values on the uniform (N_g x N_g) collocation grid of [0, pi)^2."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"grid array must be square 2D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def n_grid(self) -> int:
        return self.values.shape[0]


def grid_coordinates(n_grid: int) -> np.ndarray:
    """1D collocation coordinates pi*i/N_g, i = 0..N_g-1."""
    return np.pi * np.arange(n_grid) / n_grid


def _axis_index(ndim: int, axis: int, sl) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _eval_axis(coeffs: np.ndarray, parity: str, n_grid: int, axis: int,
               buf: np.ndarray | None = None, workers: int | None = None) -> np.ndarray:
    """Evaluate a sine or cosine expansion along one axis on the collocation grid.

    Input length along `axis` is the number of modes m = 1..n; output length
    is n_grid.  Other axes are carried along.  Entry 0 of `buf` is zeroed (a
    sine series' value at x = 0, a cosine series' constant mode), the halved
    modes fill entries 1..n and zeros the rest, and the _TYPE1 transform runs
    there in place.  buf, shaped like coeffs but at least n_grid (sine) or
    n_grid + 1 (cosine) long along `axis`, is allocated when None; the
    result is a view of it.
    """
    transform, first, extra = _TYPE1[parity]
    n = coeffs.shape[axis]
    if n > n_grid - 1:
        raise ValueError(f"{n} {parity} modes do not fit on a {n_grid}-point grid")
    if buf is None:
        shape = list(coeffs.shape)
        shape[axis] = n_grid + extra
        buf = np.empty(shape)
    at = partial(_axis_index, coeffs.ndim, axis)
    buf[at(slice(0, 1))] = 0.0
    np.multiply(coeffs, 0.5, out=buf[at(slice(1, n + 1))])
    buf[at(slice(n + 1, n_grid + extra))] = 0.0
    transform(buf[at(slice(first, n_grid + extra))], type=1, axis=axis, overwrite_x=True,
              workers=get_workers() if workers is None else workers)
    return buf[at(slice(0, n_grid))]


def _midpoint_slot(buf: np.ndarray, parity: str, n_modes: int, axis: int) -> np.ndarray:
    """The view of buf that holds the n_modes coefficients for _eval_midpoint_axis."""
    n_mid = buf.shape[axis]
    if n_modes > n_mid - 1:
        raise ValueError(f"{n_modes} {parity} modes do not fit on {n_mid} midpoints")
    lead = _TYPE3[parity][1]
    return buf[_axis_index(buf.ndim, axis, slice(lead, lead + n_modes))]


def _eval_midpoint_axis(buf: np.ndarray, parity: str, n_modes: int, axis: int,
                        workers: int) -> np.ndarray:
    """Twice a sine or cosine expansion along one axis at the midpoints pi*(j+1/2)/M.

    M is the length of buf along `axis`, and the n_modes coefficients are
    already in its _midpoint_slot.  The rest of the axis is zeroed and a
    DST-III or DCT-III of length M runs in place; buf is returned.  scipy's
    unnormalised type III doubles every mode, and the factor 1/2 is left to
    the caller.
    """
    transform, lead = _TYPE3[parity]
    at = partial(_axis_index, buf.ndim, axis)
    buf[at(slice(0, lead))] = 0.0
    buf[at(slice(lead + n_modes, None))] = 0.0
    transform(buf, type=3, axis=axis, overwrite_x=True, workers=workers)
    return buf


_PARITIES = {("sin", "sin"), ("sin", "cos"), ("cos", "sin"), ("cos", "cos")}
# parities of u1 and u2 from velocity_coefficients
_VELOCITY_PARITIES = (("sin", "cos"), ("cos", "sin"))
# collocation transform per parity, the first entry it runs on, and how many
# entries past n_grid (the DCT-I's extra one is x = pi)
_TYPE1 = {"sin": (sfft.dst, 1, 0), "cos": (sfft.dct, 0, 1)}
# midpoint transform per parity, and where its mode 1 sits (the DCT's entry 0 is the constant)
_TYPE3 = {"sin": (sfft.dst, 0), "cos": (sfft.dct, 1)}


def dealias_grid(n_modes: int) -> int:
    """Smallest number M > 3N/2 of midpoints per axis with a fast transform length.

    On the midpoints pi*(j+1/2)/M, sine mode k aliases to 2M - k.  The
    product of two fields of band N has modes up to 2N, so its modes <= N
    are exact once 2M - 2N > N (the 3/2 rule, Orszag 1971).  The type-II/III
    transforms there are real FFTs of length M, and M is 5-smooth.
    """
    return sfft.next_fast_len(3 * n_modes // 2 + 1, real=True)


@dataclass(frozen=True)
class MixedParityField:
    """Coefficient array in a mixed sin/cos tensor basis.

    parity is a pair from {"sin", "cos"}; mode indices start at 1 on both
    axes (derivatives of sine series never produce a constant mode).
    """

    coeffs: np.ndarray
    parity: tuple

    def __post_init__(self):
        if tuple(self.parity) not in _PARITIES:
            raise ValueError(f"invalid parity pair {self.parity}")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "parity", tuple(self.parity))

    def evaluate(self, n_grid: int) -> GridField:
        """Evaluate on the N_g x N_g collocation grid."""
        rows = _eval_axis(self.coeffs, self.parity[0], n_grid, -2)
        return GridField(_eval_axis(rows, self.parity[1], n_grid, -1))

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """evaluate_points at points (..., 2) on a stack of one: a float for a
        single point, else an array of shape (...)."""
        vals = evaluate_points(self.coeffs[None], (self.parity,), points)[0]
        return float(vals) if vals.ndim == 0 else vals


@lru_cache(maxsize=None)
def _table_layout(parities: tuple, n_modes: int):
    """Mode numbers 1..n_modes, and the table rows of each entry's left and of
    its right factors: row 2 t + c holds sin (t = 0) or cos (t = 1) of m x_c."""
    if not set(parities) <= _PARITIES:
        raise ValueError(f"invalid parity pair in {parities}")
    trig = {"sin": 0, "cos": 1}
    left = np.array([2 * trig[p] for p, _ in parities])
    return np.arange(1.0, n_modes + 1), left, np.array([2 * trig[q] + 1 for _, q in parities])


def evaluate_points(coeffs: np.ndarray, parities, points) -> np.ndarray:
    """Direct sums of a stack of mixed sin/cos series at points (..., 2).

    coeffs is (S, n, n) and parities S pairs; returns shape (S, ...).  Each
    entry's rows of one (4, P, n) table of sin and cos of m x are contracted
    with it by one batched matmul, a product and a sum over modes, in
    arithmetic that does not depend on the rest of the stack.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(parities) != len(coeffs):
        raise ValueError(f"{len(parities)} parity pairs for {len(coeffs)} coefficient arrays")
    modes, left, right = _table_layout(tuple(parities), coeffs.shape[-1])
    angles = np.multiply.outer(pts.reshape(-1, 2).T, modes)
    table = np.empty((4,) + angles.shape[1:])
    np.sin(angles, out=table[:2])
    np.cos(angles, out=table[2:])
    vals = np.matmul(table.take(left, axis=0), coeffs)
    vals *= table.take(right, axis=0)
    return np.add.reduce(vals, axis=-1).reshape((len(coeffs),) + pts.shape[:-1])


def inverse_transform(field: SineField, n_grid: int) -> GridField:
    """Evaluate the sine series on the collocation grid (pointwise exact)."""
    if n_grid < 2 * field.n_modes:
        raise ValueError(f"n_grid={n_grid} < 2*N={2 * field.n_modes}")
    return MixedParityField(field.coeffs, ("sin", "sin")).evaluate(n_grid)


def forward_transform(grid: GridField, n_modes: int) -> SineField:
    """Sine-series coefficients of the grid interpolant, truncated to N modes.

    For band-limited input (modes <= N) the round trip with
    inverse_transform reproduces the grid to rounding.
    """
    _check_finite(grid.values, "grid values")
    n_grid = grid.n_grid
    if n_grid < 2 * n_modes:
        raise ValueError(f"n_grid={n_grid} < 2*N={2 * n_modes}")
    interior = grid.values[1:, 1:]
    full = sfft.dstn(interior, type=1, workers=get_workers()) / n_grid**2
    return SineField(full[:n_modes, :n_modes].copy())


def _laplacian_power(n_modes: int, alpha: float) -> np.ndarray:
    """The symbol (m^2+n^2)^(1-alpha) that fractional_inverse_laplacian divides by."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    m = np.arange(1, n_modes + 1)
    return (m[:, None] ** 2 + m[None, :] ** 2) ** (1.0 - alpha)


def fractional_inverse_laplacian(field: SineField, alpha: float) -> SineField:
    """Apply (-Laplace)^(-1+alpha): a[m,n] -> a[m,n] / (m^2+n^2)^(1-alpha).

    alpha = 0 is the plain inverse Laplacian (2D Euler stream function);
    alpha must lie in [0, 1).
    """
    return SineField(field.coeffs / _laplacian_power(field.n_modes, alpha))


def spectral_derivative(field: SineField, axis: int, order: int) -> MixedParityField:
    """Term-by-term derivative of the sine series along axis 1 or 2.

    Odd order flips sin -> cos on the differentiated axis; the returned
    coefficients carry the mode-number factors (exact differentiation).
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    n = field.n_modes
    modes = np.arange(1, n + 1, dtype=np.float64)
    fac = modes.reshape((n, 1) if axis == 1 else (1, n))
    if order == 1:
        parity = ("cos", "sin") if axis == 1 else ("sin", "cos")
        return MixedParityField(field.coeffs * fac, parity)
    return MixedParityField(-field.coeffs * fac**2, ("sin", "sin"))


def _velocity_into(coeffs: np.ndarray, symbol: np.ndarray, u1: np.ndarray,
                   u2: np.ndarray) -> None:
    """Write the velocity coefficients of psi = coeffs / symbol into u1 and u2.

    u1 = -d2 psi in the (sin, cos) basis and u2 = d1 psi in the (cos, sin)
    basis; symbol is _laplacian_power(N, alpha).  psi is formed once, in u1.
    """
    modes = np.arange(1, coeffs.shape[-1] + 1, dtype=np.float64)
    np.divide(coeffs, symbol, out=u1)
    np.multiply(u1, modes[:, None], out=u2)
    u1 *= -modes


def velocity_coefficients(omega: SineField, alpha: float):
    """Coefficient-space velocity u = grad^perp psi, psi = (-Lap)^(-1+alpha) omega.

    Returns (u1, u2) as MixedParityFields: u1 = -d2 psi in the (sin, cos)
    basis, u2 = d1 psi in the (cos, sin) basis.  The sign convention makes
    u1 <= 0, u2 >= 0 near the origin for omega >= 0 on (0, pi)^2.
    """
    u1, u2 = np.empty((2,) + omega.coeffs.shape)
    _velocity_into(omega.coeffs, _laplacian_power(omega.n_modes, alpha), u1, u2)
    p1, p2 = _VELOCITY_PARITIES
    return MixedParityField(u1, p1), MixedParityField(u2, p2)


def evaluate_offgrid(field: SineField, x) -> np.ndarray:
    """The sine series at a point (x1, x2) or points (..., 2), by evaluate_at."""
    return MixedParityField(field.coeffs, ("sin", "sin")).evaluate_at(x)


class GridMax:
    """max|f| on the n_grid x n_grid collocation grid, in two held buffers.

    A call takes the N x N coefficients of a mixed sin/cos series and its
    parity pair, and returns the _max_abs of MixedParityField.evaluate's grid
    bit for bit (NaN if the grid holds a NaN).  The first-axis transform runs
    in an (n_grid+1, N) buffer and the second-axis one in an
    (n_grid, n_grid+1) buffer, which fit every parity pair, so one instance
    serves a whole run and a call allocates no grid-sized array.  The two
    buffers are views of scratch, a flat float64 array of at least
    scratch_size(N, n_grid) = (n_grid+1)(N+n_grid) entries, allocated when
    None.  A call writes every entry it reads, so the scratch may serve
    other work between calls, as the time stepper's does.
    """

    def __init__(self, n_modes: int, n_grid: int, scratch: np.ndarray | None = None):
        self.n_grid = n_grid
        self._workers = get_workers()
        size, first = self.scratch_size(n_modes, n_grid), (n_grid + 1) * n_modes
        if scratch is None:
            scratch = np.empty(size)
        self._first = scratch[:first].reshape(n_grid + 1, n_modes)
        self._grid = scratch[first:size].reshape(n_grid, n_grid + 1)

    @staticmethod
    def scratch_size(n_modes: int, n_grid: int) -> int:
        return (n_grid + 1) * (n_modes + n_grid)

    def __call__(self, coeffs: np.ndarray, parity: tuple) -> float:
        if tuple(parity) not in _PARITIES:
            raise ValueError(f"invalid parity pair {parity}")
        g, w = self.n_grid, self._workers
        rows = _eval_axis(coeffs, parity[0], g, -2, self._first, w)
        return _max_abs(_eval_axis(rows, parity[1], g, -1, self._grid, w))


def hessian_sup_norm(omega: SineField, n_grid: int, grid_max: GridMax | None = None,
                     scratch: np.ndarray | None = None) -> float:
    """Max over grid points of the largest |entry| of the Hessian of omega.

    Collocation-grid maximization: a lower bound for the true sup norm that
    converges as n_grid grows.  grid_max, a GridMax on n_grid, is the
    evaluator to use; one is built when none is given.  scratch, an N x N
    array, receives the coefficients of each Hessian entry in turn (-m^2 a,
    m n a, -n^2 a); one is allocated when none is given.
    """
    if grid_max is None:
        grid_max = GridMax(omega.n_modes, n_grid)
    elif grid_max.n_grid != n_grid:
        raise ValueError(f"GridMax on {grid_max.n_grid} points, not n_grid={n_grid}")
    c = omega.coeffs
    s = np.empty_like(c) if scratch is None else scratch
    modes = np.arange(1, omega.n_modes + 1, dtype=np.float64)
    m, n = modes[:, None], modes[None, :]
    np.multiply(c, m**2, out=s)
    d11 = grid_max(np.negative(s, out=s), ("sin", "sin"))
    np.multiply(c, m, out=s)
    d12 = grid_max(np.multiply(s, n, out=s), ("cos", "cos"))
    np.multiply(c, n**2, out=s)
    d22 = grid_max(np.negative(s, out=s), ("sin", "sin"))
    # np.max, unlike the builtin, keeps a NaN
    return float(np.max([d11, d12, d22]))


def l2_norm(field: SineField) -> float:
    """L2 norm over [0, pi]^2 via Parseval: ||f||^2 = (pi^2/4) sum a^2."""
    return float(np.pi / 2.0 * np.linalg.norm(field.coeffs))


def grid_max_abs(field: SineField, n_grid: int) -> float:
    """Max of |f| over the collocation grid."""
    return GridMax(field.n_modes, n_grid)(field.coeffs, ("sin", "sin"))
