"""Double sine-series fields on the odd-odd symmetric torus.

Scalar fields are represented as

    f(x1, x2) = sum_{m,n >= 1} a[m,n] sin(m x1) sin(n x2),

which makes them odd in both coordinates and 2*pi-periodic by construction.
The collocation grid is the uniform grid x_i = pi*i/N_g, i = 0..N_g-1 of
[0, pi)^2; grid values on the boundary rows x1 = 0 / x2 = 0 vanish exactly.

Every transform is one call of pocketfft, the compiled extension
scipy/fft/_pocketfft/pypocketfft that scipy.fft's dst and dct dispatch
to: _load_pocketfft finds it beside scipy and loads it alone, without
scipy.fft's import chain (scipy.special and the array-API shim, which
loads numpy.f2py, numpy.testing, numpy.random and numpy.ma), and falls
back to importing it through scipy.fft only when it is not there.  On a
2-core x86-64 machine with numpy 2.4.6 and scipy 1.17.1 the direct load
takes about 13 ms with this module, where importing scipy.fft after numpy
takes 280 ms, and `msqglab --help` fell from 0.53 to 0.22 s (medians of 8
runs).  The calls are unnormalised (inorm=0) and run in place through
out=, the arithmetic scipy.fft's dst/dct(norm=None, overwrite_x=True) do.

Transforms on the collocation grid are DST-I/DCT-I based, so a grid of
N_g points maps to FFTs of length 2*N_g.  Derivatives flip the parity of
the differentiated axis (sin -> cos for odd order), tracked by
MixedParityField.  One routine, _eval_axis, evaluates a series of either
parity along one axis: it zero-pads the halved modes into a buffer and runs
the DST-I or DCT-I there in place.  MixedParityField.evaluate makes one
call along the first axis and one along the second, in arrays they
allocate; GridMax makes the same calls in buffers it holds.

A derivative is named one way, on the grid and off it: as a Term, an entry
of a coefficient stack, its parity pair and the powers of the mode numbers
that weight it on each axis, so every derivative is a term on the field's
own coefficients.  VALUE_TERMS, GRADIENT_TERMS, HESSIAN_TERMS and
VELOCITY_TERMS are the ones the package takes.  Off the grid,
evaluate_points sums the series of a stack's terms at arbitrary points:
one np.sin and one np.cos table of m*x serve a call, the terms on one
entry take their weighted rows of it, and one matmul reads the entry once
for all of them.  evaluate_at and evaluate_offgrid pass it a stack of one;
the trace sampler (the velocity of each stream function), the oracle's
linearization (omega and its gradient) and transport_defect pass theirs.

Every max|f| on the collocation grid is a GridMax call on the same stack
and Terms: the largest |value| of any term, from _eval_axis in two buffers
that the GridMax holds.  It skips every transform that cannot raise the
maximum found so far and still returns the exhaustive maximum bit for
bit; GridMax's docstring states the rule.  The grid maxima are omega-max
(grid_max_abs), hessian_sup_norm, the gradient_sup_norm of make-data and
the time stepper's CFL speed; a caller that keeps a GridMax, as the time
stepper does for its CFL speed and its diagnostics, allocates no
grid-sized array per maximum, and the stepper's runs, between steps, in
the scratch that its Tendency uses during them.  Only that tendency, on
the midpoint grid below, still forms derivative coefficient arrays,
because its transforms run on them in place.

Tendency, the time stepper's right-hand side -(u . grad) omega, forms its
pointwise product on a second, staggered grid: the M midpoints
x_j = pi*(j+1/2)/M, j = 0..M-1, per axis.  There a sine or cosine series
is evaluated by a DST-III/DCT-III (_eval_midpoint_axis, on the mode slot
that _midpoint_slot names) and a grid function is projected onto sine
modes by a DST-II, all real FFTs of length M.  Sine mode k aliases to
2M - k on that grid, so a product of two band-N fields keeps its band
exact once M > 3N/2 (the 3/2 rule, Orszag 1971); dealias_grid picks the
smallest such M that is 5-smooth (no prime factor above 5; pocketfft's
good_size, as scipy.fft.next_fast_len(real=True)).  evaluate_midpoints
samples a sine series of any band on M midpoints per axis the same way,
for the quadrature oracle's whole cells (the central cell and the image
cells' base grid): the DST-III takes mode M once where it doubles the
others, so mode M goes in at twice their weight, and the modes above M
are folded onto the grid, where sin((2Mq + r) x_j) = (-1)^q sin(r x_j).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "SineField",
    "GridField",
    "MixedParityField",
    "GridMax",
    "Tendency",
    "dealias_grid",
    "forward_transform",
    "inverse_transform",
    "fractional_inverse_laplacian",
    "spectral_derivative",
    "velocity_coefficients",
    "evaluate_offgrid",
    "evaluate_points",
    "evaluate_midpoints",
    "Term",
    "hessian_sup_norm",
    "l2_norm",
    "grid_max_abs",
    "grid_coordinates",
    "get_workers",
    "environment",
]

MIN_MODES = 4


def _scipy_roots() -> list:
    """The directories of the scipy package, found without importing it."""
    spec = importlib.util.find_spec("scipy")
    return list(spec.submodule_search_locations or ()) if spec else []


def _load_pocketfft():
    """scipy's compiled pocketfft extension, and how it was loaded.

    The extension is found in scipy's fft/_pocketfft directory and executed
    on its own ("direct"); importlib.util.find_spec("scipy") locates that
    directory without importing scipy.  Only if it is not there is it
    imported through scipy.fft ("scipy.fft"), which loads the same
    extension behind scipy.fft's whole import chain.
    """
    dirs = [os.path.join(root, "fft", "_pocketfft") for root in _scipy_roots()]
    spec = importlib.machinery.PathFinder.find_spec("pypocketfft", dirs)
    if spec is None:
        from scipy.fft._pocketfft import pypocketfft
        return pypocketfft, "scipy.fft"
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, "direct"


_pocketfft, POCKETFFT_LOADER = _load_pocketfft()


def get_workers() -> int:
    """Thread count for FFT work, from MSQGLAB_THREADS (default: all cores)."""
    env = os.environ.get("MSQGLAB_THREADS", "")
    if not env.strip():
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"MSQGLAB_THREADS must be an integer, got {env!r}") from None


@lru_cache(maxsize=None)
def _scipy_version() -> str | None:
    """scipy's installed version, None if not found.

    Read from the Version field of the scipy-*.dist-info/METADATA beside the
    package.  Neither scipy nor importlib.metadata is imported: the latter
    brings in email and socket, 20 ms and 2.4 MB of resident memory
    measured in a process that had loaded numpy.
    """
    for root in _scipy_roots():
        for metadata in sorted(Path(root).parent.glob("scipy-*.dist-info/METADATA")):
            with open(metadata, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("Version:"):
                        return line.split(":", 1)[1].strip()
    return None


def environment() -> dict:
    """What this process computes with, as manifests and metadata record it.

    numpy's and scipy's versions, how pocketfft was loaded
    (POCKETFFT_LOADER), the FFT thread count of get_workers and
    os.cpu_count().
    """
    return {"numpy": np.__version__, "scipy": _scipy_version(), "pocketfft": POCKETFFT_LOADER,
            "fft_threads": get_workers(), "cpu_count": os.cpu_count()}


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
               buf: np.ndarray | None = None, workers: int | None = None,
               halved: bool = False) -> np.ndarray:
    """Evaluate a sine or cosine expansion along one axis on the collocation grid.

    Input length along `axis` is the number of modes m = 1..n; output length
    is n_grid.  Other axes are carried along.  Entry 0 of `buf` is zeroed (a
    sine series' value at x = 0, a cosine series' constant mode), the halved
    modes fill entries 1..n and zeros the rest, and the _TYPE1 transform runs
    there in place.  buf, shaped like coeffs but at least n_grid (sine) or
    n_grid + 1 (cosine) long along `axis`, is allocated when None; the
    result is a view of it.  With halved, coeffs holds the halved modes
    already and is copied as it is, as GridMax's rows are halved in place;
    it may be the mode slot of buf itself, as GridMax passes it, which
    np.copyto leaves in place.
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
    modes = buf[at(slice(1, n + 1))]
    if halved:
        np.copyto(modes, coeffs)
    else:
        np.multiply(coeffs, 0.5, out=modes)
    buf[at(slice(n + 1, n_grid + extra))] = 0.0
    view = buf[at(slice(first, n_grid + extra))]
    transform(view, 1, (axis,), inorm=0, out=view,
              nthreads=get_workers() if workers is None else workers)
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
    already in its _midpoint_slot.  The rest of the axis is zeroed and
    pocketfft's DST-III or DCT-III of length M runs in place (out=buf);
    buf is returned.  The unnormalised (inorm=0) type III doubles every
    mode, and the factor 1/2 is left to the caller.  A sine series may also
    fill the slot's entry M - 1, its mode M, which _midpoint_slot does not
    offer: the DST-III takes that one once, not twice, and sin(M x_j) is
    (-1)^j (evaluate_midpoints).
    """
    transform, lead = _TYPE3[parity]
    at = partial(_axis_index, buf.ndim, axis)
    buf[at(slice(0, lead))] = 0.0
    buf[at(slice(lead + n_modes, None))] = 0.0
    transform(buf, 3, (axis,), inorm=0, out=buf, nthreads=workers)
    return buf


def _fold_modes(coeffs: np.ndarray, n_mid: int, axis: int) -> np.ndarray:
    """coeffs with its sine modes folded onto 1..n_mid along axis, as they
    alias on the midpoints x_j = pi*(j+1/2)/M, M = n_mid.

    There sin((2 M q + r) x_j) = (-1)^q sin(r x_j), so mode m goes to
    r = min(t, 2M - t), t = m mod 2M, with the sign (-1)^q of q = m // 2M;
    the modes with t = 0 vanish.  So each period 2M of modes is two runs,
    t = 1..M onto targets 1..M and t = M+1..2M-1 onto M-1 down to 1, added
    (or subtracted) run after run in place, so every target takes its modes
    in ascending order and the fold takes no array the size of coeffs.  An
    ascending run whose modes are contiguous rows (axis 0) is one slice
    operation; every other run goes a mode at a time, since numpy would
    iterate a reversed or strided 2-D slice through iteration buffers, and
    on a 2-D array each such operand is 1-D.
    """
    c = np.moveaxis(coeffs, axis, 0)
    folded = np.zeros((n_mid,) + c.shape[1:])
    for start in range(0, len(c), 2 * n_mid):
        op = np.subtract if start // (2 * n_mid) % 2 else np.add
        ascending = c[start:start + n_mid]
        if ascending.flags.c_contiguous:
            target = folded[:len(ascending)]
            op(target, ascending, out=target)
        else:
            for target, modes in zip(folded, ascending):
                op(target, modes, out=target)
        for k, modes in enumerate(c[start + n_mid:start + 2 * n_mid - 1]):
            target = folded[n_mid - 2 - k]
            op(target, modes, out=target)
    return np.moveaxis(folded, 0, axis)


def evaluate_midpoints(coeffs: np.ndarray, n_mid: int) -> np.ndarray:
    """A double sine series at the M x M midpoints pi*(j+1/2)/M, M = n_mid.

    coeffs is N x N.  Modes above M are folded onto 1..M (_fold_modes), so
    any N fits; then one DST-III per axis runs in place in the M x M result,
    by _eval_midpoint_axis, first along the first axis on the min(N, M)
    columns that hold modes.  The unnormalised type III takes modes 1..M-1
    twice and mode M once, so the coefficients go in at a quarter, and
    those of mode M on either axis at twice that: every scaling is by a
    power of two, and so exact.
    """
    n = coeffs.shape[0]
    k = min(n, n_mid)
    out = np.empty((n_mid, n_mid))
    if n > n_mid:
        coeffs = _fold_modes(_fold_modes(coeffs, n_mid, 0), n_mid, 1)
    modes = out[:k, :k]
    np.multiply(coeffs, 0.25, out=modes)
    if k == n_mid:
        modes[-1] *= 2.0
        modes[:, -1] *= 2.0
    workers = get_workers()
    _eval_midpoint_axis(out[:, :k], "sin", k, -2, workers)
    return _eval_midpoint_axis(out, "sin", k, -1, workers)


_PARITIES = {("sin", "sin"), ("sin", "cos"), ("cos", "sin"), ("cos", "cos")}
# collocation transform per parity, the first entry it runs on, and how many
# entries past n_grid (the DCT-I's extra one is x = pi)
_TYPE1 = {"sin": (_pocketfft.dst, 1, 0), "cos": (_pocketfft.dct, 0, 1)}
# midpoint transform per parity, and where its mode 1 sits (the DCT's entry 0 is the constant)
_TYPE3 = {"sin": (_pocketfft.dst, 0), "cos": (_pocketfft.dct, 1)}


def dealias_grid(n_modes: int) -> int:
    """Smallest number M > 3N/2 of midpoints per axis with a fast transform length.

    On the midpoints pi*(j+1/2)/M, sine mode k aliases to 2M - k.  The
    product of two fields of band N has modes up to 2N, so its modes <= N
    are exact once 2M - 2N > N (the 3/2 rule, Orszag 1971).  The type-II/III
    transforms there are real FFTs of length M, and M is 5-smooth (no prime
    factor above 5): pocketfft's good_size(n, True), the function that
    scipy.fft.next_fast_len(n, real=True) calls.
    """
    return _pocketfft.good_size(3 * n_modes // 2 + 1, True)


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
        """Evaluate on the N_g x N_g collocation grid: _eval_axis along the
        first axis, then along the second, each in an array it allocates."""
        rows = _eval_axis(self.coeffs, self.parity[0], n_grid, -2)
        return GridField(_eval_axis(rows, self.parity[1], n_grid, -1))

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """evaluate_points at points (..., 2) on a stack of one: a float for a
        single point, else an array of shape (...)."""
        vals = evaluate_points(self.coeffs[None], (Term(0, self.parity),), points)[0]
        return float(vals) if vals.ndim == 0 else vals


class Term(NamedTuple):
    """One series that evaluate_points sums: entry `entry` of the coefficient
    stack in the parity pair `parity`, its mode (m, n) weighted by
    m^p1 n^p2 for powers = (p1, p2).  Powers (1, 0) in the (cos, sin) pair
    give d1 of a sine series, (0, 1) in (sin, cos) give d2."""

    entry: int
    parity: tuple
    powers: tuple = (0, 0)


# The derivatives the package takes of a field f, as terms on entry 0 of a
# stack: f itself; its gradient d1 f, d2 f; its Hessian entries -d11 f,
# d12 f, -d22 f (the signs drop out of a grid maximum); and, on the stream
# function psi, the velocity u = grad^perp psi as d2 psi = -u1 and
# d1 psi = u2, in the parities of velocity_coefficients.  For omega >= 0 on
# (0, pi)^2, u1 <= 0 <= u2 near the origin.
VALUE_TERMS = (Term(0, ("sin", "sin")),)
GRADIENT_TERMS = (Term(0, ("cos", "sin"), (1, 0)), Term(0, ("sin", "cos"), (0, 1)))
HESSIAN_TERMS = (Term(0, ("sin", "sin"), (2, 0)), Term(0, ("cos", "cos"), (1, 1)),
                 Term(0, ("sin", "sin"), (0, 2)))
VELOCITY_TERMS = (Term(0, ("sin", "cos"), (0, 1)), Term(0, ("cos", "sin"), (1, 0)))


@lru_cache(maxsize=None)
def _term_layout(terms: tuple, n_modes: int):
    """How evaluate_points lays out terms: the mode numbers 1..n_modes, the
    first entry named and the number of entries, the highest power of any
    term, and the table rows of each term's left and right factors (row
    4 q + 2 t + c holds m^q times sin (t = 0) or cos (t = 1) of m x_c).

    ValueError unless the terms name consecutive entries in order, the same
    number of terms each.
    """
    trig = {"sin": 0, "cos": 1}
    terms = [Term(*t) for t in terms]
    for term in terms:
        if tuple(term.parity) not in _PARITIES:
            raise ValueError(f"invalid parity pair {term.parity}")
    first, count = terms[0].entry, len({term.entry for term in terms})
    per_entry = len(terms) // count
    if [term.entry for term in terms] != [first + k // per_entry for k in range(len(terms))]:
        raise ValueError("terms must name consecutive entries in order, the same number each")
    rows = [np.array([4 * t.powers[c] + 2 * trig[t.parity[c]] + c for t in terms])
            for c in (0, 1)]
    top = max(max(t.powers) for t in terms)
    return np.arange(1.0, n_modes + 1), first, count, top, *rows


def evaluate_points(coeffs: np.ndarray, terms, points) -> np.ndarray:
    """Direct sums of series of a coefficient stack at points (..., 2).

    coeffs is (S, n, n) and terms a sequence of Terms: k of them on each of
    consecutive entries, in order.  Returns one value per term and point,
    shape (len(terms), ...).  One table holds m^q sin and m^q cos of m x for
    both coordinates of every point and each power q up to the highest a
    term asks for.  Every term's left rows are taken from it at once, and
    one batched matmul contracts each entry with its terms' rows, a
    (k P, n) @ (n, n) product that reads the entry once; the products times
    the terms' right rows are summed over modes.  So a derivative costs no
    coefficient array, and an entry's values are the same arithmetic
    whatever other entries a call names.
    """
    pts = np.asarray(points, dtype=np.float64)
    modes, first, count, top, left, right = _term_layout(tuple(terms), coeffs.shape[-1])
    if first < 0 or first + count > len(coeffs):
        raise ValueError(f"terms name entries {first}..{first + count - 1} "
                         f"of a stack of {len(coeffs)}")
    xs = pts.reshape(-1, 2).T
    table = np.empty((4 * (top + 1), xs.shape[1], len(modes)))
    # the angles m x go into the sine rows, and sin and cos are taken from there
    angles = np.multiply.outer(xs, modes, out=table[:2])
    np.cos(angles, out=table[2:4])
    np.sin(angles, out=angles)
    for q in range(1, top + 1):
        np.multiply(table[4 * q - 4:4 * q], modes, out=table[4 * q:4 * q + 4])
    # the left rows are freed before the right ones are taken
    prod = np.matmul(table.take(left, axis=0).reshape(count, -1, len(modes)),
                     coeffs[first:first + count])
    prod = prod.reshape((len(terms),) + table.shape[1:])
    prod *= table.take(right, axis=0)
    return np.add.reduce(prod, axis=-1).reshape((len(terms),) + pts.shape[:-1])


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
    workers = get_workers()
    # axis 0 on every column, then axis 1 on the kept rows only: dstn's
    # order, and each row's transform does not depend on the others
    rows = _pocketfft.dst(grid.values[1:, 1:], 1, (0,), inorm=0, nthreads=workers)[:n_modes]
    _pocketfft.dst(rows, 1, (1,), inorm=0, out=rows, nthreads=workers)
    return SineField(rows[:, :n_modes] / n_grid**2)


@lru_cache(maxsize=8)
def _laplacian_power(n_modes: int, alpha: float) -> np.ndarray:
    """The symbol (m^2+n^2)^(1-alpha) that fractional_inverse_laplacian divides by.

    Held per (N, alpha) and read-only: the trace sampler asks for it once
    per snapshot, and the time stepper's workspace holds the same array.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    m = np.arange(1, n_modes + 1)
    symbol = (m[:, None] ** 2 + m[None, :] ** 2) ** (1.0 - alpha)
    symbol.flags.writeable = False
    return symbol


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
    The package takes its derivatives as Terms (GRADIENT_TERMS,
    HESSIAN_TERMS); this array form is the reference they are tested against.
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


def _mode_numbers(n_modes: int, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """The mode numbers 1..N along axis 0 or 1 of an N x N array: written
    into out, an N x N array, if given, else a view that broadcasts.

    A ufunc with a broadcast operand, a strided one or a strided out= takes
    numpy's iteration buffers, up to np.getbufsize() entries (64 KiB) per
    operand and call; one on same-shape C-contiguous arrays takes none, and
    neither does np.copyto.  So a product with the mode numbers of one axis
    that must not take buffers multiplies by a filled out.
    """
    modes = np.arange(1, n_modes + 1, dtype=np.float64)
    view = modes[:, None] if axis == 0 else modes
    if out is None:
        return view
    np.copyto(out, view)
    return out


def _velocity_into(coeffs: np.ndarray, symbol: np.ndarray, u1: np.ndarray,
                   u2: np.ndarray, factor: np.ndarray | None = None) -> None:
    """Write the velocity coefficients of psi = coeffs / symbol into u1 and u2.

    u1 = -d2 psi in the (sin, cos) basis and u2 = d1 psi in the (cos, sin)
    basis; symbol is _laplacian_power(N, alpha).  psi is formed once, in
    u1.  factor, if given, is the out of both _mode_numbers (of axis 0, then
    of axis 1, which it keeps); with u1 and u2 it must be C-contiguous, and
    then no product takes an iteration buffer.  The time stepper's tendency
    and velocity_coefficients call it.
    """
    n = coeffs.shape[-1]
    np.divide(coeffs, symbol, out=u1)
    np.multiply(u1, _mode_numbers(n, 0, factor), out=u2)
    np.multiply(u1, _mode_numbers(n, 1, factor), out=u1)
    np.negative(u1, out=u1)                 # psi * -m, rounded alike


def velocity_coefficients(omega: SineField, alpha: float):
    """Coefficient-space velocity u = grad^perp psi, psi = (-Lap)^(-1+alpha) omega.

    Returns (u1, u2) as MixedParityFields: u1 = -d2 psi in the (sin, cos)
    basis, u2 = d1 psi in the (cos, sin) basis, the sign convention of
    VELOCITY_TERMS.  The package takes the velocity as those terms on psi;
    these arrays are the reference they are tested against.
    """
    u1, u2 = np.empty((2,) + omega.coeffs.shape)
    _velocity_into(omega.coeffs, _laplacian_power(omega.n_modes, alpha), u1, u2)
    p1, p2 = (term.parity for term in VELOCITY_TERMS)
    return MixedParityField(u1, p1), MixedParityField(u2, p2)


def evaluate_offgrid(field: SineField, x) -> np.ndarray:
    """The sine series at a point (x1, x2) or points (..., 2), by evaluate_at."""
    return MixedParityField(field.coeffs, ("sin", "sin")).evaluate_at(x)


def _project_degeneracy(coeffs: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Project each column, in place, onto sum_m m a[m,n] = 0 (d_x1 omega = 0 at x1 = 0).

    d1 f(0, x2) = sum_n (sum_m m a[m,n]) sin(n x2), so this removes the
    component of each coefficient column along the mode-number vector.
    scratch, if given, is a pair of C-contiguous arrays shaped like coeffs,
    which receive the correction np.outer(m, m @ coeffs) and the
    _mode_numbers it is formed with, so that no product takes an iteration
    buffer.
    """
    n = coeffs.shape[0]
    m = np.arange(1, n + 1, dtype=np.float64)
    corr, factor = (np.empty_like(coeffs), None) if scratch is None else scratch
    np.copyto(corr, m @ coeffs)
    corr *= _mode_numbers(n, 0, factor)
    corr /= float(np.sum(m * m))
    coeffs -= corr


class Tendency:
    """The tendency -(u . grad) omega bound to (alpha, N, n_grid), with its own workspace.

    n_grid is the number M of midpoints pi*(j+1/2)/M per axis on which the
    pointwise product u . grad omega is formed; above 3N/2 the truncated
    product is alias-free (the time stepper uses dealias_grid(N)), and the
    retained band equals the tendency on any finer grid.  Velocity and
    gradient are evaluated there by type-III transforms, and the product is
    projected by a type-II DST, along the last axis for all M rows and then
    along the first axis for the N kept columns only.  The unnormalised
    transforms double every mode on each axis; those four factors 2 and the
    1/M per axis of the projection meet in one final division by -16 M^2.

    Every grid of a call lives in three M x M grids, views of scratch, a
    flat float64 array of at least scratch_size(M) = 3 M^2 entries (3.84 MB
    at N=256, 61 MB at N=1024), allocated when None.  Each transform runs
    in place there.  [u1, d2 omega] are evaluated as one stack in the first
    two grids and u2 alone in the third, which then takes u2 * d2 omega;
    d1 omega goes into the second grid, freed by that product, and the
    third adds d1 omega * u1 and is projected.  The coefficients are
    copied into the mode slots of the first axis, whose output lands in
    the mode slots of the second.  The one finiteness test is on the
    advection product, where the transforms carry a NaN or an infinity
    among the coefficients to every node (and a SineField checks its own
    coefficients, so the time stepper steps finite ones); it writes into a
    bool mask laid over the second grid.  The products with the mode
    numbers are formed before that copy in C-contiguous N x N arrays: out,
    and the first N^2 entries of a grid while it is free, which also take
    the _mode_numbers operand.  So no ufunc of a call takes a numpy
    iteration buffer, a call allocates no grid-sized array, and with out=
    not the tendency either; out must not share memory with coeffs.  A
    call writes every entry of the grids it reads, so nothing passes from
    one call to the next, and the scratch may serve other work between
    calls; the time stepper's workspace lends it to a GridMax.

    With preserve_degeneracy, each tendency is projected onto the subspace
    where the x1-derivative vanishes on the x2-axis (sum_m m a[m,n] = 0 per
    column).  The continuous transport law conserves that degeneracy
    exactly; band truncation of the product breaks it, and since RK4
    preserves linear invariants of the tendency, projecting the tendency
    restores the conservation law to rounding.
    """

    def __init__(self, alpha: float, n_modes: int, n_grid: int,
                 preserve_degeneracy: bool = False, scratch: np.ndarray | None = None):
        self.n_modes = n_modes
        self.n_grid = n_grid
        self.preserve_degeneracy = preserve_degeneracy
        n, m = n_modes, n_grid
        self.symbol = _laplacian_power(n, alpha)        # psi = omega / symbol
        self._workers = get_workers()
        if scratch is None:
            scratch = np.empty(self.scratch_size(m))
        self._grids = grids = scratch[:self.scratch_size(m)].reshape(3, m, m)
        # a bool mask over the first M^2 bytes of the second grid, which is
        # free when the finiteness test runs
        self._finite = grids[1].reshape(-1).view(np.bool_)[:m * m].reshape(m, m)
        # the first N^2 entries of each grid as an N x N array, for the
        # products with the mode numbers and their factor
        self._squares = grids.reshape(3, -1)[:, :n * n].reshape(3, n, n)
        # second-axis mode slots, where the first-axis transforms run, and
        # their first-axis mode slots, where the coefficients go:
        # [u1, d2 omega] in (sin, cos) in the first two grids, and
        # [d1 omega, u2] in (cos, sin) in the last two
        self._sc_cols = _midpoint_slot(grids[:2], "cos", n, -1)
        self._sc_modes = _midpoint_slot(self._sc_cols, "sin", n, -2)
        self._cs_cols = _midpoint_slot(grids[1:], "sin", n, -1)
        self._cs_modes = _midpoint_slot(self._cs_cols, "cos", n, -2)

    @staticmethod
    def scratch_size(n_grid: int) -> int:
        return 3 * n_grid * n_grid

    def __call__(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, m, w = self.n_modes, self.n_grid, self._workers
        if out is None:
            out = np.empty_like(coeffs)
        elif np.may_share_memory(out, coeffs):
            raise ValueError("out must not share memory with the coefficients")
        u1_grid, grad, adv = grids = self._grids
        # velocity and gradient as velocity_coefficients / spectral_derivative
        # form them, in out and the third grid's square, then their slots
        (u1, d2), (d1, u2) = self._sc_modes, self._cs_modes
        _, factor, product = self._squares
        _velocity_into(coeffs, self.symbol, product, out, factor)
        np.copyto(u1, product)
        np.copyto(d2, np.multiply(coeffs, factor, out=product))
        np.copyto(u2, out)
        _eval_midpoint_axis(self._sc_cols, "sin", n, -2, w)
        _eval_midpoint_axis(grids[:2], "cos", n, -1, w)
        _eval_midpoint_axis(self._cs_cols[1], "cos", n, -2, w)
        _eval_midpoint_axis(adv, "sin", n, -1, w)
        adv *= grad                                   # u2 * d2 omega
        np.copyto(d1, np.multiply(coeffs, _mode_numbers(n, 0, factor), out=out))
        _eval_midpoint_axis(self._cs_cols[0], "cos", n, -2, w)
        _eval_midpoint_axis(grad, "sin", n, -1, w)
        grad *= u1_grid                               # d1 omega * u1
        adv += grad
        _check_finite(adv, "advection product", self._finite)
        _pocketfft.dst(adv, 2, (-1,), inorm=0, out=adv, nthreads=w)
        kept = adv[:, :n]
        _pocketfft.dst(kept, 2, (0,), inorm=0, out=kept, nthreads=w)
        np.copyto(out, kept[:n])
        out /= -16.0 * m * m
        if self.preserve_degeneracy:
            _project_degeneracy(out, scratch=self._squares[:2])
        return out


# Grid rows of GridMax's second-axis buffer, and per run of rows that its
# row bounds rank and that it transforms at a time
_GRID_MAX_ROWS = 128
_GRID_MAX_RUN = 32
# A bound rules out a term or a run of rows only if the bound times
# 1 + _BOUND_MARGIN is at most the maximum found so far and at most
# _BOUND_CEILING.  The margin lies far above the relative rounding of an l1
# sum and of a type-I transform, about 1e-13; the ceiling leaves 2^24 of
# headroom, so no bound it admits can overflow in a transform's partial sums.
_BOUND_MARGIN = 1e-9
_BOUND_CEILING = 2.0 ** 1000


@lru_cache(maxsize=None)
def _mode_power(n_modes: int, power: int) -> np.ndarray:
    """m^power for m = 1..n_modes, read-only: a weight of GridMax's term bounds."""
    weights = np.arange(1.0, n_modes + 1) ** power
    weights.flags.writeable = False
    return weights


def _ruled_out(limit: float, best) -> bool:
    """Whether limit, a bound times 1 + _BOUND_MARGIN, shows that nothing it
    bounds exceeds best: never for a NaN, an infinite limit or one above
    _BOUND_CEILING."""
    return limit <= best and limit <= _BOUND_CEILING


class GridMax:
    """max|f| over Terms on the n_grid x n_grid collocation grid, in two held buffers.

    A call takes what evaluate_points takes, a coefficient stack (S, N, N)
    and a sequence of Terms, and returns the largest |value| of any term at
    any grid point, NaN if any value is NaN: the _max_abs of
    MixedParityField.evaluate's grids of the weighted coefficients, bit for
    bit.  The weighting runs in the first-axis buffer, (n_grid+1, N): the
    entry is copied into its mode slot, rows 1..N, and multiplied there by
    m^p1 and then n^p2, each filled by _mode_numbers into rows N+1..2N, then
    halved; n_grid >= 2N leaves those rows free until the transform zeroes
    them.  So every operand has the slot's shape, and no product takes a
    numpy iteration buffer or any array but the buffer.  The second-axis
    transform runs on one run of grid rows at a time in a
    (min(_GRID_MAX_ROWS, n_grid), n_grid+1) buffer; each row's transform is
    the same arithmetic in a run as in the whole grid.  Both buffers fit
    every parity pair, so one instance serves a whole simulation.

    A call transforms only what could raise the maximum found so far:
    - per term, |f| <= sum m^p1 n^p2 |a_mn|, the l1 norm of the weighted
      coefficients, from |a| formed in rows N+1..2N and two products with
      the mode numbers.  The terms are visited in descending order of this
      bound, the maximum carried across them, and a term whose bound
      _ruled_out runs no transform;
    - per row, after a term's first-axis transform, grid row i is bounded
      by twice the l1 norm of its halved row modes, formed by chunks in the
      second-axis buffer into an n_grid array the GridMax holds.  The rows
      go in runs of _GRID_MAX_RUN (32), each bounded by its largest row
      bound, and the runs are visited from the highest bound down, each
      alone; a run whose bound is ruled out by then is not transformed.
    A bound is ruled out when, times 1 + _BOUND_MARGIN (1e-9), it is at most
    the running maximum.  The margin lies far above the relative rounding of
    an l1 sum and of a length-2 n_grid type-I transform, about 1e-13, so a
    skipped transform could not have raised the maximum, and a maximum does
    not depend on the order it is taken in: the result is the exhaustive
    one's float.  A bound that is NaN, infinite or above _BOUND_CEILING is
    never ruled out, so a NaN and an overflow come out as they would
    without the bounds.  Measured on the plateau at N=256, n_grid=512 (one
    thread, 2-core x86-64, numpy 2.4.6): HESSIAN_TERMS 2.5 ms a call (the
    mixed entry's bound lies below the pure entries' maximum, and 4 % of
    the second-axis rows are transformed), VELOCITY_TERMS on the stream
    function 4.0 ms, GRADIENT_TERMS 2.6 ms and VALUE_TERMS 2.9 ms, where most
    rows hold the maximum and the bounds are pure cost.  A call allocates no
    grid-sized array and takes no iteration buffer, as the first axis's
    output is halved in place and each run's maximum runs over its whole
    contiguous buffer.

    The two buffers are views of scratch, a flat float64 array of at least
    scratch_size(N, n_grid) = (n_grid+1)(N + min(_GRID_MAX_ROWS, n_grid))
    entries, allocated when None: 1.6 MB at N=256, n_grid=512.  A call
    writes every entry it reads, so the scratch may serve other work
    between calls, as the time stepper's does.
    """

    def __init__(self, n_modes: int, n_grid: int, scratch: np.ndarray | None = None):
        if n_grid < 2 * n_modes:
            raise ValueError(f"n_grid={n_grid} < 2*N={2 * n_modes}")
        self.n_grid = n_grid
        self._workers = get_workers()
        size, first = self.scratch_size(n_modes, n_grid), (n_grid + 1) * n_modes
        if scratch is None:
            scratch = np.empty(size)
        self._first = scratch[:first].reshape(n_grid + 1, n_modes)
        self._grid = scratch[first:size].reshape(-1, n_grid + 1)
        self._row_bounds = np.empty(n_grid)

    @staticmethod
    def scratch_size(n_modes: int, n_grid: int) -> int:
        return (n_grid + 1) * (n_modes + min(_GRID_MAX_ROWS, n_grid))

    def __call__(self, coeffs: np.ndarray, terms) -> float:
        n = coeffs.shape[-1]
        # the mode slot of the first-axis buffer and the N rows past it,
        # which hold the weights until the transform zeroes them
        modes, weights = self._first[1:n + 1], self._first[n + 1:2 * n + 1]
        terms, limits = list(terms), []
        for entry, parity, powers in terms:
            if tuple(parity) not in _PARITIES:
                raise ValueError(f"invalid parity pair {parity}")
            np.abs(coeffs[entry], out=weights)
            bound = _mode_power(n, powers[0]) @ weights @ _mode_power(n, powers[1])
            limits.append(float(bound) * (1.0 + _BOUND_MARGIN))
        best = 0.0
        # sorted, not np.argsort, which allocates about 6 KiB even for a few entries
        for k in sorted(range(len(terms)), key=limits.__getitem__, reverse=True):
            if _ruled_out(limits[k], best):
                continue
            entry, parity, powers = terms[k]
            np.copyto(modes, coeffs[entry])
            for axis, power in enumerate(powers):
                if power:
                    modes *= np.power(_mode_numbers(n, axis, weights), power, out=weights)
            modes *= 0.5
            # the mode slot holds the halved modes already, and nothing is copied
            rows = _eval_axis(modes, parity[0], self.n_grid, -2, self._first, self._workers,
                              halved=True)
            # halved in place for the second axis: along the last axis the
            # modes' slot is strided, and a ufunc writing there takes numpy
            # iteration buffers, where one on the contiguous output takes none
            rows *= 0.5
            best = self._rows_max(rows, parity[1], best)
        return float(best)

    def _rows_max(self, rows: np.ndarray, parity: str, best) -> float:
        """The larger of best and every |value| of the halved grid rows,
        transformed along the second axis in the parity, that could exceed it."""
        g, n = rows.shape
        flat, bounds = self._grid.reshape(-1), self._row_bounds
        # each row's l1 norm, from |rows| formed in the second-axis buffer by chunks
        step = len(flat) // n
        for r in range(0, g, step):
            part = rows[r:r + step]
            np.abs(part, out=flat[:part.size].reshape(part.shape)).sum(axis=1,
                                                                       out=bounds[r:r + len(part)])
        run = min(_GRID_MAX_RUN, len(self._grid))
        limits = (np.maximum.reduceat(bounds, np.arange(0, g, run))
                  * (2.0 * (1.0 + _BOUND_MARGIN))).tolist()
        # continue, not break: a NaN bound sorts anywhere and is never ruled out
        for k in sorted(range(len(limits)), key=limits.__getitem__, reverse=True):
            if _ruled_out(limits[k], best):
                continue
            part = rows[k * run:(k + 1) * run]
            buf = self._grid[:len(part)]
            _eval_axis(part, parity, g, -1, buf, self._workers, halved=True)
            # over the rows' whole contiguous buffer, which numpy reduces
            # without an iteration buffer: a zero in the column past the
            # grid leaves max(max, -min), which is never negative, as it is
            buf[:, g] = 0.0
            # np.maximum, unlike the builtin, keeps a NaN of any run
            best = np.maximum(best, _max_abs(buf))
        return best


def hessian_sup_norm(omega: SineField, n_grid: int, grid_max: GridMax | None = None) -> float:
    """Max over grid points of the largest |entry| of the Hessian of omega.

    Collocation-grid maximization: a lower bound for the true sup norm that
    converges as n_grid grows.  One call of grid_max, a GridMax on n_grid,
    on HESSIAN_TERMS; one is built when none is given.  The call takes no
    array but the GridMax's scratch, which it writes the weighted
    coefficients into, and skips the entries and grid rows whose bounds
    show they cannot hold the maximum (GridMax).
    """
    if grid_max is None:
        grid_max = GridMax(omega.n_modes, n_grid)
    elif grid_max.n_grid != n_grid:
        raise ValueError(f"GridMax on {grid_max.n_grid} points, not n_grid={n_grid}")
    return grid_max(omega.coeffs[None], HESSIAN_TERMS)


def l2_norm(field: SineField) -> float:
    """L2 norm over [0, pi]^2 via Parseval: ||f||^2 = (pi^2/4) sum a^2."""
    return float(np.pi / 2.0 * np.linalg.norm(field.coeffs))


def grid_max_abs(field: SineField, n_grid: int) -> float:
    """Max of |f| over the collocation grid."""
    return GridMax(field.n_modes, n_grid)(field.coeffs[None], VALUE_TERMS)
