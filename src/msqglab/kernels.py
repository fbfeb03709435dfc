"""Symmetrized Biot-Savart kernels and direct velocity quadrature.

The odd-odd symmetrization folds the plane integral into the first quadrant
with image charges at x_tilde = (-x1, x2), x_bar = (x1, -x2) and -x:

    u1(x) =  int K1(x, y) omega(y) dy,
    u2(x) =  int K2(x, y) omega(y) dy,       y in [0, inf)^2,

where K1 carries (x2 -+ y2) differences over |.|^(2+2a) distances and K2 the
x1 analogue with an overall minus sign (K2(x, y) = -K1(swap x, swap y)).
The kernels drop the alpha-dependent Biot-Savart prefactor; the closed-form
Riesz normalization riesz_velocity_prefactor restores physical units.

Quadrature is the midpoint rule on axis-aligned rectangles.  Regions:

    near(L):   [0, L|x|]^2
    medium(L): [0, pi)^2 minus the near square, covered by dyadic frames so
               the inner scale is always resolved (each frame is three
               rectangles whose node multiset is swap-symmetric, summed as
               two tensor grids)
    far:       periodic image cells [0, R*pi)^2 minus the central cell (the
               neglected tail falls as R^(-2-2a); image_tail sums the cells
               between R and 2R directly)
    full:      central cell + far

One private helper, _four_terms, writes the four-term formula in factored
form,

    K1 = (x2-y2)(i0-it) + (x2+y2)(ip-ib),
    K2 = (x1-y1)(ib-i0) + (x1+y1)(it-ip),

with i0, it, ib, ip the inverse powers |.|^(-2-2a) of the distances from y
to x, x_tilde, x_bar and -x, from the four terms' contractions laid out as
[s1, s2] for the image source at (s1 y1, s2 y2).  Each power is taken as
1 / (d * d**a) for the squared distance d, and d**0.5 as a square root
taken from d straight into the powers' array, so at the default a = 1/2 no
pow call is made.  kernel_K1/kernel_K2 assemble K on the nodes.  A region
sum never does: on a tensor grid (x2 -+ y2) depends on the column only and
(x1 -+ y1) on the row only.  A row block lays out all four terms as one
array d[s1, i, s2, j]; its squared distances are one matrix product, its
weighted powers omega * i three array operations written in place, and
both contractions one product with the column factors followed by dots
with the row factors.  A block holds at most 32,768 entries across its
four terms (or one grid row, if that is more), so a node sum's scratch is
bounded however many cells its grid has.
At the CLI defaults a medium frame's grids are one block each, the near
square two, the 256^2 central cell eight and a row of image cells four;
the stale frames of a medium call share sine tables of up to 65,536
entries, which at N = 128 is one table for up to four frames.

An oracle holds four kinds of buffer, each with one rule:
  * work: three rows of scratch and a factor row, each grown (never
    shrunk) to the largest size a call asks for.  A node sum's blocks take
    the three rows and its row and column factors the factor row, which
    is sized to the factors (at least those of a cells_panel x
    2 cells_panel grid, the largest near square or medium frame); before a
    call's sums, a sine table takes the first row, and the complex powers
    it is built from and its product with the coefficients the other two.
    A fresh array of that size would cost more than its arithmetic
    wherever glibc maps allocations of 128 KiB and up afresh and faults in
    their pages on every call, so a warm call makes no transient array of
    more than a few rows.  About 1.6 MB at the CLI defaults (a medium
    call's shared table of 65,536 entries sets the rows), of which a call
    touches the table's row and the first part of the next.
  * whole cells: omega on the n x n midpoints of [0, pi], by spectral's
    midpoint transform (spectral.evaluate_midpoints, which folds the modes
    above n onto the grid), kept per n.  The central cell (cells_central)
    and the image cells' base grid (cells_far) both read it.
  * the image-cell strip: the base grid flipped by parity, laid out as one
    row of cells that every row of the image lattice sums in one call, for
    any range of whole cells (the far region or its tail); rebuilt wider
    when a larger range is asked for.
  * sample slots: one array of 3 cells_panel^2 samples per slot, allocated
    when the slot is first asked for and refilled when its key changes.
    Slot 0 holds the last near square, keyed on its exact side s = L|x|;
    slot k >= 1 the k-th medium frame counted down from pi, keyed on its
    exact (lo, hi, na, nb), so that s and s/2, whose frames differ only in
    the lowest one, share every other slot.  Both are sampled on
    sub-intervals of [0, pi] as (S1 @ c) @ S2.T from sine tables S: the
    stale frames of a medium call take one table on their [yb | ya], each
    frame's midpoints across [0, lo] and [lo, hi] one after another (as
    many frames to a table as fit 65,536 entries), and a frame's two grids
    ya x [yb | ya] and yb x ya are row blocks of the table's product with
    the coefficients times the frame's columns of the table.
A far sum at the point of the previous one is returned again.  A reused
value is the same arithmetic on the same floats, so reuse never changes a
result.

A sine matrix sin(m y) is built by angle addition from one complex
exponential z = exp(i y) per coordinate: for m = q b + r with b = 16 it
takes z^r (r = 1..b) and (z^b)^q, each power the product of two lower
ones.  Against 30-digit references, on the oracle's grids at n = 128, its
entries are off by at most 1.3e-14, where np.sin(m y) is off by 2.8e-14
from rounding the arguments m y (up to about 400).

The principal-value singularity at y = x (needed for alpha >= 1/2, harmless
otherwise) is handled on the rectangle containing x: the singular first
term is Taylor-subtracted there and its integral against the linearization
of omega added back.  That integral reduces to integrals along the
rectangle's edges, each of them a sum of integrals from 0 to u of
(t^2 + c^2)^(-alpha) and t (t^2 + c^2)^(-alpha), where u and c are
distances from x to the edges.  The first moments are closed form and
the zeroth are Gauss-Legendre sums after t = c sinh v, both to rounding,
and a rectangle's eight (u, c) pairs take one array evaluation.  The
linearization takes omega(x) and grad omega(x) from one
spectral.evaluate_points call on omega's own coefficients, with the two
first derivatives as terms weighted by the mode numbers, so an oracle
holds no derivative array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import GRADIENT_TERMS, VALUE_TERMS, SineField, evaluate_midpoints, evaluate_points

__all__ = [
    "KernelParams",
    "RegionSpec",
    "kernel_K1",
    "kernel_K2",
    "asymptotic_K",
    "relative_kernel_error",
    "QuadratureOracle",
    "riesz_velocity_prefactor",
]


@dataclass(frozen=True)
class KernelParams:
    """Quadrature controls for the kernel oracle.

    image_radius is the number of periodic image cells summed per
    direction; the neglected tail falls as image_radius^(-2-2alpha), by
    2^(2+2alpha) per doubling as measured at alpha = 0.25, 0.5 and 0.75.
    QuadratureOracle.image_tail sums the cells between image_radius and
    twice it, which is how verify_far_field checks the tail.
    cells_central, cells_panel and cells_far are the midpoint cells per
    axis of the central cell, of a near square or medium frame, and of
    each image cell.
    """

    alpha: float
    image_radius: int = 8
    cells_central: int = 256
    cells_panel: int = 128
    cells_far: int = 64

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"kernel alpha must be in (0, 1), got {self.alpha}")
        if self.image_radius < 1:
            raise ValueError("image_radius must be >= 1")
        for name in ("cells_central", "cells_panel", "cells_far"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be >= 8")


def _params_for(alpha: float, params: KernelParams | None) -> KernelParams:
    """params, or the default KernelParams at alpha; ValueError if params has another alpha."""
    if params is not None and params.alpha != alpha:
        raise ValueError(f"params.alpha={params.alpha} disagrees with alpha={alpha}")
    return params or KernelParams(alpha=alpha)


@dataclass(frozen=True)
class RegionSpec:
    """Integration region; L (>= 2) sets the near/medium split at L|x|."""

    kind: str
    L: float = 0.0

    def __post_init__(self):
        if self.kind not in ("near", "medium", "far", "full"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind in ("near", "medium") and not self.L >= 2.0:
            raise ValueError(f"{self.kind} region requires L >= 2, got {self.L}")


# Entries across the four image terms of a node-sum block, unless one grid
# row takes more.  A block's temporaries live in the oracle's scratch, so
# summing a block allocates no node-sized array and faults in no pages.
_BLOCK_NODES = 32768

# Entries of a sine table shared by the stale frames of one medium call:
# frames share a table up to this size (a frame larger than it takes one
# of its own), so the scratch is bounded however many frames a call has.
_TABLE_NODES = 2 * _BLOCK_NODES

# s1 s2 of the image term at (s1 y1, s2 y2), indexed [s1 < 0, s2 < 0]
_SIGNS = ((1.0, -1.0), (-1.0, 1.0))


def _image_factors(x, y):
    """x - s y for s = +1 and s = -1, stacked on a new first axis."""
    return np.array([x - y, x + y])


def _inverse_powers(d, p, alpha: float):
    """p = d * d**alpha into p, for squared distances d.

    The root goes from d straight into p: np.sqrt at the default alpha =
    1/2 (what numpy's in-place ** takes for that exponent), np.power
    otherwise, so no pass copies d first.
    """
    if alpha == 0.5:
        np.sqrt(d, out=p)
    else:
        np.power(d, alpha, out=p)
    p *= d


def _four_terms(t1, t2):
    """The symmetrized kernels, or sums of them, from their four image terms.

    The odd-odd extension of omega has a source of sign s1 s2 at
    (s1 y1, s2 y2) for each y, so with e = (x1 - s1 y1, x2 - s2 y2)

        K = sum over s1, s2 = +-1 of  s1 s2 (e2, -e1) |e|^(-2-2alpha),

    that is K1 = (x2-y2)(i0-it) + (x2+y2)(ip-ib) and
    K2 = (x1-y1)(ib-i0) + (x1+y1)(it-ip) with the inverse powers i of the
    distances from y to x, x_tilde, x_bar and -x.  s1 = s2 = 1 is the
    singular free-space term.  t1[a, b] is the weighted power P of the
    term (s1, s2) indexed [s1 < 0, s2 < 0] times its e2, on the nodes or
    contracted over them, and t2[a, b] is P times e1; the terms are added
    in one fixed order.
    """
    k1 = k2 = 0.0
    for a in (0, 1):
        for b in (0, 1):
            k1 = k1 + _SIGNS[a][b] * t1[a][b]
            k2 = k2 - _SIGNS[a][b] * t2[a][b]
    return k1, k2


def _block_rows(n1: int, n2: int) -> int:
    """Rows per block of a node sum over n1 x n2 nodes: as many as fit 4 n2
    entries each in _BLOCK_NODES, at least one and at most n1."""
    return min(n1, max(1, _BLOCK_NODES // (4 * n2)))


def _carve(buf, *shapes):
    """Consecutive views of the flat array buf, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[start:start + size].reshape(shape))
        start += size
    return views


def _node_room(n1: int, n2: int) -> int:
    """Entries per row of the three block rows of _node_sums over n1 x n2
    nodes: the four terms of a block."""
    return 4 * n2 * _block_rows(n1, n2)


def _factor_room(n1: int, n2: int) -> int:
    """Entries of the factor row of _node_sums over n1 x n2 nodes."""
    return 6 * n1 + 13 * n2 + 4


def _node_sums(x, y1, y2, w, cw, alpha: float, work, factors, lin=None):
    """(sum K1 w cw, sum K2 w cw) over the tensor grid y1 x y2 with samples w.

    y1 and y2 are ascending, and cw weights the columns (a scalar, or one
    weight per column).  A block of r rows lays out all four image terms
    as one array d[s1, i, s2, j], so every step is one array operation on
    the block:
      * the squared distances are one product of [e1^2, 1] (rows) and
        [1, e2^2] (columns), each entry e1^2 + e2^2 rounded once;
      * the weighted powers P = w / (d * d**alpha) take one root into P,
        one *= d and one divide of the samples, broadcast over the terms;
      * both contractions are one product with the (2c x 4) column factors
        (e2 cw, cw) of each s2, then dots with the row factors (1, e1).
    The kernels are never formed on the nodes.  A block has _block_rows
    rows, and work is a (3, room) array with room = _node_room(n1, n2)
    that holds d, P and the singular weights.  The factors live in
    factors, a 1-D array of _factor_room(n1, n2) entries, in four parts:
    the rows e1^2, 1 and e1 of both s1, of which the first two read
    transposed are the left operand of the distances and the last two the
    row factors; the right operand [1, e2^2]; the column factors; and one
    column of scratch.  So the fills are a handful of array operations,
    and a call allocates nothing node-sized.  With lin = (w0, g1, g2)
    the singular term is weighted by the residual of the linearization
    w0 + g1 (y1-x1) + g2 (y2-x2) instead of w.  A node at y = x
    contributes no singular term, and is not divided by its zero distance.
    """
    x1, x2 = x
    n1, n2 = w.shape
    rows = _block_rows(n1, n2)
    at = 6 * n1 + 4 * n2
    row_side = factors[:6 * n1].reshape(3, 2, n1)
    right = factors[6 * n1:at].reshape(2, 2 * n2)
    # cols[s2 j, s1 k] is (e2 cw, cw)[k] where s1 = s2 and 0 elsewhere;
    # flat, that is entry s (4 n2 + 2) + 4 j + k, so with four spare
    # entries after cols both diagonal blocks are one (2, n2, 4) view
    cols = factors[at:at + 8 * n2]
    diagonal = factors[at:at + 8 * n2 + 4].reshape(2, 4 * n2 + 2)[:, :4 * n2].reshape(2, n2, 4)
    column = factors[at + 8 * n2 + 4:at + 9 * n2 + 4]
    e1, e2 = row_side[2], right[1].reshape(2, n2)
    for e, x_, y in ((e1, x1, y1), (e2, x2, y2)):      # x - s y, as _image_factors
        np.subtract(x_, y, out=e[0])
        np.add(x_, y, out=e[1])
    row_side[1] = 1.0
    np.multiply(e1, e1, out=row_side[0])
    row_side = row_side.transpose(1, 0, 2)
    left, row_factors = row_side[:, :2].transpose(0, 2, 1), row_side[:, 1:]
    cols[...] = 0.0
    np.multiply(e2, cw, out=diagonal[..., 0])
    diagonal[..., 1] = cw
    cols = cols.reshape(2 * n2, 4)
    np.multiply(e2, e2, out=e2)
    right[0] = 1.0
    hits = y1[0] <= x1 <= y1[-1] and y2[0] <= x2 <= y2[-1]
    hit_cols = np.flatnonzero(y2 == x2) if hits else ()
    if lin is not None:
        w0, g1, g2 = lin
        taylor_cols = np.multiply(g2, np.subtract(y2, x2, out=column), out=column)
    sums = None
    for r in range(0, n1, rows):
        block = slice(r, r + rows)
        wb = w[block]
        nr = len(wb)
        d = work[0, :4 * wb.size].reshape(2, nr, 2 * n2)
        p = work[1, :4 * wb.size].reshape(2, nr, 2 * n2)
        np.matmul(left[:, block], right, out=d)
        _inverse_powers(d, p, alpha)
        terms = p.reshape(2, nr, 2, n2)
        singular = terms[0, :, 0]
        # a node at y = x has d = 0: it is divided by 1, then dropped
        hit_rows = np.flatnonzero(y1[block] == x1) if len(hit_cols) else ()
        if len(hit_rows):
            singular[np.ix_(hit_rows, hit_cols)] = 1.0
        # d is spent: its row takes the samples, tiled like a term
        # row [s2, j], so that each divide runs on contiguous operands
        if lin is not None:
            ws, taylor = work[2, :wb.size].reshape(wb.shape), work[0, :wb.size].reshape(wb.shape)
            np.copyto(ws, w0 + g1 * (y1[block, None] - x1))
            np.copyto(taylor, taylor_cols)
            ws += taylor
            np.subtract(wb, ws, out=ws)
        tiled = work[0, :2 * wb.size].reshape(nr, 2, n2)
        np.copyto(tiled, wb[:, None])
        if lin is None:
            np.divide(tiled, terms, out=terms)
        else:
            np.divide(tiled, terms[1], out=terms[1])
            tiled[:, 0] = ws
            np.divide(tiled, terms[0], out=terms[0])
        if len(hit_rows):
            singular[np.ix_(hit_rows, hit_cols)] = 0.0
        part = row_factors[:, :, block] @ (p @ cols)
        sums = part if sums is None else sums + part
    sums = sums.reshape(2, 2, 2, 2)
    return _four_terms(sums[:, 0, :, 0].tolist(), sums[:, 1, :, 1].tolist())


def _kernels_at(x, y, alpha: float, name: str):
    """(K1, K2) at y, an (..., 2) array, rejecting y = x; x broadcasts too."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    if np.any((y1 == x1) & (y2 == x2)):
        raise ValueError(f"{name} evaluated at y = x; caller must exclude the singularity")
    # terms indexed [s1, s2, node]
    e1 = _image_factors(x1, y1)[:, None]
    e2 = _image_factors(x2, y2)[None]
    d = e1 * e1 + e2 * e2
    p = np.empty_like(d)
    _inverse_powers(d, p, alpha)
    np.divide(1.0, p, out=p)
    return _four_terms(p * e2, p * e1)


def kernel_K1(x, y, alpha: float):
    """Four-term symmetrized kernel for u1; x and y may be (..., 2) arrays
    that broadcast."""
    return _kernels_at(x, y, alpha, "kernel_K1")[0]


def kernel_K2(x, y, alpha: float):
    """Four-term symmetrized kernel for u2 (overall minus sign)."""
    return _kernels_at(x, y, alpha, "kernel_K2")[1]


def asymptotic_K(j: int, x, y, alpha: float):
    """Large-|y|/|x| form: (-1)^j * 8(1+alpha) * x_j y1 y2 |y|^(-4-2alpha);
    x and y broadcast as in kernel_K1."""
    if j not in (1, 2):
        raise ValueError(f"component j must be 1 or 2, got {j}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    y1, y2 = y[..., 0], y[..., 1]
    xj = x[..., j - 1]
    sign = -1.0 if j == 1 else 1.0
    return sign * 8.0 * (1.0 + alpha) * xj * y1 * y2 * (y1**2 + y2**2) ** (-(2.0 + alpha))


def relative_kernel_error(j: int, x, y, alpha: float):
    """f_j = K_j / asymptotic - 1; rejects zero asymptotic denominators."""
    a = asymptotic_K(j, x, y, alpha)
    if np.any(a == 0.0):
        raise ValueError("asymptotic kernel vanishes for some sample; pick x_j, y1, y2 != 0")
    k = kernel_K1(x, y, alpha) if j == 1 else kernel_K2(x, y, alpha)
    return k / a - 1.0


def riesz_velocity_prefactor(alpha: float) -> float:
    """Free-space normalization relating the bare kernels to grad^perp
    (-Laplace)^(-1+alpha): c_alpha = 2 Gamma(1+alpha) / (4^(1-alpha) pi Gamma(1-alpha)).

    For alpha = 1/2 this is 1/(2 pi).  c_alpha times the oracle's full-region
    velocity is the spectral velocity up to quadrature and image-truncation
    error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return 2.0 * math.gamma(1.0 + alpha) / (4.0 ** (1.0 - alpha) * np.pi * math.gamma(1.0 - alpha))


# Modes per block of a sine table (see _sines)
_SINE_BLOCK = 16


def _powers(z, k: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """z^0, z^1, ..., z^k along a new last axis of out, a complex array.

    Each power above z is the product of two lower ones: z^(h+j) = z^j z^h
    for the highest power z^h so far and j = 1..h, so k powers take about
    log2(k) array products.  A product of one column is written in place:
    numpy finds its operands disjoint from it and runs its scalar loop.  A
    wider one has strided operands, which numpy would pass through
    iteration buffers it allocates on every call, so it is formed in
    scratch, a 1-D complex array of room for two such products, from
    contiguous copies of its factors (the higher power repeated along the
    row) and copied back.  That takes numpy's SIMD loop, as the buffers
    did, so every power has the bits of the product written in place.
    """
    out[..., 0] = 1.0
    if k:
        out[..., 1] = z
    have = 1
    while have < k:
        m = min(have, k - have)
        powers = out[..., have + 1:have + 1 + m]
        if m == 1:
            np.multiply(out[..., 1:2], out[..., have:have + 1], out=powers)
        else:
            low, high = _carve(scratch, powers.shape, powers.shape)
            low[...] = out[..., 1:1 + m]
            high[...] = out[..., have:have + 1]
            np.multiply(low, high, out=low)
            powers[...] = low
        have += m
    return out


def _sine_scratch(n_points: int, n_modes: int) -> int:
    """Entries of the scratch of _sines on n_points coordinates."""
    return n_points * (4 * _SINE_BLOCK + 2 + 4 * -(-n_modes // _SINE_BLOCK))


def _sines(y: np.ndarray, n_modes: int, out=None, scratch=None) -> np.ndarray:
    """Sine matrix sin(m y), one row per coordinate, m = 1..n_modes.

    Built from z = exp(i y), one complex exponential per coordinate, by
    angle addition in blocks of _SINE_BLOCK modes: for m = q b + r,
    sin(m y) = sin(q b y) cos(r y) + cos(q b y) sin(r y), with z^r
    (r = 1..b) and (z^b)^q formed by _powers.  Each coordinate's
    ceil(n_modes/b) blocks are one (blocks, 2) @ (2, b) product, and the
    table is cut to n_modes columns.  With out, a 1-D array with room for
    the table rounded up to whole blocks, the table is written there and
    is a view of it.  The powers and the two factors of that product are
    formed in scratch, a 1-D array of at least _sine_scratch(len(y),
    n_modes) entries, allocated when None.

    These tables serve the oracle's grids on sub-intervals of [0, pi], the
    near squares and medium frames; a whole cell is sampled by the midpoint
    transform, and spectral.evaluate_points takes np.sin and np.cos.
    Measured on one thread of a 2-core x86-64 machine, mmap threshold
    pinned, n_modes = 128: on 64 and 256
    coordinates a blocked table takes 85 and 242 us against 192 and 1153 us
    for np.sin plus np.cos, and it fills the oracle's scratch through out.
    On 2 coordinates the complex powers take 47 us against 15 us, so the
    point routine does not use them.
    """
    b = _SINE_BLOCK
    blocks = -(-n_modes // b)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if scratch is None:
        scratch = np.empty(_sine_scratch(n, n_modes))
    complex_room = 2 * n * (b + 1 + blocks)
    steps, bases = _carve(scratch[:complex_room].view(np.complex128), (n, b + 1), (n, blocks))
    # the powers' products go through the room of left and right, which
    # are filled after them
    products = scratch[complex_room:].view(np.complex128)
    left, right = _carve(scratch[complex_room:], (n, blocks, 2), (n, 2, b))
    step = _powers(np.exp(1j * y), b, steps, products)[:, 1:]
    base = _powers(step[:, -1], blocks - 1, bases, products)
    left[..., 0], left[..., 1] = base.imag, base.real
    right[:, 0], right[:, 1] = step.real, step.imag
    if out is not None:
        out = out[:len(y) * blocks * b].reshape(len(y), blocks, b)
    return np.matmul(left, right, out=out).reshape(len(y), blocks * b)[:, :n_modes]


def _midpoints(a: float, b: float, n: int, out=None):
    """The n cell midpoints a + (k + 1/2) h of [a, b] (written into out, if
    given) and the cell width h."""
    h = (b - a) / n
    y = np.multiply(np.arange(0.5, n), h, out=out)
    y += a
    return y, h


def _gauss_legendre(n: int):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1].

    Newton's method on P_n from the three-term recurrence, started at
    cos(pi (k + 3/4) / (n + 1/2)), which converges quadratically from
    there.  Unlike np.polynomial.legendre.leggauss this makes no LAPACK
    call, whose first use costs a process about 0.6 MB of resident memory.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# 16-point Gauss-Legendre nodes and weights on [-1, 1] (see _edge_moments)
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)


def _edge_moments(u, c, alpha: float):
    """int_0^u (t^2 + c^2)^(-alpha) dt and int_0^u t (t^2 + c^2)^(-alpha) dt.

    Elementwise for arrays u, c > 0 of one shape.  The first moment is
    closed form, ((u^2 + c^2)^(1-alpha) - c^(2-2alpha)) / (2 - 2alpha),
    taken through expm1 and log1p so it keeps its relative precision when
    u << c.  The zeroth moment is c^(1-2alpha) times the integral of
    cosh(v)^(1-2alpha) over 0 < v < asinh(u/c) (t = c sinh v), which is
    asinh(u/c) at alpha = 1/2.  That integrand is analytic in a strip of
    half-width pi/2 about the real axis, so composite 16-point
    Gauss-Legendre on panels no longer than 1 takes it to rounding; every
    entry is cut into the same number of panels, so all of them are one
    array evaluation.
    """
    beta = 1.0 - 2.0 * alpha
    v = np.arcsinh(u / c)
    panels = max(1, int(np.ceil(v.max())))
    t = ((np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_NODES)) / panels).ravel()
    weights = np.tile(_GL_WEIGHTS, panels)
    zeroth = (np.cosh(v[..., None] * t) ** beta @ weights) * (0.5 / panels) * v * c ** beta
    first = c ** (2.0 - 2.0 * alpha) * np.expm1((1.0 - alpha) * np.log1p((u / c) ** 2))
    return zeroth, first / (2.0 - 2.0 * alpha)


def _linear_pv_integrals(x, rect, alpha: float, w0: float, g1: float, g2: float):
    """Exact integrals of the singular kernel terms against w0 + g . (y - x).

    Computes I_j = int_rect T_j(y) (w0 + g1 (y1-x1) + g2 (y2-x2)) dy for
    T_1 = (x2-y2) |x-y|^(-2-2a) and T_2 = (y1-x1) |x-y|^(-2-2a), with x
    strictly inside the rectangle, in the principal-value sense.  Every
    piece reduces to integrals of r^(-2a) and (t - x) r^(-2a) along the
    rectangle's edges (an antiderivative in one variable, and the
    divergence theorem for the |x-y|^(-2a) bulk term).  Split at the foot
    of x, each edge is two integrals from 0 to u of (t^2 + c^2)^(-alpha)
    and t (t^2 + c^2)^(-alpha), with u and c two of the distances from x
    to the four edges; _edge_moments takes all eight (u, c) pairs at once.
    """
    x1, x2 = x
    a1, b1, a2, b2 = rect
    two_a = 2.0 * alpha
    # distances from x to the edges: [axis, (upper, lower)]
    dist = np.array([[b1 - x1, x1 - a1], [b2 - x2, x2 - a2]])
    # [f, e, s]: on the edges that run along axis f, the upper (e = 0) or
    # lower (e = 1) one, from the foot of x up (s = 0) or down (s = 1)
    zeroth, first = _edge_moments(np.broadcast_to(dist[:, None, :], (2, 2, 2)),
                                  np.broadcast_to(dist[::-1, :, None], (2, 2, 2)), alpha)
    along = zeroth.sum(axis=-1)                      # int r^(-2a) over each edge
    moment = first[..., 0] - first[..., 1]           # int (t - x_f) r^(-2a)
    e1, e2 = along[:, 0] - along[:, 1]
    e1w, e2w = moment[:, 0] - moment[:, 1]
    jh, jv = (dist[::-1] * along).sum(axis=-1)
    j_bulk = (jv + jh) / (2.0 - two_a)

    int_t1 = e1 / two_a                  # (x2-y2) r^(-2-2a)
    int_t1_y1 = e1w / two_a              # (x2-y2)(y1-x1) r^(-2-2a)
    int_t2 = -e2 / two_a                 # (y1-x1) r^(-2-2a)
    int_cross = -e2w / two_a             # (y1-x1)(y2-x2) r^(-2-2a)
    int_y2sq = (j_bulk - jh) / two_a     # (y2-x2)^2 r^(-2-2a)
    int_y1sq = (j_bulk - jv) / two_a     # (y1-x1)^2 r^(-2-2a)

    i1 = w0 * int_t1 + g1 * int_t1_y1 - g2 * int_y2sq
    i2 = w0 * int_t2 + g1 * int_y1sq + g2 * int_cross
    return float(i1), float(i2)


# omega, d1 omega and d2 omega as terms of a stack of omega alone
_LINEARIZATION = VALUE_TERMS + GRADIENT_TERMS


class QuadratureOracle:
    """Kernel-quadrature velocity for one vorticity field.

    Every whole cell [0, pi]^2 is omega on its midpoints from
    _cell_samples, kept per cell count: the central cell (cells_central)
    and the base grid of the image cells (cells_far), whose strip of
    parity-flipped copies the oracle holds, so sweeps over many evaluation
    points reuse the omega sampling.  The principal-value linearization
    reads omega's own coefficients.

    The near square and the medium frames are sampled from sine tables
    into sample slots, one array of 3 cells_panel^2 samples per slot,
    allocated when first asked for and never copied.  Slot 0 holds the last
    near square, keyed on its exact side s = L|x|.  Slot k >= 1 holds the
    two sample grids of the k-th medium frame counted down from pi,
    ya x [yb | ya] (its rectangle [lo,hi] x [0,lo] and the corner
    [lo,hi]^2 share their rows) and yb x ya, na (nb + na) + nb na samples
    keyed on its exact (lo, hi, na, nb); na and nb never exceed
    cells_panel (which is at least 8, the floor on both).  The frames of s/2
    are those of s plus one below them, so both share slots.  A medium
    call fills its stale slots together, from sine tables shared by its
    frames (_TABLE_NODES entries at most, or one frame), and then sums each
    frame's two grids, frame after frame from the lowest.  The last
    image-cell sum is kept with its point and range and returned again for
    a far or full call at exactly that point.

    Every grid is summed by _node_sums, with its cell areas as column
    weights: per row block of at most _BLOCK_NODES entries across the four
    image terms, the terms' weighted powers P = omega / (d * d**alpha) are
    formed together in place (at alpha = 1/2 the power is a square root)
    and contracted with their row and column factors (x1 -+ y1),
    (x2 -+ y2) by two matrix products, so neither kernel is formed on the
    nodes.  On the rectangle that holds x the singular term is weighted by
    omega minus its linearization at x instead.  The blocks and, before a
    call's sums, its sine tables live in a three-row scratch held by the
    oracle, and the factors in a factor row beside it, both grown when a
    call needs more room, so an oracle is not to be shared between
    threads.  Sums are deterministic for a fixed partition.
    """

    def __init__(self, omega: SineField, params: KernelParams):
        self.omega = omega
        self.params = params
        self._cells = {}            # n -> omega on the n x n midpoints of [0, pi]
        self._strip = None          # samples of an even row of image cells
        self._work_cache = None     # (3, room) block rows
        self._factor_cache = None   # the node sums' factor row
        self._slots = {}            # slot -> [key, samples]
        self._far_memo = None       # ((x, inner, outer), (u1, u2)) of the last _image_cells

    # -- omega sampling -------------------------------------------------

    def _cell_samples(self, n: int):
        """omega on the n x n midpoints of [0, pi], by spectral's midpoint
        transform, kept per n."""
        if n not in self._cells:
            self._cells[n] = evaluate_midpoints(self.omega.coeffs, n)
        return self._cells[n]

    def _grown(self, name: str, shape: tuple):
        """The scratch array held under name, grown along its last axis when
        a call needs more than it holds.  The old array is let go before the
        new one is made, so that a growth never holds both."""
        held = getattr(self, name)
        if held is None or held.shape[-1] < shape[-1]:
            held = None
            setattr(self, name, None)
            held = np.empty(shape)
            setattr(self, name, held)
        return held

    def _work(self, room: int):
        """Scratch for the node sums' blocks and the sample fills: three
        rows of at least room entries each."""
        return self._grown("_work_cache", (3, room))

    def _grid_sums(self, x, y1, y2, w, cw, lin=None):
        """_node_sums over the grid y1 x y2, in this oracle's scratch."""
        if not w.size:      # row 0 of the image cells at image_radius 1
            return 0.0, 0.0
        work = self._work(_node_room(*w.shape))
        # a near square or medium frame has at most cells_panel rows and
        # 2 cells_panel columns: room for that keeps warm calls at other
        # scales from growing the factor row
        npanel = self.params.cells_panel
        factors = self._grown("_factor_cache", (max(_factor_room(*w.shape),
                                                    _factor_room(npanel, 2 * npanel)),))
        return _node_sums(x, y1, y2, w, cw, self.params.alpha, work, factors, lin)

    def _sine_products(self, y):
        """S @ coeffs and S.T for the sine table S of y, written into the scratch."""
        coeffs = self.omega.coeffs
        n = coeffs.shape[0]
        # the table takes the first row and its scratch the other two; a
        # medium frame has at most 2 cells_panel coordinates, and room for
        # the scratch of a whole number of frames keeps warm calls at other
        # scales from growing it
        frame = 2 * self.params.cells_panel
        points = -(-len(y) // frame) * frame
        work = self._work(max(len(y) * -(-n // _SINE_BLOCK) * _SINE_BLOCK,
                              -(-_sine_scratch(points, n) // 2)))
        s = _sines(y, n, work[0], work[1:].reshape(-1))
        return np.matmul(s, coeffs, out=work[1, :s.size].reshape(s.shape)), s.T

    def _samples(self, wanted, fill):
        """The sample arrays of each (slot, key, shapes) in wanted, carved
        from its slot, which holds 3 cells_panel^2 samples and is allocated
        when first asked for.

        The slots that do not already hold the samples keyed by their key
        are stale: fill(stale), with stale the list of (index in wanted,
        arrays) of those, writes them first.
        """
        held, arrays = [], []
        for slot, _, shapes in wanted:
            if slot not in self._slots:
                self._slots[slot] = [None, np.empty(3 * self.params.cells_panel ** 2)]
            held.append(self._slots[slot])
            arrays.append(_carve(held[-1][1], *shapes))
        stale = [i for i, (_, key, _) in enumerate(wanted) if held[i][0] != key]
        if stale:
            for i in stale:
                held[i][0] = None       # a fill that raises leaves the slot unkeyed
            fill([(i, arrays[i]) for i in stale])
            for i in stale:
                held[i][0] = wanted[i][1]
        return arrays

    def _linearization(self, x):
        """(omega, d1 omega, d2 omega) at x, by one evaluate_points call on
        omega's own coefficients."""
        return tuple(evaluate_points(self.omega.coeffs[None], _LINEARIZATION, x).tolist())

    # -- singular rectangle sum ------------------------------------------

    def _sum_rect(self, x, rect, y1, y2, w, pv=False):
        """Midpoint sum of (K1*w, K2*w) over rect = (a1, b1, a2, b2), with
        midpoints y1, y2 and samples w.

        If pv is set (x strictly inside the rectangle), the singular first
        term gets the principal-value treatment.
        """
        a1, b1, a2, b2 = rect
        h1 = (b1 - a1) / len(y1)
        h2 = (b2 - a2) / len(y2)
        area = h1 * h2
        x = (float(x[0]), float(x[1]))
        if not pv:
            return self._grid_sums(x, y1, y2, w, area)

        # Subtract the linearization of omega from the singular term over
        # the whole rectangle and add its integral back semi-analytically.
        # The sampled residual (omega - P) * S is integrable and its
        # midpoint sum converges; a patch that scales with the cell size
        # would leave a resolution-independent ring error instead.  The
        # node at y = x (if any) is left out; its true residual
        # contribution is the integrable O(h^(3-2alpha)) cell.
        lin = self._linearization(x)
        u1, u2 = self._grid_sums(x, y1, y2, w, area, lin)
        pv1, pv2 = _linear_pv_integrals(x, rect, self.params.alpha, *lin)
        return u1 + pv1, u2 + pv2

    # -- regions ----------------------------------------------------------

    def _near(self, x, L):
        s = L * float(np.hypot(x[0], x[1]))
        if s <= 0.0:
            raise ValueError("near region is empty for x = 0")
        if s >= np.pi:
            raise ValueError(f"near square side L|x| = {s:.3g} >= pi")
        n = self.params.cells_panel
        y, _ = _midpoints(0.0, s, n)

        def fill(stale):
            ((_, (w,)),) = stale
            np.matmul(*self._sine_products(y), out=w)

        ((w,),) = self._samples([(0, s, [(n, n)])], fill)
        rect = (0.0, s, 0.0, s)
        return self._sum_rect(x, rect, y, y, w, pv=self._inside(x, rect))

    def _medium_frames(self, s):
        """Dyadic frames [0, hi)^2 \\ [0, lo)^2 covering [0, pi)^2 \\ [0, s]^2."""
        frames = []
        lo = s
        while lo < np.pi:
            hi = min(2.0 * lo, np.pi)
            frames.append((lo, hi))
            lo = hi
        return frames

    def _medium(self, x, L):
        s = L * float(np.hypot(x[0], x[1]))
        if s >= np.pi:
            raise ValueError(f"medium region is empty: L|x| = {s:.3g} >= pi")
        if s <= 0.0:
            raise ValueError("medium region requires x != 0")
        if s > 1.0:
            warnings.warn(f"L|x| = {s:.3g} > 1: medium-field scaling assumptions degrade")
        u1 = u2 = 0.0
        for du1, du2 in self._frames((float(x[0]), float(x[1])), self._medium_frames(s)):
            u1 += du1
            u2 += du2
        return u1, u2

    def _frames(self, x, frames):
        """Midpoint sums over the frames [0, hi)^2 \\ [0, lo)^2, one (u1, u2)
        per (lo, hi) in frames, lowest first.

        A frame's rectangles [lo,hi] x [0,lo], [0,lo] x [lo,hi] and the
        corner [lo,hi]^2 have na cells across [lo, hi] and nb across
        [0, lo], so their node multiset is swap-symmetric.  They are summed
        as two tensor grids, ya x [yb | ya] (the first and the corner share
        their rows, and the cell areas are column weights) and yb x ya,
        sampled into the frame's slot, counted down from pi.  The stale
        frames are sampled together (_fill_frames); then each frame's two
        grids are summed, frame after frame.
        """
        npanel = self.params.cells_panel
        grids = []
        for lo, hi in frames:
            na = max(8, int(round(npanel * (hi - lo) / hi)))
            nb = max(8, int(round(npanel * lo / hi)))
            # [yb | ya] and the cell areas of the columns of ya x [yb | ya]
            y, cw = np.empty((2, nb + na))
            _, hb = _midpoints(0.0, lo, nb, y[:nb])
            _, ha = _midpoints(lo, hi, na, y[nb:])
            cw[:nb] = ha * hb
            cw[nb:] = ha * ha
            grids.append((na, nb, y, cw, hb * ha))
        samples = self._samples([(len(frames) - k, (lo, hi, na, nb), [(na, nb + na), (nb, na)])
                                 for k, ((lo, hi), (na, nb, *_)) in enumerate(zip(frames, grids))],
                                lambda stale: self._fill_frames(stale, grids))
        sums = []
        for (w_a, w_b), (na, nb, y, cw, area) in zip(samples, grids):
            u1, u2 = self._grid_sums(x, y[nb:], y, w_a, cw)
            v1, v2 = self._grid_sums(x, y[:nb], y[nb:], w_b, area)
            sums.append((u1 + v1, u2 + v2))
        return sums

    def _fill_frames(self, stale, grids):
        """Sample the stale frames, (index, (w_a, w_b)) with grids[index]
        = (na, nb, [yb | ya], ...), from shared sine tables.

        One table on the frames' coordinates, one after another, and its
        product with the coefficients serve as many frames as fit
        _TABLE_NODES entries (at least one); a frame's two grids are row
        blocks of that product times the frame's columns of the table, the
        same operands as from a table of its own.
        """
        width = -(-self.omega.n_modes // _SINE_BLOCK) * _SINE_BLOCK
        while stale:
            count, room = 0, 0
            for k, _ in stale:
                room += len(grids[k][2]) * width
                if count and room > _TABLE_NODES:
                    break
                count += 1
            run, stale = stale[:count], stale[count:]
            cy, st = self._sine_products(np.concatenate([grids[k][2] for k, _ in run]))
            at = 0
            for k, (w_a, w_b) in run:
                na, nb = grids[k][:2]
                np.matmul(cy[at + nb:at + nb + na], st[:, at:at + nb + na], out=w_a)
                np.matmul(cy[at:at + nb], st[:, at + nb:at + nb + na], out=w_b)
                at += nb + na

    def _image_cells(self, x, inner: int, outer: int):
        """(u1, u2) of the image cells [p pi, (p+1) pi) x [q pi, (q+1) pi)
        with inner <= max(p, q) < outer: (1, R) is the far region.

        Row p is one sum over the strip of an even row, cell q of which holds
        (-1)^q omega flipped in y2 for odd q, in the columns q >= inner if
        p < inner, else all q < outer; an odd row holds the strip flipped in
        y1 and negated.  The strip grows when a larger outer is asked for.
        """
        x = (float(x[0]), float(x[1]))
        key = (x, inner, outer)
        if self._far_memo is not None and self._far_memo[0] == key:
            return self._far_memo[1]
        n = self.params.cells_far
        t, h = _midpoints(0.0, np.pi, n)
        strip = self._strip
        if strip is None or strip.shape[1] < outer * n:
            base = self._cell_samples(n)
            flipped = -base[:, ::-1]
            strip = np.empty((n, outer * n))
            for q, cell in enumerate(np.moveaxis(strip.reshape(n, outer, n), 1, 0)):
                np.copyto(cell, flipped if q % 2 else base)
            self._strip = strip
        y2 = (np.pi * np.arange(outer)[:, None] + t).ravel()
        u1 = u2 = 0.0
        for p in range(outer):
            w, sgn = (strip[::-1], -1.0) if p % 2 else (strip, 1.0)
            cols = slice(inner * n if p < inner else 0, outer * n)
            du1, du2 = self._grid_sums(x, p * np.pi + t, y2[cols], w[:, cols], h * h)
            u1 += sgn * du1
            u2 += sgn * du2
        self._far_memo = (key, (u1, u2))
        return u1, u2

    def image_tail(self, x):
        """(u1, u2) of the image cells between image_radius R and 2R: the far
        velocity at radius 2R less that at R, summed directly."""
        R = self.params.image_radius
        return self._image_cells(x, R, 2 * R)

    def _central(self, x):
        n = self.params.cells_central
        y, h = _midpoints(0.0, np.pi, n)
        w = self._cell_samples(n)
        if 0.0 < min(abs(x[0]), abs(x[1])) < 4.0 * h or np.hypot(x[0], x[1]) < 4.0 * h:
            warnings.warn(
                f"evaluation point {tuple(x)} within 4 central cells of an axis; "
                "full-region quadrature may be under-resolved")
        rect = (0.0, np.pi, 0.0, np.pi)
        return self._sum_rect(x, rect, y, y, w, pv=self._inside(x, rect))

    @staticmethod
    def _inside(x, rect):
        a1, b1, a2, b2 = rect
        return a1 < x[0] < b1 and a2 < x[1] < b2

    def velocity(self, x, region: RegionSpec):
        """Quadrature velocity contribution (u1, u2) of the given region."""
        if region.kind == "near":
            return self._near(x, region.L)
        if region.kind == "medium":
            return self._medium(x, region.L)
        R = self.params.image_radius
        if region.kind == "far":
            return self._image_cells(x, 1, R)
        c1, c2 = self._central(x)
        f1, f2 = self._image_cells(x, 1, R)
        return c1 + f1, c2 + f2
