"""Symmetrized Biot-Savart kernels and direct velocity quadrature.

The odd-odd symmetrization folds the plane integral into the first quadrant
with image charges at x_tilde = (-x1, x2), x_bar = (x1, -x2) and -x:

    u1(x) =  int K1(x, y) omega(y) dy,
    u2(x) =  int K2(x, y) omega(y) dy,       y in [0, inf)^2,

where K1 carries (x2 -+ y2) differences over |.|^(2+2a) distances and K2 the
x1 analogue with an overall minus sign (K2(x, y) = -K1(swap x, swap y)).
The kernels drop the alpha-dependent Biot-Savart prefactor; a calibration
scalar fitted against the spectral path (or the closed-form Riesz
normalization) restores physical units.

Quadrature is the midpoint rule on axis-aligned rectangles.  Regions:

    near(L):   [0, L|x|]^2
    medium(L): [0, pi)^2 minus the near square, covered by dyadic frames so
               the inner scale is always resolved (each frame is split into
               three rectangles whose node multiset is swap-symmetric)
    far:       periodic image cells [0, R*pi)^2 minus the central cell (the
               neglected tail is O(R^-2a))
    full:      central cell + far

One private helper, _kernel_parts, writes the four-term formula: every
region sum and kernel_K1/kernel_K2 call it, and it takes each of the four
inverse powers once per node.  Omega is sampled on tensor grids as
(S1 @ c) @ S2.T from sine matrices S; a medium frame builds its two sine
matrices once for its three rectangles, and the image cells reuse one
sample grid of the central cell, flipped by parity.

The principal-value singularity at y = x (needed for alpha >= 1/2, harmless
otherwise) is handled on the rectangle containing x: the singular first
term is Taylor-subtracted there and its integral against the linearization
of omega added back in closed form.  The linearization takes omega(x) and
grad omega(x) from the spectral point evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .spectral import SineField, evaluate_offgrid, spectral_derivative

__all__ = [
    "KernelParams",
    "RegionSpec",
    "ReflectedPoint",
    "kernel_K1",
    "kernel_K2",
    "asymptotic_K",
    "relative_kernel_error",
    "QuadratureOracle",
    "fit_calibration",
    "CalibrationResult",
    "riesz_velocity_prefactor",
]


@dataclass(frozen=True)
class KernelParams:
    """Quadrature controls for the kernel oracle.

    image_radius is the number of periodic image cells summed per
    direction; the neglected tail is O(image_radius^-2alpha), which
    converges since alpha > 0.  cells_central, cells_panel and cells_far
    are the midpoint cells per axis of the central cell, of a near square
    or medium frame, and of each image cell.
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


@dataclass(frozen=True)
class RegionSpec:
    """Integration region; L (>= 2) sets the near/medium split at L|x|."""

    kind: str
    L: float = 0.0

    def __post_init__(self):
        if self.kind not in ("near", "medium", "far", "full"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind in ("near", "medium") and self.L < 2.0:
            raise ValueError(f"{self.kind} region requires L >= 2, got {self.L}")


@dataclass(frozen=True)
class ReflectedPoint:
    """x with its three reflections, derived deterministically."""

    x: tuple
    x_tilde: tuple
    x_bar: tuple
    minus_x: tuple

    @classmethod
    def from_point(cls, x) -> "ReflectedPoint":
        x1, x2 = float(x[0]), float(x[1])
        return cls((x1, x2), (-x1, x2), (x1, -x2), (-x1, -x2))


def _kernel_parts(x1: float, x2: float, y1, y2, p: float):
    """The four-term kernels at nodes (y1, y2), split as K_j = S_j + I_j.

    y1 and y2 broadcast to the node grid.  S = (S1, S2) is the singular
    free-space term of x - y and I = (I1, I2) the sum of the three image
    terms at x_tilde, x_bar and -x; the principal-value treatment needs S
    apart.  Each inverse power |.|^(-2p) of the four distances is taken once
    per node, and the products are formed in place, so a call holds few
    node-sized temporaries.  A node where |x - y|^(-2p) is infinite (y = x)
    gets S = 0.
    """
    a0, at = (x1 - y1) ** 2, (x1 + y1) ** 2
    b0, bb = (x2 - y2) ** 2, (x2 + y2) ** 2
    i0 = a0 + b0                        # |x - y|^2
    with np.errstate(divide="ignore"):
        i0 **= -p
    hit = np.isinf(i0)
    if hit.any():
        i0 = np.where(hit, 0.0, i0)
    it = (at + b0) ** -p                # |x_tilde - y|^(-2p)
    ib = (a0 + bb) ** -p                # |x_bar - y|^(-2p)
    ip = (at + bb) ** -p                # |x + y|^(-2p)
    q1, q2 = x1 + y1, x2 + y2
    s1 = (x2 - y2) * i0
    s2 = i0
    s2 *= y1 - x1
    # I1 = -(x2-y2) it - (x2+y2) ib + (x2+y2) ip
    i1 = (y2 - x2) * it
    i1 -= q2 * ib
    i1 += q2 * ip
    # I2 = (x1-y1) ib + (x1+y1) it - (x1+y1) ip
    i2 = ib
    i2 *= x1 - y1
    it *= q1
    i2 += it
    ip *= q1
    i2 -= ip
    return (s1, s2), (i1, i2)


def _kernels_at(x, y, alpha: float, name: str):
    """(K1, K2) at y, an (..., 2) array, rejecting y = x."""
    y = np.asarray(y, dtype=np.float64)
    x1, x2 = float(x[0]), float(x[1])
    y1, y2 = y[..., 0], y[..., 1]
    if np.any((y1 == x1) & (y2 == x2)):
        raise ValueError(f"{name} evaluated at y = x; caller must exclude the singularity")
    (s1, s2), (i1, i2) = _kernel_parts(x1, x2, y1, y2, 1.0 + alpha)
    return s1 + i1, s2 + i2


def kernel_K1(x, y, alpha: float):
    """Four-term symmetrized kernel for u1; y may be an (..., 2) array."""
    return _kernels_at(x, y, alpha, "kernel_K1")[0]


def kernel_K2(x, y, alpha: float):
    """Four-term symmetrized kernel for u2 (overall minus sign)."""
    return _kernels_at(x, y, alpha, "kernel_K2")[1]


def asymptotic_K(j: int, x, y, alpha: float):
    """Large-|y|/|x| form: (-1)^j * 8(1+alpha) * x_j y1 y2 |y|^(-4-2alpha)."""
    if j not in (1, 2):
        raise ValueError(f"component j must be 1 or 2, got {j}")
    y = np.asarray(y, dtype=np.float64)
    y1, y2 = y[..., 0], y[..., 1]
    xj = float(x[0]) if j == 1 else float(x[1])
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

    For alpha = 1/2 this is 1/(2 pi).  The fitted calibration constant should
    match this up to quadrature and image-truncation error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(2.0 * _gamma(1.0 + alpha) / (4.0 ** (1.0 - alpha) * np.pi * _gamma(1.0 - alpha)))


def _sines(y: np.ndarray, n_modes: int) -> np.ndarray:
    """Sine matrix sin(m y), one row per coordinate, m = 1..n_modes."""
    return np.sin(np.outer(y, np.arange(1, n_modes + 1, dtype=np.float64)))


def _tensor_samples(coeffs: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """The sine series on the tensor grid y1 x y2, shape (len(y1), len(y2))."""
    n = coeffs.shape[0]
    return _sines(y1, n) @ coeffs @ _sines(y2, n).T


def _midpoints(a: float, b: float, n: int):
    h = (b - a) / n
    return a + (np.arange(n) + 0.5) * h, h


def _linear_pv_integrals(x, rect, alpha: float, w0: float, g1: float, g2: float):
    """Exact integrals of the singular kernel terms against w0 + g . (y - x).

    Computes I_j = int_rect T_j(y) (w0 + g1 (y1-x1) + g2 (y2-x2)) dy for
    T_1 = (x2-y2) |x-y|^(-2-2a) and T_2 = (y1-x1) |x-y|^(-2-2a), with x
    strictly inside the rectangle, in the principal-value sense.  Every
    piece reduces to a 1D integral of a smooth function over one rectangle
    edge (antiderivative in one variable plus the divergence theorem for
    the |x-y|^(-2a) bulk term), evaluated adaptively.
    """
    from scipy.integrate import quad

    x1, x2 = x
    a1, b1, a2, b2 = rect
    two_a = 2.0 * alpha

    def rpow(y1, y2):
        return ((y1 - x1) ** 2 + (y2 - x2) ** 2) ** (-alpha)

    def q(f, a, b, interior_pt):
        pts = [interior_pt] if a < interior_pt < b else None
        return quad(f, a, b, points=pts, limit=400)[0]

    e1 = q(lambda t: rpow(t, b2) - rpow(t, a2), a1, b1, x1)
    e1w = q(lambda t: (t - x1) * (rpow(t, b2) - rpow(t, a2)), a1, b1, x1)
    e2 = q(lambda t: rpow(b1, t) - rpow(a1, t), a2, b2, x2)
    e2w = q(lambda t: (t - x2) * (rpow(b1, t) - rpow(a1, t)), a2, b2, x2)
    jv = q(lambda t: (b1 - x1) * rpow(b1, t) + (x1 - a1) * rpow(a1, t), a2, b2, x2)
    jh = q(lambda t: (b2 - x2) * rpow(t, b2) + (x2 - a2) * rpow(t, a2), a1, b1, x1)
    j_bulk = (jv + jh) / (2.0 - two_a)

    int_t1 = e1 / two_a                  # (x2-y2) r^(-2-2a)
    int_t1_y1 = e1w / two_a              # (x2-y2)(y1-x1) r^(-2-2a)
    int_t2 = -e2 / two_a                 # (y1-x1) r^(-2-2a)
    int_cross = -e2w / two_a             # (y1-x1)(y2-x2) r^(-2-2a)
    int_y2sq = (j_bulk - jh) / two_a     # (y2-x2)^2 r^(-2-2a)
    int_y1sq = (j_bulk - jv) / two_a     # (y1-x1)^2 r^(-2-2a)

    i1 = w0 * int_t1 + g1 * int_t1_y1 - g2 * int_y2sq
    i2 = w0 * int_t2 + g1 * int_y1sq + g2 * int_cross
    return i1, i2


class QuadratureOracle:
    """Kernel-quadrature velocity for one vorticity field.

    Caches the central-cell and image-cell sample grids, so sweeps over many
    evaluation points reuse the omega sampling, and the two gradient fields
    of the principal-value linearization; each medium frame builds its two
    sine matrices and their products with the coefficients once, for all
    three of its rectangles.  All reductions are plain numpy sums
    (pairwise, deterministic for a fixed partition).
    """

    def __init__(self, omega: SineField, params: KernelParams):
        self.omega = omega
        self.params = params
        self._central_cache = None
        self._far_cache = None
        self._grad_cache = None

    # -- omega sampling -------------------------------------------------

    def _central_nodes(self):
        if self._central_cache is None:
            y, h = _midpoints(0.0, np.pi, self.params.cells_central)
            self._central_cache = (y, h, _tensor_samples(self.omega.coeffs, y, y))
        return self._central_cache

    def _far_base(self):
        if self._far_cache is None:
            t, h = _midpoints(0.0, np.pi, self.params.cells_far)
            self._far_cache = (t, h, _tensor_samples(self.omega.coeffs, t, t))
        return self._far_cache

    def _linearization(self, x):
        """omega(x) and grad omega(x); the gradient fields are built once."""
        if self._grad_cache is None:
            self._grad_cache = (spectral_derivative(self.omega, 1, 1),
                                spectral_derivative(self.omega, 2, 1))
        d1, d2 = self._grad_cache
        return evaluate_offgrid(self.omega, x), d1.evaluate_at(x), d2.evaluate_at(x)

    # -- singular rectangle sum ------------------------------------------

    def _sum_rect(self, x, rect, n1, n2, w=None, y1=None, y2=None, pv=False):
        """Midpoint sum of (K1*w, K2*w) over rect = (a1, b1, a2, b2).

        If pv is set (x strictly inside the rectangle), the singular first
        term gets the principal-value treatment.
        """
        a1, b1, a2, b2 = rect
        alpha = self.params.alpha
        if y1 is None:
            y1, h1 = _midpoints(a1, b1, n1)
            y2, h2 = _midpoints(a2, b2, n2)
            w = _tensor_samples(self.omega.coeffs, y1, y2)
        else:
            h1 = (b1 - a1) / n1
            h2 = (b2 - a2) / n2
        area = h1 * h2
        x1, x2 = float(x[0]), float(x[1])
        yy1 = y1[:, None]
        yy2 = y2[None, :]
        (s1, s2), (i1, i2) = _kernel_parts(x1, x2, yy1, yy2, 1.0 + alpha)

        if not pv:
            return float(np.sum((s1 + i1) * w)) * area, float(np.sum((s2 + i2) * w)) * area

        # Subtract the linearization of omega from the singular term over
        # the whole rectangle and add its integral back semi-analytically.
        # The sampled residual (omega - P) * S is integrable and its
        # midpoint sum converges; a patch that scales with the cell size
        # would leave a resolution-independent ring error instead.
        w0, g1, g2 = self._linearization((x1, x2))
        taylor = w0 + g1 * (yy1 - x1) + g2 * (yy2 - x2)
        u1_sum = float(np.sum(i1 * w)) * area
        u2_sum = float(np.sum(i2 * w)) * area
        # the node at y = x (if any) has S = 0; its true residual
        # contribution is the integrable O(h^(3-2alpha)) cell
        u1_sum += float(np.sum(s1 * (w - taylor))) * area
        u2_sum += float(np.sum(s2 * (w - taylor))) * area
        pv1, pv2 = _linear_pv_integrals((x1, x2), rect, alpha, w0, g1, g2)
        return u1_sum + pv1, u2_sum + pv2

    # -- regions ----------------------------------------------------------

    def _near(self, x, L):
        s = L * float(np.hypot(x[0], x[1]))
        if s <= 0.0:
            raise ValueError("near region is empty for x = 0")
        if s >= np.pi:
            raise ValueError(f"near square side L|x| = {s:.3g} >= pi")
        n = self.params.cells_panel
        return self._sum_rect(x, (0.0, s, 0.0, s), n, n, pv=self._inside(x, (0.0, s, 0.0, s)))

    def _medium_frames(self, s):
        """Dyadic frames covering [0, pi)^2 \\ [0, s]^2, each as three rects."""
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
        if L * float(np.hypot(x[0], x[1])) > 1.0:
            warnings.warn(f"L|x| = {s:.3g} > 1: medium-field scaling assumptions degrade")
        npanel = self.params.cells_panel
        coeffs = self.omega.coeffs
        n = coeffs.shape[0]
        u1 = u2 = 0.0
        for lo, hi in self._medium_frames(s):
            na = max(8, int(round(npanel * (hi - lo) / hi)))
            nb = max(8, int(round(npanel * lo / hi)))
            ya, _ = _midpoints(lo, hi, na)
            yb, _ = _midpoints(0.0, lo, nb)
            sa = _sines(ya, n)
            sb = _sines(yb, n)
            ca = sa @ coeffs
            cb = sb @ coeffs
            # [lo,hi] x [0,lo], its swap image, and the swap-invariant corner;
            # omega on each is (S1 @ c) @ S2.T from the frame's two sine bases
            for rect, n1, n2, y1, y2, w in (
                ((lo, hi, 0.0, lo), na, nb, ya, yb, ca @ sb.T),
                ((0.0, lo, lo, hi), nb, na, yb, ya, cb @ sa.T),
                ((lo, hi, lo, hi), na, na, ya, ya, ca @ sa.T),
            ):
                du1, du2 = self._sum_rect(x, rect, n1, n2, w=w, y1=y1, y2=y2)
                u1 += du1
                u2 += du2
        return u1, u2

    def _far(self, x):
        R = self.params.image_radius
        t, h, base = self._far_base()
        area = h * h
        p = 1.0 + self.params.alpha
        x1, x2 = float(x[0]), float(x[1])
        u1 = u2 = 0.0
        # one cell per array: a cells_far^2 block stays below glibc's mmap
        # threshold, while wider batches pay fresh pages for every temporary
        for pcell in range(R):
            w1 = base[::-1, :] if pcell % 2 else base
            sgn1 = -1.0 if pcell % 2 else 1.0
            yy1 = (pcell * np.pi + t)[:, None]
            for qcell in range(R):
                if pcell == 0 and qcell == 0:
                    continue
                w = w1[:, ::-1] if qcell % 2 else w1
                sgn = sgn1 * (-1.0 if qcell % 2 else 1.0)
                yy2 = (qcell * np.pi + t)[None, :]
                (s1, s2), (i1, i2) = _kernel_parts(x1, x2, yy1, yy2, p)
                u1 += sgn * float(np.sum((s1 + i1) * w)) * area
                u2 += sgn * float(np.sum((s2 + i2) * w)) * area
        return u1, u2

    def _central(self, x):
        y, h, w = self._central_nodes()
        n = self.params.cells_central
        if 0.0 < min(abs(x[0]), abs(x[1])) < 4.0 * h or np.hypot(x[0], x[1]) < 4.0 * h:
            warnings.warn(
                f"evaluation point {tuple(x)} within 4 central cells of an axis; "
                "full-region quadrature may be under-resolved")
        rect = (0.0, np.pi, 0.0, np.pi)
        return self._sum_rect(x, rect, n, n, w=w, y1=y, y2=y, pv=self._inside(x, rect))

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
        if region.kind == "far":
            return self._far(x)
        c1, c2 = self._central(x)
        f1, f2 = self._far(x)
        return c1 + f1, c2 + f2


@dataclass(frozen=True)
class CalibrationResult:
    c_alpha: float
    max_rel_dev: float
    n_points: int


def fit_calibration(omega: SineField, alpha: float, points, params: KernelParams,
                    oracle: QuadratureOracle | None = None) -> CalibrationResult:
    """Least-squares scalar c with  spectral_u ~= c * quadrature_u.

    The same c must fit both components at every point; max_rel_dev is the
    worst per-point relative error of the velocity vector,
    ||c*quad - spec|| / ||spec||.
    """
    from .spectral import velocity_coefficients

    pts = np.asarray(points, dtype=np.float64)
    if oracle is None:
        oracle = QuadratureOracle(omega, params)
    u1c, u2c = velocity_coefficients(omega, alpha)
    spec = np.stack([u1c.evaluate_at(pts), u2c.evaluate_at(pts)], axis=1)
    quad = np.array([oracle.velocity(p, RegionSpec("full")) for p in pts])
    c = float(np.sum(quad * spec) / np.sum(quad * quad))
    dev = float(np.max(np.linalg.norm(c * quad - spec, axis=1)
                       / np.linalg.norm(spec, axis=1)))
    return CalibrationResult(c, dev, len(pts))
