"""Characteristic tracing and growth diagnostics.

Traces dPhi/dt = u(Phi, t) with RK4 through velocity fields reconstructed
from stored vorticity snapshots (linear interpolation in time between
snapshots), monitors the component-ratio along the path, applies the
construction's stopping rule, and fits exponential growth rates.

A traced step evaluates the velocity 4 times: the velocity recorded at the
end of a step is the next step's first RK4 stage.  trace steps on Python
floats and hands the source one new 2-vector per stage.  VelocitySampler
holds the stream function psi of all snapshots in one (K, n, n) stack, and
a call is one spectral.evaluate_points call on the entries of the
snapshots that bracket t, with d2 psi and d1 psi as terms of each; the
bracket lookup and the blend in time are float arithmetic.
transport_defect makes one such call per snapshot, over the path points
nearest to it in time.  Bad input (a start that is not a pair, a dt or
horizon that is not finite, a NaN time, snapshots of unequal N, a
monitor stride below 1) raises ValueError naming the argument.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelParams, QuadratureOracle, RegionSpec, _params_for
from .spectral import VALUE_TERMS, VELOCITY_TERMS, _laplacian_power, evaluate_points

__all__ = ["TrajectoryState", "GrowthRecord", "StartPoint", "VelocitySampler",
           "trace", "select_start", "stopping_time", "medium_ratio_monitor",
           "fit_gamma", "growth_fit", "transport_defect"]

QUADRANT_TOL = 1e-6        # how far past [0, pi)^2 trace lets a path step
MIN_FIT_SAMPLES = 10       # of a growth fit: fit_gamma, growth_fit, growth.csv


@dataclass(frozen=True)
class StartPoint:
    x1: float
    x2: float
    scaled_regime: bool
    note: str = ""

    @property
    def point(self):
        return (self.x1, self.x2)


@dataclass
class TrajectoryState:
    start: tuple
    times: np.ndarray
    positions: np.ndarray      # (n, 2)
    velocities: np.ndarray     # (n, 2)
    ratios: np.ndarray         # medium ratio r(t) where monitored, else nan
    halted: bool = False
    halt_note: str = ""


@dataclass(frozen=True)
class GrowthRecord:
    times: np.ndarray
    values: np.ndarray
    fitted_gamma: float
    fit_window: tuple
    fit_r2: float


# d2 psi and d1 psi, -u1 and u2, of stack entry 0 and then of entry 1
_TWO_SNAPSHOTS = VELOCITY_TERMS + tuple(term._replace(entry=1) for term in VELOCITY_TERMS)


class VelocitySampler:
    """u(x, t) from a time-ordered list of (time, omega) snapshots.

    The stream function psi = omega / (m^2+n^2)^(1-alpha) of each snapshot
    is held in one (K, n, n) stack, K n^2 floats.  A call evaluates
    d2 psi and d1 psi at both bracketing snapshots in one evaluate_points
    call on their 2 entries, each read once for both terms, then blends
    them linearly in time and takes u1 = -d2 psi and u2 = d1 psi.  The
    bracket lookup and the blend are arithmetic on Python floats, the
    bracket looked up in a list of the times built once.  Outside
    the snapshot times the nearest snapshot is used, and the call takes
    its entry alone.  Snapshot times must be finite and the fields of one
    mode count; a NaN t is rejected.
    """

    def __init__(self, snapshots, alpha: float):
        if not snapshots:
            raise ValueError("no snapshots supplied")
        bad = [t for t, _ in snapshots if not math.isfinite(t)]
        if bad:
            raise ValueError(f"snapshot times must be finite, got {bad}")
        times, fields = zip(*sorted(snapshots, key=lambda p: p[0]))
        sizes = sorted({f.n_modes for f in fields})
        if len(sizes) > 1:
            raise ValueError(f"snapshots must share one mode count N, got N = {sizes}")
        self.times = np.asarray(times, dtype=np.float64)
        self._times = self.times.tolist()
        self.alpha = alpha
        self.n_modes = fields[0].n_modes
        symbol = _laplacian_power(self.n_modes, alpha)
        self._psi = np.empty((len(fields), self.n_modes, self.n_modes))
        for k, f in enumerate(fields):
            np.divide(f.coeffs, symbol, out=self._psi[k])

    def __call__(self, x, t: float) -> np.ndarray:
        t = float(t)
        if t != t:
            raise ValueError("sampler time t is NaN")
        ts = self._times
        if t <= ts[0] or t >= ts[-1]:
            k = 0 if t <= ts[0] else len(ts) - 1
            d2, d1 = evaluate_points(self._psi[k:k + 1], VELOCITY_TERMS, x).tolist()
            return np.array((-d2, d1))
        hi = bisect_right(ts, t)
        th = (t - ts[hi - 1]) / (ts[hi] - ts[hi - 1])
        # (d2 psi, d1 psi) at snapshot hi - 1, then at snapshot hi
        a2, a1, b2, b1 = evaluate_points(self._psi[hi - 1:hi + 1], _TWO_SNAPSHOTS, x).tolist()
        return np.array((-((1.0 - th) * a2 + th * b2), (1.0 - th) * a1 + th * b1))


def trace(start, velocity_source, t_end: float, dt: float) -> TrajectoryState:
    """RK4 integration of the characteristic ODE from t = 0, history at every step.

    velocity_source(x, t) is called 4 n + 1 times for n steps: once at the
    start, then 3 stages and the end-of-step sample per step, since the
    sample recorded at (x, t) is the next step's first stage.  The source
    must be deterministic; each call gets x as a new 2-vector, and returns
    two velocity components.  The RK4 arithmetic itself runs on Python
    floats, in the order of the 2-vector formula, so a path is the same to
    the bit as one stepped on numpy 2-vectors.

    Through a VelocitySampler the path carries the error of the sampler's
    linear interpolation in time between snapshots, which is second order
    and dominates near the origin: at N=64 to T=1, the path from
    (0.05, 0.08) ends 8.7e-4 away from the one traced through a snapshot at
    every step when snapshots are 10 steps apart (the CLI default), and
    1.2e-2 away when they are 40 apart.

    Halts with a diagnostic if the position leaves [0, pi)^2 by more than
    QUADRANT_TOL (the quadrant is invariant for the exact flow; leaving it
    signals interpolation/resolution loss).  ValueError for a start that
    is not a pair inside the open quadrant, and for a dt or t_end that is
    not finite, dt <= 0 or t_end < 0.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dt, t_end = float(dt), float(t_end)
    if dt <= 0 or t_end < 0:
        raise ValueError(f"need dt > 0 and t_end >= 0, got dt={dt}, t_end={t_end}")
    try:
        x1, x2 = (float(v) for v in start)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"start must be a pair of numbers, got {start!r}") from exc
    start = (x1, x2)
    if not (0 < x1 < np.pi and 0 < x2 < np.pi):
        raise ValueError(f"start {start} outside the open quadrant")

    def velocity(x1, x2, t):
        return np.asarray(velocity_source(np.array((x1, x2)), t), dtype=np.float64).tolist()

    t = 0.0
    times = [t]
    pos = [start]
    k1 = velocity(x1, x2, t)
    vel = [k1]
    halted = False
    note = ""
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    lo, hi = -QUADRANT_TOL, np.pi + QUADRANT_TOL
    for _ in range(n_steps):
        h = min(dt, t_end - t)
        a, b = 0.5 * h, h / 6.0
        k2 = velocity(x1 + a * k1[0], x2 + a * k1[1], t + a)
        k3 = velocity(x1 + a * k2[0], x2 + a * k2[1], t + a)
        k4 = velocity(x1 + h * k3[0], x2 + h * k3[1], t + h)
        x1 = x1 + b * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x2 = x2 + b * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t = t + h
        times.append(t)
        pos.append((x1, x2))
        k1 = velocity(x1, x2, t)
        vel.append(k1)
        if x1 < lo or x2 < lo or x1 > hi or x2 > hi:
            halted = True
            note = (f"trajectory left [0, pi)^2 at t={t:.6f}, x={(x1, x2)}; "
                    "quadrant invariance violated beyond tolerance")
            break
    return TrajectoryState(
        start=start, times=np.array(times), positions=np.array(pos),
        velocities=np.array(vel),
        ratios=np.full(len(times), np.nan),
        halted=halted, halt_note=note)


def select_start(T: float, delta: float, alpha: float, beta: float,
                 grid_floor: float) -> StartPoint:
    """Construction start point x1 = exp(-T delta^(-a/2)), x2 = x1^beta.

    The asymptotic choice underflows desk-scale grids quickly; when the
    resolvable-coordinate floor binds, x1 is clamped there and the result
    is flagged as the scaled regime.

    No statement of arXiv 1903.07485 is cited for this law: PAPER.md holds
    only the paper's abstract.  The rates measured near the origin follow
    neither delta^(-a/2) nor the delta^(-a) of verify_background but lie
    nearer delta^(-2a).  Over delta from 0.1 to 0.4, the strain -u1/x1 at
    x = (1e-3, 1e-3), t = 0, N=256 has delta exponents -0.72 (a = 0.25)
    and -1.10 (a = 0.5); a marker's compression rate from (0.004, 0.004)
    over t in [0, 0.5], N=128, has -0.67 and -0.95 (ROADMAP item M).
    """
    raw = float(np.exp(-T * delta ** (-alpha / 2.0)))
    scaled = raw < grid_floor
    x1 = max(raw, grid_floor)
    x2 = x1 ** beta
    note = ""
    if scaled:
        note = (f"asymptotic x1={raw:.3e} below the grid floor {grid_floor:.3e}; "
                "running in the scaled regime")
    if x2 < grid_floor:
        note += ("" if not note else " ") + (
            f"x2={x2:.3e} is below the grid floor (flagged, not clamped)")
    return StartPoint(x1, x2, scaled, note)


def stopping_time(trajectory: TrajectoryState, hessian_times, hessian_values,
                  T: float, x1_0: float, growth_threshold: float):
    """First trigger among: t = T, x2(t) >= x1_0, hessian >= threshold.

    Returns (T0, reason) with reason in {"horizon", "x2_reaches_x10",
    "hessian_threshold"}; times are reported at sample resolution.
    """
    t_x2 = np.inf
    hit = np.nonzero(trajectory.positions[:, 1] >= x1_0)[0]
    if hit.size:
        t_x2 = float(trajectory.times[hit[0]])
    t_h = np.inf
    hv = np.asarray(hessian_values, dtype=np.float64)
    ht = np.asarray(hessian_times, dtype=np.float64)
    hh = np.nonzero(hv >= growth_threshold)[0]
    if hh.size:
        t_h = float(ht[hh[0]])
    if T <= min(t_x2, t_h):
        return T, "horizon"
    if t_x2 <= t_h:
        return t_x2, "x2_reaches_x10"
    return t_h, "hessian_threshold"


def _nearest_snapshot(trajectory: TrajectoryState, snapshots) -> np.ndarray:
    """Per path sample, the index of the (time, omega) snapshot nearest in
    time; of two equally near, the earlier in the list."""
    times = np.asarray([t for t, _ in snapshots], dtype=np.float64)
    return np.abs(trajectory.times[:, None] - times).argmin(axis=1)


def medium_ratio_monitor(trajectory: TrajectoryState, snapshots, alpha: float,
                         L: float, params: KernelParams | None = None,
                         every: int = 10) -> TrajectoryState:
    """Fill r(t) = -u1_med x2 / (x1 u2_med) along the path where L|x| <= 1.

    Every every-th sample (every >= 1) uses the snapshot nearest in time
    for the quadrature field; skipped samples (L|x| > 1 or empty region)
    stay nan and are noted.  One oracle is alive at a time: it is replaced
    when the nearest snapshot changes, which along a forward path happens
    once per snapshot.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    params = _params_for(alpha, params)
    region = RegionSpec("medium", L)
    nearest = _nearest_snapshot(trajectory, snapshots)
    oracle = current = None
    skipped = 0
    ratios = trajectory.ratios.copy()
    for i in range(0, len(trajectory.times), every):
        x = trajectory.positions[i]
        if L * float(np.hypot(*x)) > 1.0 or min(x) <= 0:
            skipped += 1
            continue
        j = int(nearest[i])
        if j != current:
            oracle, current = QuadratureOracle(snapshots[j][1], params), j
        u1, u2 = oracle.velocity(x, region)
        if u2 == 0.0:
            skipped += 1
            continue
        ratios[i] = -u1 * x[1] / (x[0] * u2)
    note = trajectory.halt_note
    if skipped:
        note = (note + f" [{skipped} ratio samples "
                "skipped: outside the medium-field regime]").strip()
    return replace(trajectory, ratios=ratios, halt_note=note)


def fit_gamma(times, values, window: tuple | None = None) -> GrowthRecord:
    """Least-squares slope of log(values) vs time on the fit window.

    Default window drops the first 10% of the series as transient; a
    window holds at least MIN_FIT_SAMPLES samples.  The fit is affine-
    equivariant: scaling values by a positive constant does not change gamma.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0):
        raise ValueError("growth fit requires strictly positive values")
    if window is None:
        window = (times[0] + 0.1 * (times[-1] - times[0]), times[-1])
    sel = (times >= window[0]) & (times <= window[1])
    if int(np.count_nonzero(sel)) < MIN_FIT_SAMPLES:
        raise ValueError(
            f"only {int(np.count_nonzero(sel))} samples in fit window "
            f"[{float(window[0]):.6g}, {float(window[1]):.6g}]; need >= {MIN_FIT_SAMPLES}")
    gamma, _, r2 = _line_fit(times[sel], np.log(values[sel]))
    return GrowthRecord(times[sel], values[sel], gamma,
                        (float(window[0]), float(window[1])), r2)


def growth_fit(times, values, notes: list):
    """(gamma, R^2) of fit_gamma on a run's Hessian record, else (None, None).

    A record of fewer than MIN_FIT_SAMPLES samples is not fit.  A fit that fit_gamma
    rejects (a non-positive value, too few samples in its window) appends
    "growth fit skipped: <reason>" to notes.
    """
    if len(values) < MIN_FIT_SAMPLES:
        return None, None
    try:
        g = fit_gamma(times, values)
    except ValueError as exc:
        notes.append(f"growth fit skipped: {exc}")
        return None, None
    return g.fitted_gamma, g.fit_r2


def _line_fit(x, y):
    """Least-squares slope, intercept and R^2 of y against x, from centred sums.

    ValueError if all x are equal; R^2 is 1 when y is constant.
    """
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise ValueError("a line fit needs two distinct abscissae")
    slope = float(np.sum(dx * dy)) / sxx
    ss_tot = float(np.sum(dy ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum((dy - slope * dx) ** 2)) / ss_tot
    return slope, float(y.mean() - slope * x.mean()), r2


def transport_defect(trajectory: TrajectoryState, snapshots, omega0_at_start: float):
    """max_t |omega(Phi_t, t) - omega0(start)| along a traced path, omega from
    the snapshot nearest in time: one evaluate_points call per snapshot."""
    nearest = _nearest_snapshot(trajectory, snapshots)
    worst = 0.0
    for j in np.unique(nearest):
        vals = evaluate_points(snapshots[j][1].coeffs[None], VALUE_TERMS,
                               trajectory.positions[nearest == j])
        worst = max(worst, float(np.abs(vals - omega0_at_start).max()))
    return worst
