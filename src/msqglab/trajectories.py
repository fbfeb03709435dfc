"""Characteristic tracing and growth diagnostics.

Traces dPhi/dt = u(Phi, t) with RK4 through velocity fields reconstructed
from stored vorticity snapshots (linear interpolation in time between
snapshots), monitors the component-ratio along the path, applies the
construction's stopping rule, and fits exponential growth rates.

A traced step evaluates the velocity 4 times: the velocity recorded at the
end of a step is the next step's first RK4 stage.  VelocitySampler holds
the stream function psi of all snapshots in one (K, n, n) stack, and a
call is one spectral.evaluate_points call on the entries of the snapshots
that bracket t, with d2 psi and d1 psi as terms of each.
transport_defect makes one such call per snapshot, over the path points
nearest to it in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelParams, QuadratureOracle, RegionSpec, _params_for
from .spectral import _VELOCITY_PARITIES, Term, _laplacian_power, evaluate_points

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


# d2 psi and d1 psi of stack entry 0, -u1 and u2 in the parities of
# velocity_coefficients; then those of entry 0 and of entry 1
_ONE_SNAPSHOT = (Term(0, _VELOCITY_PARITIES[0], (0, 1)), Term(0, _VELOCITY_PARITIES[1], (1, 0)))
_TWO_SNAPSHOTS = _ONE_SNAPSHOT + tuple(term._replace(entry=1) for term in _ONE_SNAPSHOT)


class VelocitySampler:
    """u(x, t) from a time-ordered list of (time, omega) snapshots.

    The stream function psi = omega / (m^2+n^2)^(1-alpha) of each snapshot
    is held in one (K, n, n) stack, K n^2 floats.  A call evaluates
    d2 psi and d1 psi at both bracketing snapshots in one evaluate_points
    call on their 2 entries, each read once for both terms, then blends
    them linearly in time and takes u1 = -d2 psi and u2 = d1 psi.  Outside
    the snapshot times the nearest snapshot is used, and the call takes
    its entry alone.
    """

    def __init__(self, snapshots, alpha: float):
        if not snapshots:
            raise ValueError("no snapshots supplied")
        times, fields = zip(*sorted(snapshots, key=lambda p: p[0]))
        self.times = np.asarray(times, dtype=np.float64)
        self.alpha = alpha
        self.n_modes = fields[0].n_modes
        symbol = _laplacian_power(self.n_modes, alpha)
        self._psi = np.empty((len(fields), self.n_modes, self.n_modes))
        for k, f in enumerate(fields):
            np.divide(f.coeffs, symbol, out=self._psi[k])

    def __call__(self, x, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0] or t >= ts[-1]:
            k = 0 if t <= ts[0] else len(ts) - 1
            d2, d1 = evaluate_points(self._psi[k:k + 1], _ONE_SNAPSHOT, x).tolist()
            return np.array([-d2, d1])
        hi = int(ts.searchsorted(t, side="right"))
        th = float((t - ts[hi - 1]) / (ts[hi] - ts[hi - 1]))
        # (d2 psi, d1 psi) at snapshot hi - 1, then at snapshot hi
        a2, a1, b2, b1 = evaluate_points(self._psi[hi - 1:hi + 1], _TWO_SNAPSHOTS, x).tolist()
        return np.array([-((1.0 - th) * a2 + th * b2), (1.0 - th) * a1 + th * b1])


def trace(start, velocity_source, t_end: float, dt: float) -> TrajectoryState:
    """RK4 integration of the characteristic ODE from t = 0, history at every step.

    velocity_source(x, t) is called 4 n + 1 times for n steps: once at the
    start, then 3 stages and the end-of-step sample per step, since the
    sample recorded at (x, t) is the next step's first stage.  The source
    must be deterministic.

    Through a VelocitySampler the path carries the error of the sampler's
    linear interpolation in time between snapshots, which is second order
    and dominates near the origin: at N=64 to T=1, the path from
    (0.05, 0.08) ends 8.7e-4 away from the one traced through a snapshot at
    every step when snapshots are 10 steps apart (the CLI default), and
    1.2e-2 away when they are 40 apart.

    Halts with a diagnostic if the position leaves [0, pi)^2 by more than
    QUADRANT_TOL (the quadrant is invariant for the exact flow; leaving it
    signals interpolation/resolution loss).
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    x = np.array(start, dtype=np.float64)
    if not (0 < x[0] < np.pi and 0 < x[1] < np.pi):
        raise ValueError(f"start {tuple(x)} outside the open quadrant")
    t = 0.0
    times = [t]
    pos = [x.copy()]
    vel = [np.asarray(velocity_source(x, t), dtype=np.float64)]
    halted = False
    note = ""
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    lo, hi = -QUADRANT_TOL, np.pi + QUADRANT_TOL
    for _ in range(n_steps):
        h = min(dt, t_end - t)
        k1 = vel[-1]
        k2 = np.asarray(velocity_source(x + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(velocity_source(x + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(velocity_source(x + h * k3, t + h))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        times.append(t)
        pos.append(x.copy())
        vel.append(np.asarray(velocity_source(x, t)))
        if x[0] < lo or x[1] < lo or x[0] > hi or x[1] > hi:
            halted = True
            note = (f"trajectory left [0, pi)^2 at t={t:.6f}, x={tuple(x)}; "
                    "quadrant invariance violated beyond tolerance")
            break
    return TrajectoryState(
        start=tuple(np.atleast_1d(start)[:2]),
        times=np.array(times), positions=np.array(pos),
        velocities=np.array(vel),
        ratios=np.full(len(times), np.nan),
        halted=halted, halt_note=note)


def select_start(T: float, delta: float, alpha: float, beta: float,
                 grid_floor: float) -> StartPoint:
    """Construction start point x1 = exp(-T delta^(-a/2)), x2 = x1^beta.

    The asymptotic choice underflows desk-scale grids quickly; when the
    resolvable-coordinate floor binds, x1 is clamped there and the result
    is flagged as the scaled regime.
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


def medium_ratio_monitor(trajectory: TrajectoryState, snapshots, alpha: float,
                         L: float, params: KernelParams | None = None,
                         every: int = 10) -> TrajectoryState:
    """Fill r(t) = -u1_med x2 / (x1 u2_med) along the path where L|x| <= 1.

    Uses the snapshot nearest in time for the quadrature field; skipped
    samples (L|x| > 1 or empty region) stay nan and are noted.  One oracle
    is alive at a time: it is replaced when the nearest snapshot changes,
    which along a forward path happens once per snapshot.
    """
    params = _params_for(alpha, params)
    times = np.asarray([t for t, _ in snapshots], dtype=np.float64)
    oracle = current = None
    skipped = 0
    ratios = trajectory.ratios.copy()
    for i in range(0, len(trajectory.times), every):
        x = trajectory.positions[i]
        t = trajectory.times[i]
        if L * float(np.hypot(*x)) > 1.0 or min(x) <= 0:
            skipped += 1
            continue
        j = int(np.argmin(np.abs(times - t)))
        if j != current:
            oracle, current = QuadratureOracle(snapshots[j][1], params), j
        u1, u2 = oracle.velocity(x, RegionSpec("medium", L))
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
    times = np.asarray([t for t, _ in snapshots], dtype=np.float64)
    nearest = np.abs(trajectory.times[:, None] - times).argmin(axis=1)
    worst = 0.0
    for j in np.unique(nearest):
        vals = evaluate_points(snapshots[j][1].coeffs[None], (Term(0, ("sin", "sin")),),
                               trajectory.positions[nearest == j])
        worst = max(worst, float(np.abs(vals - omega0_at_start).max()))
    return worst
