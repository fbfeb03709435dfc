"""Numerical verification of the velocity-decomposition estimates.

Each verifier sweeps quadrature measurements against an analytic bound and
produces a BoundReport with the sampled rows, the empirical constant, a
log-log exponent fit, and a pass flag.  The pass flag tests the estimate's
stated criterion, whose values are the constants below: the kernel maxima
vary by at most KERNEL_VARIATION_LIMIT; the exponent is 2 - 2 alpha (near,
also R^2 >= NEAR_MIN_R2), -1 (medium), 1 (far, with the image tail bounded)
or -alpha (background, with the signs) within its *_TOL; near + medium +
far matches the full region within DECOMPOSITION_REL_TOL.  The criteria are
not retuned to make a failure pass; measured exponents are always recorded,
so a failed criterion still documents what the data actually does.

Conventions: sample sets default to evenly spaced directions times
geometric magnitude ladders (8 directions x 6 magnitudes), deterministic
for a fixed configuration.  The norms in the bounds, ||Hess||_inf and
||omega||_inf, are maxima on the 2N-point collocation grid.  Every warning
a sweep raises (the oracle's under-resolution and medium-scaling warnings
among them) is recorded in its report's notes as "warning: <message>" and
still emitted.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .initial_data import recorded_warnings
from .kernels import (KernelParams, QuadratureOracle, RegionSpec, _params_for,
                      relative_kernel_error)
from .spectral import SineField, grid_max_abs, hessian_sup_norm
from .trajectories import _line_fit

__all__ = [
    "BoundReport",
    "loglog_fit",
    "default_directions",
    "verify_kernel_asymptotics",
    "verify_near_field",
    "verify_medium_ratio",
    "verify_far_field",
    "verify_background",
    "verify_decomposition",
    "write_report_json",
    "write_reports_csv",
]

# The pass criteria of the six verifiers.
KERNEL_RATIOS = (10.0, 100.0, 1000.0)     # |y|/|x| of the kernel sweep
KERNEL_VARIATION_LIMIT = 2.0              # max/min of the scaled maxima over the ratios
NEAR_EXPONENT_TOL = 0.15
NEAR_MIN_R2 = 0.95
MEDIUM_CUTOFF_FRACTIONS = (0.9, 0.45)     # L|x| of the samples; the bound is extremal near 1
MEDIUM_EXPONENT_TOL = 0.2
FAR_OTHER_COORD = 0.02                    # the coordinate held fixed while x_j varies
FAR_SLOPE_TOL = 0.1
# C of the tail allowance C R^(-2-2a) ||omega||_inf x_j.  The image tail
# falls as R^(-2-2a); |tail| / (R^(-2-2a) ||omega||_inf x_j) measured on the
# far samples of plateau fields (N = 32, 96, 256) for alpha = 0.25, 0.5,
# 0.75 reads at most 0.20 for R = 2..16 and 0.53 at R = 1 (alpha = 0.25):
# C is about twice the largest.  The plateau's quadrupole moment is 85 % of
# the largest that a field of the same ||omega||_inf can have.
FAR_TAIL_CONSTANT = 1.0
BACKGROUND_EXPONENT_TOL = 0.15
DECOMPOSITION_REL_TOL = 5e-3


@dataclass
class BoundReport:
    estimate_id: str
    alpha: float
    fitted_constant: float
    fitted_exponent: float | None = None
    theoretical_exponent: float | None = None
    exponent_tol: float | None = None
    regression_r2: float | None = None
    passed: bool = False
    samples: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _notes_warnings(sweep):
    """Append each distinct warning the sweep raises to its report's notes,
    in order, and emit it once more under the caller's warning filters."""
    @functools.wraps(sweep)
    def wrapped(*args, **kwargs):
        with recorded_warnings() as messages:
            report = sweep(*args, **kwargs)
        report.notes.extend(f"warning: {message}" for message in messages)
        return report
    return wrapped


def loglog_fit(xs, ys):
    """Least-squares slope/intercept/R^2 of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs >= 2 strictly positive samples")
    return _line_fit(np.log(xs), np.log(ys))


def default_directions(n: int = 8, margin: float = 0.15):
    """Unit directions in the open first quadrant, evenly spaced in angle."""
    ang = np.linspace(margin, np.pi / 2 - margin, n)
    return np.column_stack([np.cos(ang), np.sin(ang)])


@_notes_warnings
def verify_kernel_asymptotics(alpha: float, n_directions: int = 48) -> BoundReport:
    """Boundedness of |f_j| * (|y|/|x|) across scale ratios.

    f_j is exactly even in x -> -x (both K_j and their leading forms are
    odd), so the true decay is |f_j| ~ C/ratio^2 and the scaled quantity
    max_dirs |f_j| * ratio falls ~1/ratio instead of holding constant.  The
    check (variation across KERNEL_RATIOS <= KERNEL_VARIATION_LIMIT) encodes
    the constant-level expectation and is evaluated as stated.
    """
    nx = max(4, int(round(np.sqrt(n_directions / 3))))
    ny = max(3, int(np.ceil(n_directions / nx)))
    xdirs = default_directions(nx, margin=0.15)
    ydirs = default_directions(ny, margin=0.15)
    x = (1e-3 * xdirs)[:, None, :]
    rows = []
    maxima = []
    for ratio in KERNEL_RATIOS:
        y = (1e-3 * ratio * ydirs)[None, :, :]
        worst = max(float(np.max(np.abs(relative_kernel_error(j, x, y, alpha)) * ratio))
                    for j in (1, 2))
        maxima.append(worst)
        rows.append({"ratio": ratio, "max_f_times_ratio": worst})
    variation = max(maxima) / min(maxima)
    slope, _, r2 = loglog_fit(KERNEL_RATIOS, maxima)
    passed = variation <= KERNEL_VARIATION_LIMIT
    return BoundReport(
        estimate_id="kernel_asymptotics", alpha=alpha,
        fitted_constant=max(maxima), fitted_exponent=slope,
        theoretical_exponent=0.0, exponent_tol=None, regression_r2=r2,
        passed=passed, samples=rows,
        notes=[f"max/min variation across ratios = {variation:.3g} "
               f"(limit {KERNEL_VARIATION_LIMIT}); scaled maxima decay with slope "
               f"{slope:.3f} because the corrections are quadratic in |x|/|y|"])


@_notes_warnings
def verify_near_field(omega: SineField, alpha: float, magnitudes, L: float,
                      params: KernelParams | None = None,
                      n_directions: int = 8) -> BoundReport:
    """Near-square contribution against x_j |x|^(2-2a) L^(2-2a) ||Hess||_inf.

    Fits the |x| exponent of |u_j^near|/x_j pooled over directions and both
    components; the empirical constant is the worst measured/bound ratio.
    """
    params = _params_for(alpha, params)
    hess = hessian_sup_norm(omega, 2 * omega.n_modes)
    oracle = QuadratureOracle(omega, params)
    dirs = default_directions(n_directions)
    rows = []
    notes = []
    mags_used, pooled = [], []
    for r in np.asarray(magnitudes, dtype=np.float64):
        if L * r >= np.pi:
            notes.append(f"|x|={r:.4g} skipped: near square exceeds the cell")
            continue
        per_mag = []
        for d in dirs:
            x = (float(r * d[0]), float(r * d[1]))
            if min(x) == 0.0:
                notes.append(f"sample {x} excluded: x_j = 0 degenerates the bound")
                continue
            u1, u2 = oracle.velocity(x, RegionSpec("near", L))
            for j, uj in ((1, u1), (2, u2)):
                xj = x[j - 1]
                bound = xj * r ** (2 - 2 * alpha) * L ** (2 - 2 * alpha) * hess
                measured = abs(uj)
                rows.append({"x": list(x), "L": L, "j": j, "measured": measured,
                             "bound": bound, "ratio": measured / bound})
                per_mag.append(measured / xj)
        if per_mag:
            mags_used.append(r)
            pooled.append(float(np.mean(per_mag)))
    theo = 2 - 2 * alpha
    if max(pooled, default=0.0) == 0.0:
        return BoundReport(
            estimate_id="near_field", alpha=alpha, fitted_constant=0.0,
            theoretical_exponent=theo, exponent_tol=NEAR_EXPONENT_TOL, passed=True,
            samples=rows, notes=notes + ["all measured values zero; trivially within the bound"])
    slope, _, r2 = loglog_fit(mags_used, pooled)
    fitted_c = max(row["ratio"] for row in rows)
    passed = (abs(slope - theo) <= NEAR_EXPONENT_TOL) and r2 >= NEAR_MIN_R2
    if r2 < NEAR_MIN_R2:
        notes.append(f"regression R^2 = {r2:.3f} < {NEAR_MIN_R2}")
    return BoundReport(
        estimate_id="near_field", alpha=alpha, fitted_constant=fitted_c,
        fitted_exponent=slope, theoretical_exponent=theo,
        exponent_tol=NEAR_EXPONENT_TOL, regression_r2=r2, passed=passed,
        samples=rows, notes=notes)


@_notes_warnings
def verify_medium_ratio(omega: SineField, alpha: float, L_values,
                        params: KernelParams | None = None,
                        n_directions: int = 5) -> BoundReport:
    """Component-ratio agreement r = -u1 x2 / (x1 u2) on the medium region.

    For each L the deviation |r - 1| is maximized over sample points with
    L|x| in MEDIUM_CUTOFF_FRACTIONS; the envelope is fitted against L.  The
    empirical B is max |r - 1| * L.
    """
    params = _params_for(alpha, params)
    oracle = QuadratureOracle(omega, params)
    dirs = default_directions(n_directions, margin=0.2)
    rows = []
    notes = []
    env = []
    L_used = []
    for L in np.asarray(L_values, dtype=np.float64):
        worst = 0.0
        for frac in MEDIUM_CUTOFF_FRACTIONS:
            r_mag = frac / L
            for d in dirs:
                x = (float(r_mag * d[0]), float(r_mag * d[1]))
                u1, u2 = oracle.velocity(x, RegionSpec("medium", L))
                if u2 == 0.0:
                    notes.append(f"sample {x} rejected: u2_med = 0 (setup bug?)")
                    continue
                ratio = -u1 * x[1] / (x[0] * u2)
                dev = abs(ratio - 1.0)
                rows.append({"x": list(x), "L": float(L), "measured": dev,
                             "bound": None, "ratio": ratio})
                worst = max(worst, dev)
        if worst > 0:
            env.append(worst)
            L_used.append(float(L))
    slope, _, r2 = loglog_fit(L_used, env)
    b_emp = max(e * L for e, L in zip(env, L_used))
    for row in rows:
        row["bound"] = b_emp / row["L"]
    passed = abs(slope - (-1.0)) <= MEDIUM_EXPONENT_TOL
    notes.append(f"envelope max|r-1| per L: "
                 + ", ".join(f"L={L:g}: {e:.3e}" for L, e in zip(L_used, env)))
    return BoundReport(
        estimate_id="medium_ratio", alpha=alpha, fitted_constant=b_emp,
        fitted_exponent=slope, theoretical_exponent=-1.0,
        exponent_tol=MEDIUM_EXPONENT_TOL, regression_r2=r2, passed=passed,
        samples=rows, notes=notes)


@_notes_warnings
def verify_far_field(omega: SineField, alpha: float, magnitudes,
                     params: KernelParams | None = None) -> BoundReport:
    """Image-cell contribution: |u_j^far| <= C(a) x_j ||omega||_inf.

    Checks linearity in x_j (slope of log|u_j| vs log x_j with the other
    coordinate fixed at FAR_OTHER_COORD) and that doubling the image radius
    moves the result by at most
    FAR_TAIL_CONSTANT * R^(-2-2a) * ||omega||_inf * x_j, the measured law of
    the tail.  That move is the oracle's image_tail, the image cells between
    R and 2R summed directly on the same oracle.
    """
    params = _params_for(alpha, params)
    omega_sup = grid_max_abs(omega, 2 * omega.n_modes)
    oracle = QuadratureOracle(omega, params)
    rows = []
    notes = []
    slopes = []
    tail_ok = True
    for j in (1, 2):
        mags_used, meas = [], []
        for r in np.asarray(magnitudes, dtype=np.float64):
            x = (float(r), FAR_OTHER_COORD) if j == 1 else (FAR_OTHER_COORD, float(r))
            uj = oracle.velocity(x, RegionSpec("far"))[j - 1]
            tail = oracle.image_tail(x)[j - 1]
            xj = x[j - 1]
            bound = xj * omega_sup
            rows.append({"x": list(x), "j": j, "measured": abs(uj), "bound": bound,
                         "ratio": abs(uj) / bound})
            tail_allow = (FAR_TAIL_CONSTANT * params.image_radius ** (-2 - 2 * alpha)
                          * omega_sup * xj)
            if abs(tail) > tail_allow:
                tail_ok = False
                notes.append(f"tail check failed at x={x}, j={j}: "
                             f"|delta|={abs(tail):.3e} > {tail_allow:.3e}")
            mags_used.append(r)
            meas.append(abs(uj))
        if min(meas) == 0.0:     # as with image_radius 1, which leaves no image cell
            notes.append(f"u{j}: no slope in x_{j}: the far sum vanishes at a sample")
            continue
        slope, _, r2 = loglog_fit(mags_used, meas)
        slopes.append(slope)
        notes.append(f"u{j}: slope in x_{j} = {slope:.4f} (R^2 = {r2:.5f})")
    fitted_c = max(row["ratio"] for row in rows)
    worst_slope = max(slopes, key=lambda s: abs(s - 1.0), default=None)
    passed = len(slopes) == 2 and all(abs(s - 1.0) <= FAR_SLOPE_TOL for s in slopes) and tail_ok
    return BoundReport(
        estimate_id="far_field", alpha=alpha, fitted_constant=fitted_c,
        fitted_exponent=worst_slope, theoretical_exponent=1.0,
        exponent_tol=FAR_SLOPE_TOL, regression_r2=None, passed=passed,
        samples=rows, notes=notes)


@_notes_warnings
def verify_background(fields_by_delta, alpha: float, L: float = 8.0,
                      params: KernelParams | None = None) -> BoundReport:
    """Medium-field lower bound (-1)^j u_j^med >= c x_j delta^(-alpha).

    fields_by_delta maps delta -> plateau SineField built at that delta.
    Samples x = delta/(2L) * (1, 1) per delta (plus sign checks at smaller
    magnitudes); rejects samples violating L|x| <= delta.
    """
    params = _params_for(alpha, params)
    rows = []
    notes = []
    deltas, scaled = [], []
    sign_ok = True
    for delta in sorted(fields_by_delta):
        oracle = QuadratureOracle(fields_by_delta[delta], params)
        measured_here = []
        for frac in (1.0, 0.5):
            x = (frac * delta / (2 * L), frac * delta / (2 * L))
            if L * float(np.hypot(*x)) > delta:
                notes.append(f"x={x} rejected: L|x| > delta={delta}")
                continue
            u1, u2 = oracle.velocity(x, RegionSpec("medium", L))
            m1, m2 = -u1 / x[0], u2 / x[1]
            if m1 <= 0 or m2 <= 0:
                sign_ok = False
                notes.append(f"sign violation at delta={delta}, x={x}: ({m1:.3e}, {m2:.3e})")
            bound = delta ** (-alpha)
            for j, m in ((1, m1), (2, m2)):
                rows.append({"delta": delta, "x": list(x), "j": j,
                             "measured": m, "bound": bound, "ratio": m / bound})
            if frac == 1.0:
                measured_here.append(min(m1, m2))
        if measured_here:
            deltas.append(delta)
            scaled.append(min(measured_here))
    slope, _, r2 = loglog_fit(deltas, scaled)
    c_emp = min(row["ratio"] for row in rows)
    passed = sign_ok and abs(slope - (-alpha)) <= BACKGROUND_EXPONENT_TOL
    notes.append(f"fitted delta exponent {slope:.3f} vs -alpha = {-alpha}")
    return BoundReport(
        estimate_id="background", alpha=alpha, fitted_constant=c_emp,
        fitted_exponent=slope, theoretical_exponent=-alpha,
        exponent_tol=BACKGROUND_EXPONENT_TOL, regression_r2=r2, passed=passed,
        samples=rows, notes=notes)


@_notes_warnings
def verify_decomposition(omega: SineField, alpha: float, x_samples, L: float,
                         params: KernelParams | None = None) -> BoundReport:
    """near + medium + far must reproduce the full-region quadrature."""
    params = _params_for(alpha, params)
    oracle = QuadratureOracle(omega, params)
    rows = []
    worst = 0.0
    for x in x_samples:
        parts = np.zeros(2)
        for kind in ("near", "medium", "far"):
            parts += np.asarray(oracle.velocity(x, RegionSpec(kind, L)))
        full = np.asarray(oracle.velocity(x, RegionSpec("full", L)))
        rel = float(np.linalg.norm(parts - full) / max(np.linalg.norm(full), 1e-300))
        worst = max(worst, rel)
        rows.append({"x": list(map(float, x)), "L": L, "measured": rel,
                     "bound": DECOMPOSITION_REL_TOL, "ratio": rel / DECOMPOSITION_REL_TOL})
    return BoundReport(
        estimate_id="decomposition", alpha=alpha, fitted_constant=worst,
        passed=worst <= DECOMPOSITION_REL_TOL, samples=rows,
        notes=[f"worst relative defect {worst:.3e} (tol {DECOMPOSITION_REL_TOL})"])


def _strict_json(v):
    """v with every float a Python float and every non-finite one None."""
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    if isinstance(v, float):
        return float(v) if np.isfinite(v) else None
    return v


def write_report_json(report: BoundReport, path) -> None:
    """The report as strict JSON: a NaN or infinity is written as null."""
    fields = {**vars(report), "passed": bool(report.passed)}
    text = json.dumps(_strict_json(fields), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_reports_csv(reports, path) -> None:
    """Summary table: one row per sample across all reports.

    L_or_delta is the row's L or delta, the kernel sweep's scale ratio
    |y|/|x|, or empty (the far field has no scale).
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimate_id", "alpha", "L_or_delta", "x", "measured", "bound", "ratio"])
        for rep in reports:
            for row in rep.samples:
                ratio_scale = row["ratio"] if rep.estimate_id == "kernel_asymptotics" else ""
                scale = row.get("L", row.get("delta", ratio_scale))
                x = row.get("x", "")
                w.writerow([rep.estimate_id, f"{rep.alpha:.17g}", scale,
                            json.dumps(x) if x != "" else "",
                            _fmt(row.get("measured")), _fmt(row.get("bound")),
                            _fmt(row.get("ratio"))])


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return v
