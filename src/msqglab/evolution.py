"""Pseudo-spectral time integration of the active-scalar transport law.

d_t omega + (u . grad) omega = 0 with u = grad^perp (-Lap)^(-1+alpha) omega,
advanced by classical RK4 on the sine coefficients.  The tendency is
spectral.Tendency on the M = dealias_grid(N) midpoints per axis, where the
retained band is alias-free (the 3/2 rule).  The configured n_grid (>= 2N)
is the diagnostic grid: the CFL step, the grid maxima in diagnostics.csv
and the snapshot headers use it.  The odd-odd symmetry class is exact by
representation.

A step runs in an _Rk4Workspace, which holds the Laplacian symbol, the
current stage tendency, the stage input and one flat scratch: the
Tendency's three M x M grids live there during a step, and run()'s GridMax
buffers between steps.  The step sums its four stage tendencies into one
fresh array, which becomes the new coefficients, so a step allocates no
other grid-sized array.  run() builds one workspace and holds it for the
whole run.  Between steps it divides omega by the symbol into the stage
array, and takes the CFL speed from one call of the workspace's GridMax on
that psi with VELOCITY_TERMS; each diagnostic record takes omega-max and
hessian_sup_norm from the same GridMax on omega's own coefficients, which
skips the terms and grid rows that cannot hold the maximum (GridMax).  The
workspace holds

    8 * (max(3 M^2, (Ng+1)(N + min(128, Ng))) + 3 N^2 + Ng) bytes,

5.4 MB at N=256, Ng=512 (M=400) and 87 MB at N=1024, Ng=2048 (M=1600):
the tendency's grids are the larger share at both, and the last Ng are
the GridMax's row bounds.

No dissipation is applied (the equation is conservative).  Loss of
resolution is a reportable outcome ("resolution_exhausted"), not an error.

What the truncated scheme conserves: the L2 norm, up to the RK4 error, and,
with preserve_degeneracy, the vanishing of d_x1 omega on the x2-axis to
rounding.  The alias-free tendency also keeps the Hamiltonian
H = sum a^2 / (m^2 + n^2)^(1-alpha), but the degeneracy projection does
not: for the delta=0.35 plateau at N=32 to t=0.25, H drifts by 2.9e-5 with
the projection at both dt = 1/64 and 1/128, and by 5.4e-10 and 1.7e-11
without it, the RK4 error.  The tendency is even in the coefficients, so
running to T, negating and running to T again returns -omega0 up to the
time stepper alone.  It has no discrete max principle:
on the truncated plateau, omega-max overshoots its initial value by Gibbs
ripple that does not depend on dt and shrinks with N.  Measured for the
delta=0.35 plateau at alpha=0.5 up to t=0.2: a relative overshoot of
1.27e-2 at N=64/n_grid=144 and 1.09e-3 at N=128/n_grid=288.
"""

from __future__ import annotations

import csv
import json
import time as _time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .initial_data import InitialDataSpec, build_omega0, check_degeneracy, recorded_warnings
from .snapshots import read_snapshot, write_snapshot
from .spectral import (VALUE_TERMS, VELOCITY_TERMS, GridMax, SineField, Tendency, dealias_grid,
                       environment, hessian_sup_norm, l2_norm)
from .trajectories import growth_fit

__all__ = ["ExperimentConfig", "SimState", "DiagnosticsRecord", "RunResult",
           "nonlinear_term", "step_rk4", "cfl_dt", "run", "read_run_dir"]

# a CFL step is clipped to [DT_MIN, DT_MAX]: the floor bounds a run's step
# count by t_final / DT_MIN, the cap sets the step where the velocity is zero
DT_MIN = 1e-7
DT_MAX = 0.05
# halt when grid omega-max grows faster than this per step; a heuristic
# only, since the truncated scheme has no max principle and its Gibbs
# ripple can trip it
MAX_GROWTH_PER_STEP = 1.10
# the files of a run directory, which run() writes and read_run_dir reads;
# the glob finds the snapshots alone, not a halted run's state_dump.msqg
SNAPSHOT_FILE = "snap_{step:07d}.msqg"
SNAPSHOT_GLOB = SNAPSHOT_FILE.replace("{step:07d}", "*")
DIAGNOSTICS_FILE, METADATA_FILE, CONFIG_KEY = "diagnostics.csv", "metadata.json", "config"


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    n_modes: int
    n_grid: int
    t_final: float
    dt_policy: str = "cfl"          # "cfl" or "fixed"
    dt: float = 1e-3                # step for the fixed policy
    cfl_safety: float = 0.4
    # not read by run(): metadata.json records them, and trace reads delta and beta back
    delta: float = 0.25
    L: float = 8.0
    beta: float = 5.0
    diag_every: int = 5
    snapshot_every: int = 10
    out_dir: str | None = None
    preserve_degeneracy: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.n_grid < 2 * self.n_modes:
            raise ValueError(f"n_grid={self.n_grid} < 2*N={2 * self.n_modes}")
        if self.dt_policy not in ("cfl", "fixed"):
            raise ValueError(f"unknown dt policy {self.dt_policy!r}")
        if self.dt_policy == "cfl" and not 0.0 < self.cfl_safety <= 0.5:
            raise ValueError(f"cfl safety must be in (0, 0.5], got {self.cfl_safety}")
        # written so that a NaN fails them too
        if self.dt_policy == "fixed" and not 0.0 < self.dt < np.inf:
            raise ValueError(f"fixed policy requires a finite dt > 0, got {self.dt}")
        if not 0.0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.diag_every < 1 or self.snapshot_every < 1:
            raise ValueError("cadences must be >= 1")


@dataclass(frozen=True)
class SimState:
    """A point of the run.  workspace, if set, is the _Rk4Workspace that
    step_rk4 works in and hands on to the next state; without one, each
    step builds its own."""

    omega: SineField
    time: float
    step_count: int
    config: ExperimentConfig
    workspace: _Rk4Workspace | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    hessian_sup: float
    omega_max: float
    l2_norm: float
    degeneracy: float
    dt: float

    CSV_FIELDS = ("time", "hessian_sup", "omega_max", "l2_norm", "degeneracy", "dt")


@dataclass
class RunResult:
    """What run() returns.

    state is where run()'s omega0, passed in or built from a spec, got to;
    notes begin with that build's warnings.  snapshots has one (time, path)
    pair per snapshot, path None when the run has no out_dir.  The snapshot
    fields are not kept: a long run would hold every one of them, so they
    are read back from their files (snapshots.read_snapshot).  With an
    out_dir, run() also writes diagnostics.csv and metadata.json there, and
    read_run_dir reads the directory back.
    """

    state: SimState
    diagnostics: list
    snapshots: list            # (time, path) pairs
    halt_reason: str           # horizon | resolution_exhausted | nan
    gamma: float | None = None
    gamma_r2: float | None = None
    notes: list = field(default_factory=list)


class _Rk4Workspace:
    """Every array an RK4 step writes except the new coefficients, and run()'s GridMax.

    For one (alpha, N, preserve_degeneracy), and the n_grid of run()'s
    grid maxima: the Tendency (its Laplacian symbol and its three
    M x M grids, M = dealias_grid(N)), the current stage tendency and the
    stage input, which also holds the stream function of run()'s CFL speed
    between steps.  The tendency's grids and the GridMax buffers are views
    of one flat scratch sized for the larger of the two, since a step and a
    grid maximum never run at once.  Nothing is carried from one step to
    the next, so a step gives the same bits in a held workspace as in a
    fresh one, also after a step in it raised or a GridMax call.
    """

    def __init__(self, alpha: float, n_modes: int, n_grid: int, preserve_degeneracy: bool):
        self.key = (alpha, n_modes, preserve_degeneracy)
        m = dealias_grid(n_modes)
        scratch = np.empty(max(Tendency.scratch_size(m), GridMax.scratch_size(n_modes, n_grid)))
        self.rhs = Tendency(alpha, n_modes, m, preserve_degeneracy, scratch)
        self.grid_max = GridMax(n_modes, n_grid, scratch)
        self.stage = np.empty((n_modes, n_modes))
        self.stage_input = np.empty((n_modes, n_modes))


def nonlinear_term(omega: SineField, alpha: float, n_grid: int,
                   preserve_degeneracy: bool = False) -> SineField:
    """-(u . grad) omega formed on n_grid midpoints per axis, projected onto the field's band.

    The product is sampled at pi*(j+1/2)/n_grid, j = 0..n_grid-1, on both
    axes.  n_grid must exceed 3N/2, so that no product mode aliases into the
    band; the result then equals the band of the exact product.
    """
    if 2 * n_grid <= 3 * omega.n_modes:
        raise ValueError(f"n_grid={n_grid} <= 3N/2={1.5 * omega.n_modes:g}: "
                         "the product aliases into the retained band")
    return SineField(Tendency(alpha, omega.n_modes, n_grid, preserve_degeneracy)(omega.coeffs))


def cfl_dt(umax: float, n_grid: int, safety: float,
           dt_min: float = DT_MIN, dt_max: float = DT_MAX) -> float:
    """dt = safety * (pi / n_grid) / umax, clipped to [dt_min, dt_max].

    umax is the grid maximum of |u1| and |u2|.  NaN if umax is NaN;
    step_rk4 rejects that step.
    """
    if not 0.0 < safety <= 0.5:
        raise ValueError(f"cfl safety must be in (0, 0.5], got {safety}")
    if umax == 0.0:
        return dt_max
    return float(np.clip(safety * (np.pi / n_grid) / umax, dt_min, dt_max))


def step_rk4(state: SimState, dt: float) -> SimState:
    """One classical 4-stage step on the sine coefficients.

    The step works in state.workspace and hands it on to the new state; a
    state without one gets a workspace built for this step alone.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    cfg = state.config
    n = state.omega.n_modes
    ws = state.workspace
    if ws is None:
        ws = _Rk4Workspace(cfg.alpha, n, cfg.n_grid, cfg.preserve_degeneracy)
    elif ws.key != (cfg.alpha, n, cfg.preserve_degeneracy):
        raise ValueError(f"workspace for (alpha, N, preserve_degeneracy) = {ws.key}, "
                         f"state needs {(cfg.alpha, n, cfg.preserve_degeneracy)}")
    rhs = ws.rhs
    c = state.omega.coeffs
    k, y = ws.stage, ws.stage_input
    # k1, then k1 + 2 k2 + 2 k3 + k4 summed left to right, then the new coefficients
    acc = rhs(c)
    np.multiply(acc, 0.5 * dt, out=y)         # stage input c + h * k_i
    y += c
    for h in (0.5 * dt, dt):
        rhs(y, out=k)
        np.multiply(k, h, out=y)
        y += c
        k *= 2.0
        acc += k
    rhs(y, out=k)
    acc += k
    acc *= dt / 6.0
    acc += c
    return SimState(SineField(acc), state.time + dt, state.step_count + 1, cfg,
                    state.workspace)


def run(config: ExperimentConfig, omega0: SineField | InitialDataSpec) -> RunResult:
    """Integrate omega0 to t_final or a halt condition; emit diagnostics/snapshots.

    omega0 is the initial field or the InitialDataSpec to build it from; the
    build's warnings go into the notes, and metadata.json records the spec as
    "initial_data" (null for a field).  Partial output remains valid on halt.
    Exit state is reported via halt_reason; growth-rate fitting uses the
    recorded hessian series.
    """
    spec = omega0 if isinstance(omega0, InitialDataSpec) else None
    with recorded_warnings() as messages:
        omega0 = build_omega0(spec) if spec else omega0
    notes = [f"warning: {message}" for message in messages]
    if omega0.n_modes != config.n_modes:
        raise ValueError("omega0 truncation order disagrees with config")
    out = Path(config.out_dir) if config.out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    workspace = _Rk4Workspace(config.alpha, config.n_modes, config.n_grid,
                              config.preserve_degeneracy)
    state = SimState(omega0, 0.0, 0, config, workspace)
    # the stage array and the scratch are free between steps: the CFL
    # stream function goes into the first, and the grid maxima run in the second
    grid_max, psi = workspace.grid_max, workspace.stage
    diagnostics = []
    snapshots = []
    halt = "horizon"
    omax_prev = None
    steps_since_diag = 0
    t_wall = _time.time()

    def record(dt_now: float):
        nonlocal omax_prev, steps_since_diag
        omax = grid_max(state.omega.coeffs[None], VALUE_TERMS)
        rec = DiagnosticsRecord(
            time=state.time,
            hessian_sup=hessian_sup_norm(state.omega, config.n_grid, grid_max),
            omega_max=omax,
            l2_norm=l2_norm(state.omega),
            degeneracy=check_degeneracy(state.omega),
            dt=dt_now)
        diagnostics.append(rec)
        grew = None
        if omax_prev is not None and steps_since_diag > 0 and omax_prev > 0:
            grew = (omax / omax_prev) ** (1.0 / steps_since_diag)
        omax_prev = omax
        steps_since_diag = 0
        return rec, grew

    def snap():
        path = None
        if out:
            path = out / SNAPSHOT_FILE.format(step=state.step_count)
            write_snapshot(path, state.omega, config.n_grid, config.alpha, state.time)
        snapshots.append((state.time, path))

    record(0.0)
    snap()

    while state.time < config.t_final - 1e-14:
        if config.dt_policy == "cfl":
            np.divide(state.omega.coeffs, workspace.rhs.symbol, out=psi)
            dt = cfl_dt(grid_max(psi[None], VELOCITY_TERMS), config.n_grid, config.cfl_safety)
        else:
            dt = config.dt
        dt = min(dt, config.t_final - state.time)

        try:
            state = step_rk4(state, dt)
        except ValueError as exc:   # non-finite coefficients
            notes.append(f"halted at t={state.time:.6f}: {exc}")
            halt = "nan"
            if out:
                write_snapshot(out / "state_dump.msqg", state.omega,
                               config.n_grid, config.alpha, state.time)
            break
        steps_since_diag += 1

        if state.step_count % config.diag_every == 0 or state.time >= config.t_final - 1e-14:
            _, grew = record(dt)
            if grew is not None and grew > MAX_GROWTH_PER_STEP:
                notes.append(
                    f"omega-max growth {grew:.3f}/step at t={state.time:.6f} exceeds "
                    f"the growth heuristic {MAX_GROWTH_PER_STEP:g}/step "
                    "(Gibbs ripple of the truncated scheme can also trip it)")
                halt = "resolution_exhausted"
        if state.step_count % config.snapshot_every == 0:
            snap()
        if halt != "horizon":
            break

    if not snapshots or snapshots[-1][0] != state.time:
        snap()
    if diagnostics[-1].time != state.time:
        record(0.0)

    gamma, gamma_r2 = growth_fit([d.time for d in diagnostics],
                                 [d.hessian_sup for d in diagnostics], notes)

    # the result does not keep the run's workspace alive
    state = replace(state, workspace=None)
    result = RunResult(state, diagnostics, snapshots, halt, gamma, gamma_r2, notes)
    if out:
        _write_outputs(out, config, spec, result, _time.time() - t_wall)
    return result


def _write_outputs(out: Path, config: ExperimentConfig, spec: InitialDataSpec | None,
                   result: RunResult, wall: float) -> None:
    with open(out / DIAGNOSTICS_FILE, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DiagnosticsRecord.CSV_FIELDS)
        for rec in result.diagnostics:
            w.writerow([f"{getattr(rec, f):.17g}" for f in DiagnosticsRecord.CSV_FIELDS])
    meta = {
        CONFIG_KEY: asdict(config),
        "initial_data": asdict(spec) if spec else None,
        "provenance": f"msqglab-{__version__}",
        "environment": environment(),
        "wall_seconds": wall,
        "halt_reason": result.halt_reason,
        "gamma": result.gamma,
        "gamma_r2": result.gamma_r2,
        "notes": result.notes,
    }
    (out / METADATA_FILE).write_text(json.dumps(meta, indent=2) + "\n")


def read_run_dir(run_dir: Path):
    """What run() wrote to run_dir: (snapshots, times, hessian_sup, config).

    snapshots are its (time, SineField) pairs in step order; times and
    hessian_sup are those columns of diagnostics.csv, empty arrays without
    the file; config is metadata.json's "config" record, {} without the
    file.  ValueError if run_dir holds no snapshot.
    """
    snaps = [(float(header["time"]), omega)
             for omega, header in map(read_snapshot, sorted(run_dir.glob(SNAPSHOT_GLOB)))]
    if not snaps:
        raise ValueError(f"no snapshots found in {run_dir}")
    records = []
    if (run_dir / DIAGNOSTICS_FILE).exists():
        with open(run_dir / DIAGNOSTICS_FILE) as fh:
            records = [DiagnosticsRecord(**{f: float(r[f]) for f in DiagnosticsRecord.CSV_FIELDS})
                       for r in csv.DictReader(fh)]
    meta = run_dir / METADATA_FILE
    config = json.loads(meta.read_text())[CONFIG_KEY] if meta.exists() else {}
    return (snaps, np.array([rec.time for rec in records]),
            np.array([rec.hessian_sup for rec in records]), config)
