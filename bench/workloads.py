"""The benchmark's three workloads: set-up, one timed pass, output checks.

Each workload drives the package's public functions the way the matching
``msqglab`` subcommand does, at the CLI defaults unless a comment says
otherwise.  ``setup`` builds the inputs, ``warm_up`` makes the first call of
each hot path at the workload's sizes, ``run_pass`` is the timed unit of
work, ``summarize`` reduces its outputs to the values that ``check``
compares against the stored reference.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from msqglab.evolution import ExperimentConfig, SimState, run, step_rk4
from msqglab.initial_data import InitialDataSpec, build_omega0
from msqglab.kernels import KernelParams, QuadratureOracle, RegionSpec
from msqglab.snapshots import read_snapshot
from msqglab.spectral import evaluate_offgrid
from msqglab.trajectories import (VelocitySampler, fit_gamma, medium_ratio_monitor,
                                  stopping_time, trace, transport_defect)
from msqglab.verify import (verify_background, verify_decomposition, verify_far_field,
                            verify_kernel_asymptotics, verify_medium_ratio,
                            verify_near_field, write_report_json, write_reports_csv)

# CLI defaults shared by every workload (msqglab.cli.DEFAULTS)
ALPHA = 0.5
DELTA = 0.25
L = 8.0
IMAGE_RADIUS = 8
GROWTH_THRESHOLD_FACTOR = 1e3

# Relative tolerance of every comparison against the reference.  Reordered
# floating-point sums move these values by ~1e-13 relative; a wrong tendency
# moves them by far more than 1e-7.
RTOL = 1e-7
ATOL = 1e-12


def _close(got, want) -> bool:
    return math.isfinite(got) and abs(got - want) <= ATOL + RTOL * abs(want)


def _compare(checks, label, got, want):
    checks.append((label, _close(got, want), f"{got!r} vs reference {want!r}"))


class SimulateN256:
    """``msqglab simulate`` at N=256, Ng=512 over a fixed 10-step horizon."""

    name = "simulate_n256"
    work_ops = 1                    # one run per pass
    # 10 CFL steps: two diagnostic cadences and one snapshot cadence
    T_FINAL = 0.0125
    L2_DRIFT_MAX = 1e-9
    DEGENERACY_MAX = 1e-10

    def __init__(self, work_dir: Path, seed: int):
        self.out_dir = work_dir / "simulate"
        self.config = ExperimentConfig(
            alpha=ALPHA, n_modes=256, n_grid=512, t_final=self.T_FINAL,
            dt_policy="cfl", cfl_safety=0.4, delta=DELTA, L=L, beta=5.0,
            diag_every=5, snapshot_every=10, out_dir=str(self.out_dir))
        self.omega0 = None

    @property
    def sizes(self) -> dict:
        c = self.config
        return {"N": c.n_modes, "Ng": c.n_grid, "T": c.t_final, "cfl_safety": c.cfl_safety,
                "diag_every": c.diag_every, "snapshot_every": c.snapshot_every}

    def setup(self) -> None:
        c = self.config
        self.omega0 = build_omega0(InitialDataSpec(delta=c.delta, n_modes=c.n_modes,
                                                   n_grid=c.n_grid))

    def warm_up(self) -> None:
        step_rk4(SimState(self.omega0, 0.0, 0, self.config), 1e-3)

    def run_pass(self):
        return run(self.config, self.omega0)

    def summarize(self, result) -> dict:
        diag = result.diagnostics
        last = diag[-1]
        return {
            "halt_reason": result.halt_reason,
            "steps": result.state.step_count,
            "records": len(diag),
            "snapshots": len(result.snapshots),
            "l2_drift": abs(last.l2_norm - diag[0].l2_norm) / diag[0].l2_norm,
            "degeneracy_max": max(d.degeneracy for d in diag),
            "final_row": {f: getattr(last, f) for f in last.CSV_FIELDS if f != "degeneracy"},
        }

    def check(self, s: dict, ref: dict, seed: int) -> list:
        checks = [
            ("halt_reason", s["halt_reason"] == "horizon", s["halt_reason"]),
            ("steps", (s["steps"], s["records"], s["snapshots"])
             == (ref["steps"], ref["records"], ref["snapshots"]),
             f"steps/records/snapshots {s['steps']}/{s['records']}/{s['snapshots']}"),
            ("l2_drift", s["l2_drift"] <= self.L2_DRIFT_MAX, f"{s['l2_drift']:.3e}"),
            ("degeneracy", s["degeneracy_max"] <= self.DEGENERACY_MAX,
             f"{s['degeneracy_max']:.3e}"),
        ]
        for key, want in ref["final_row"].items():
            _compare(checks, f"final_row.{key}", s["final_row"][key], want)
        return checks

    def closed_form(self, s: dict) -> dict:
        steps, records = s["steps"], s["records"]
        return {
            "evolution.step_rk4": steps,
            # 2 CFL velocity grids + 4 stages x (u1, u2, d1 w, d2 w)
            "spectral.evaluate": 18 * steps + 4 * records,
            "spectral.forward_transform": 4 * steps,
            "spectral.hessian_sup_norm": records,
            "initial_data.check_degeneracy": records,
            "snapshots.write": s["snapshots"],
        }


class VerifyAll:
    """``msqglab verify --which all`` at the CLI defaults."""

    name = "verify_all"
    work_ops = 6                    # six sweeps per pass
    BACKGROUND_DELTAS = (0.1, 0.2, 0.4)

    def __init__(self, work_dir: Path, seed: int):
        self.out_dir = work_dir / "verify"
        self.params = KernelParams(alpha=ALPHA, image_radius=IMAGE_RADIUS)
        self.omega = None
        self.fields = None

    @property
    def sizes(self) -> dict:
        return {"N": 256, "Ng": 512, "image_radius": IMAGE_RADIUS,
                "cells_central": self.params.cells_central,
                "cells_panel": self.params.cells_panel, "cells_far": self.params.cells_far}

    def setup(self) -> None:
        self.omega = build_omega0(InitialDataSpec(delta=DELTA, n_modes=256, n_grid=512,
                                                  blend_order=4))
        self.fields = {d: build_omega0(InitialDataSpec(delta=d, n_modes=256, n_grid=512,
                                                       blend_order=4, delta_max=0.6))
                       for d in self.BACKGROUND_DELTAS}
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def warm_up(self) -> None:
        QuadratureOracle(self.omega, self.params).velocity((0.3, 0.4), RegionSpec("full"))

    def run_pass(self):
        p, om = self.params, self.omega
        reports = [
            verify_kernel_asymptotics(ALPHA),
            verify_near_field(om, ALPHA, np.geomspace(0.002, 0.05, 6), L, p),
            verify_medium_ratio(om, ALPHA, (8.0, 16.0, 32.0, 64.0), p),
            verify_far_field(om, ALPHA, np.geomspace(0.001, 0.01, 5), p),
            verify_background(self.fields, ALPHA, L, p),
            verify_decomposition(om, ALPHA, [(0.05, 0.08), (0.02, 0.01), (0.004, 0.009)], L, p),
        ]
        for rep in reports:
            write_report_json(rep, self.out_dir / f"report_{rep.estimate_id}.json")
        write_reports_csv(reports, self.out_dir / "verify_summary.csv")
        return reports

    def summarize(self, reports) -> dict:
        return {r.estimate_id: {"fitted_exponent": r.fitted_exponent,
                                "fitted_constant": r.fitted_constant,
                                "passed": bool(r.passed)} for r in reports}

    def check(self, s: dict, ref: dict, seed: int) -> list:
        checks = [("estimates", sorted(s) == sorted(ref), ",".join(sorted(s)))]
        for eid, want in ref.items():
            got = s.get(eid)
            if got is None:
                checks.append((eid, False, "report missing"))
                continue
            # the seed verifier reports 4 of 6 estimates as FAIL by design; the
            # check is that the pass/FAIL pattern is unchanged
            checks.append((f"{eid}.passed", got["passed"] == want["passed"],
                           f"{got['passed']} vs reference {want['passed']}"))
            _compare(checks, f"{eid}.fitted_constant", got["fitted_constant"],
                     want["fitted_constant"])
            if want["fitted_exponent"] is None:
                checks.append((f"{eid}.fitted_exponent", got["fitted_exponent"] is None,
                               repr(got["fitted_exponent"])))
            else:
                got_exp = got["fitted_exponent"]
                _compare(checks, f"{eid}.fitted_exponent",
                         math.nan if got_exp is None else got_exp, want["fitted_exponent"])
        return checks

    def closed_form(self, s: dict) -> dict:
        return {}


class TraceN128:
    """``msqglab trace --monitor-L 8`` through snapshots of an N=128 run.

    Set-up runs ``simulate`` at N=128, Ng=256 to t=0.05 and writes its
    snapshots; each pass reads them back and traces seeded start points in
    the medium-field regime L|x| <= 1.  The set-up run records diagnostics
    every 2 steps (CLI default 5) so that the series has the 10 rows the
    trace subcommand needs to fit the growth rate.
    """

    name = "trace_n128"
    work_ops = 4                    # four traced paths per pass
    T_RUN = 0.05
    DT = 1e-4
    # fixed magnitudes keep the quadrature cost independent of the seed: the
    # medium region's dyadic frame count depends on L|x| only
    MAGNITUDES = (0.035, 0.035, 0.07, 0.07)
    ANGLE_MARGIN = 0.2
    TRANSPORT_DEFECT_MAX = 2e-3
    RATIO_DEV_MAX = 0.05
    MONITOR_EVERY = 10

    def __init__(self, work_dir: Path, seed: int):
        self.run_dir = work_dir / "trace_run"
        self.params = KernelParams(alpha=ALPHA, image_radius=IMAGE_RADIUS)
        rng = np.random.default_rng(seed)
        angles = rng.uniform(self.ANGLE_MARGIN, np.pi / 2 - self.ANGLE_MARGIN,
                             len(self.MAGNITUDES))
        self.starts = [(float(r * np.cos(a)), float(r * np.sin(a)))
                       for r, a in zip(self.MAGNITUDES, angles)]

    @property
    def sizes(self) -> dict:
        return {"N": 128, "Ng": 256, "T": self.T_RUN, "dt": self.DT, "paths": len(self.starts),
                "monitor_L": L, "starts": self.starts}

    def setup(self) -> None:
        omega0 = build_omega0(InitialDataSpec(delta=DELTA, n_modes=128, n_grid=256))
        run(ExperimentConfig(alpha=ALPHA, n_modes=128, n_grid=256, t_final=self.T_RUN,
                             delta=DELTA, L=L, diag_every=2, snapshot_every=10,
                             out_dir=str(self.run_dir)), omega0)

    def warm_up(self) -> None:
        field, _ = read_snapshot(sorted(self.run_dir.glob("snap_*.msqg"))[0])
        VelocitySampler([(0.0, field)], ALPHA)(self.starts[0], 0.0)
        QuadratureOracle(field, self.params).velocity(self.starts[0], RegionSpec("medium", L))

    def _load_run_dir(self):
        snaps = []
        for p in sorted(self.run_dir.glob("snap_*.msqg")):
            field, header = read_snapshot(p)
            snaps.append((float(header["time"]), field))
        times, hess = [], []
        with open(self.run_dir / "diagnostics.csv") as fh:
            for row in csv.DictReader(fh):
                times.append(float(row["time"]))
                hess.append(float(row["hessian_sup"]))
        meta = json.loads((self.run_dir / "metadata.json").read_text())
        return snaps, np.array(times), np.array(hess), meta["config"]["alpha"]

    def run_pass(self):
        snaps, times, hess, alpha = self._load_run_dir()
        t_end = snaps[-1][0]
        sampler = VelocitySampler(snaps, alpha)
        threshold = GROWTH_THRESHOLD_FACTOR * hess[0]
        paths = []
        for start in self.starts:
            traj = trace(start, sampler, t_end, self.DT)
            traj = medium_ratio_monitor(traj, snaps, alpha, L, self.params,
                                        every=self.MONITOR_EVERY)
            paths.append((traj, stopping_time(traj, times, hess, t_end, start[0], threshold)[1]))
        gamma = fit_gamma(times, hess).fitted_gamma if len(hess) >= 10 else None
        return snaps, paths, gamma

    def summarize(self, out) -> dict:
        snaps, paths, gamma = out
        rows = []
        for traj, reason in paths:
            start = traj.positions[0]
            vel = traj.velocities
            monitored = traj.ratios[::self.MONITOR_EVERY]
            rows.append({
                "halted": bool(traj.halted),
                "steps": len(traj.times) - 1,
                "stop_reason": reason,
                # the growth threshold is out of reach over this horizon
                "expected_reason": ("x2_reaches_x10" if (traj.positions[:, 1] >= start[0]).any()
                                    else "horizon"),
                "transport_defect": transport_defect(
                    traj, snaps, float(evaluate_offgrid(snaps[0][1], start))),
                # hyperbolic stagnation-point flow at the origin: x1 is
                # pushed towards the x2-axis and x2 away from the x1-axis
                "tendency": bool((vel[:, 0] < 0).all() and (vel[:, 1] > 0).all()),
                "ratio_dev_max": float(np.max(np.abs(monitored - 1.0))),
                "final_position": [float(v) for v in traj.positions[-1]],
            })
        return {"gamma": gamma, "snapshots": len(snaps), "paths": rows}

    def check(self, s: dict, ref: dict, seed: int) -> list:
        checks = [("snapshots", s["snapshots"] == ref["snapshots"], str(s["snapshots"]))]
        _compare(checks, "gamma", s["gamma"] if s["gamma"] is not None else math.nan,
                 ref["gamma"])
        ref_final = ref["final_positions"].get(str(seed))
        for i, p in enumerate(s["paths"]):
            checks += [
                (f"path{i}.halted", not p["halted"], "left the quadrant"),
                (f"path{i}.stop_reason", p["stop_reason"] == p["expected_reason"],
                 p["stop_reason"]),
                (f"path{i}.transport_defect",
                 p["transport_defect"] <= self.TRANSPORT_DEFECT_MAX,
                 f"{p['transport_defect']:.3e}"),
                (f"path{i}.tendency", p["tendency"], "u1 < 0 < u2 along the path"),
                (f"path{i}.medium_ratio", p["ratio_dev_max"] <= self.RATIO_DEV_MAX,
                 f"max |r - 1| = {p['ratio_dev_max']:.3e}"),
            ]
            if ref_final is not None:
                for k in range(2):
                    _compare(checks, f"path{i}.final_x{k + 1}", p["final_position"][k],
                             ref_final[i][k])
        return checks

    def closed_form(self, s: dict) -> dict:
        steps = [p["steps"] for p in s["paths"]]
        return {
            "trajectories.trace": len(steps),
            # one sample at the start, then 4 RK4 stages and one sample per step
            "trajectories.velocity": sum(5 * n + 1 for n in steps),
            "kernels.velocity.medium": sum(n // self.MONITOR_EVERY + 1 for n in steps),
            "snapshots.read": s["snapshots"],
        }


WORKLOADS = {w.name: w for w in (SimulateN256, VerifyAll, TraceN128)}
