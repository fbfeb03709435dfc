"""Command-line orchestration: make-data, simulate, verify, trace.

Configuration comes from defaults, overridden by an INI-style config file
(flat key = value under a [run] section; keys are the names in DEFAULTS,
matched case-insensitively, and any other key is a usage error), overridden
by command-line flags.  One config file serves the whole pipeline, so every
subcommand accepts every key, but it takes flags only for settings it reads:
  make-data  out, alpha, delta, N, Ng, blend_order
  simulate   all but which, image_radius and growth_threshold_factor
  verify     out, alpha, delta, L, N, Ng, blend_order, image_radius, which
  trace      out, dt, image_radius, growth_threshold_factor; alpha, Ng,
             delta and beta only where the run's metadata.json lacks them,
             and a note in trace_summary.json names each one so taken
make-data, simulate and verify build omega0 from one spec, _initial_spec,
which simulate's metadata.json records.  Every run writes a manifest.json
listing all emitted files with sha256 hashes (written last); it and
simulate's metadata.json carry the block of spectral.environment.  Exit
codes: 0 ok, 1 assertion/halt failure, 2 usage or validation error.
MSQGLAB_THREADS bounds FFT worker threads.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import ExperimentConfig, read_run_dir, run
from .initial_data import (DELTA_HARD_MAX, InitialDataSpec, build_omega0, check_degeneracy,
                           gradient_sup_norm, plateau_deficit_fraction, recorded_warnings)
from .kernels import KernelParams
from .snapshots import read_snapshot, write_snapshot
from .spectral import environment, inverse_transform
from .trajectories import (MIN_FIT_SAMPLES, VelocitySampler, growth_fit,
                           medium_ratio_monitor, select_start, stopping_time, trace)
from .verify import (verify_background, verify_decomposition, verify_far_field,
                     verify_kernel_asymptotics, verify_medium_ratio,
                     verify_near_field, write_report_json, write_reports_csv)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULTS = {
    "alpha": 0.5,
    "delta": 0.25,
    "L": 8.0,
    "beta": 5.0,
    "N": 256,
    "Ng": 512,
    "dt": 0.0,          # 0 -> CFL policy
    "T": 10.0,
    "which": "all",
    "out": "msqglab_out",
    "blend_order": 4,
    "image_radius": 8,
    "safety": 0.4,
    "diag_every": 5,
    "snapshot_every": 10,
    "growth_threshold_factor": 1e3,
}

WHICH = ("kernels", "near", "medium", "far", "background", "decomposition", "all")

# configparser lowercases keys; map them back to their DEFAULTS names
_CONFIG_KEYS = {key.lower(): key for key in DEFAULTS}


class UsageError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    merged = {}
    for section in list(cp.sections()) + ["DEFAULT"]:
        for key, val in cp.items(section):
            merged.setdefault(key, val)
    out = {}
    for key, val in merged.items():
        name = _CONFIG_KEYS.get(key)
        if name is None:
            raise UsageError(f"unknown key {key!r} in config file {path!r}; "
                             f"known keys: {', '.join(DEFAULTS)}")
        kind = type(DEFAULTS[name])
        try:
            out[name] = kind(val)
        except ValueError:
            raise UsageError(f"config key {name!r} in {path!r} must be {kind.__name__}, "
                             f"got {val!r}") from None
    return out


def _settings(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, subcommand: str, cfg: dict, t0: float) -> None:
    files = sorted(p for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "environment": environment(),
        "config": cfg,
        "wall_seconds": time.time() - t0,
        "files": [{"path": str(p.relative_to(out)), "sha256": _sha256(p),
                   "bytes": p.stat().st_size} for p in files],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _kernel_params(cfg: dict, alpha: float) -> KernelParams:
    return KernelParams(alpha=alpha, image_radius=int(cfg["image_radius"]))


def _initial_spec(cfg: dict, delta: float | None = None) -> InitialDataSpec:
    """The omega0 these settings mean, at delta if given; any delta to the hard cap is valid."""
    return InitialDataSpec(delta=cfg["delta"] if delta is None else delta, n_modes=cfg["N"],
                           n_grid=cfg["Ng"], blend_order=cfg["blend_order"],
                           delta_max=DELTA_HARD_MAX)


def _fixed_dt(cfg: dict) -> float:
    """The configured fixed step, 0 for the subcommand's default step."""
    dt = cfg["dt"]
    if not dt >= 0:
        raise UsageError(f"dt must be >= 0 (0 selects the default step), got {dt}")
    return dt


def cmd_make_data(args) -> int:
    cfg = _settings(args)
    t0 = time.time()
    with recorded_warnings() as warned:
        omega = build_omega0(_initial_spec(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_snapshot(out / "omega0.msqg", omega, cfg["Ng"], cfg["alpha"], 0.0)

    vals = inverse_transform(omega, cfg["Ng"]).values
    deg = check_degeneracy(omega)
    grad = gradient_sup_norm(omega, cfg["Ng"])
    deficit = plateau_deficit_fraction(vals)
    strip_bound = 4 * np.pi * cfg["delta"] / np.pi**2
    checks = {
        "grid_min": float(vals.min()),
        "grid_max": float(vals.max()),
        "plateau_deficit_fraction": deficit,
        "strip_bound": strip_bound,
        "degeneracy": deg,
        "degeneracy_rel": deg / grad,
    }
    # range check allows the series-truncation ripple of the C^k blend
    ok = (vals.min() > -1e-3 and vals.max() < 1 + 1e-3
          and deficit <= strip_bound + 0.02 and deg <= 1e-8 * grad)
    (out / "make_data_checks.json").write_text(
        json.dumps({**checks, "warnings": warned}, indent=2) + "\n")
    for key, val in checks.items():
        print(f"{key}: {val:.6g}")
    print(f"checks {'pass' if ok else 'FAIL'}")
    _write_manifest(out, "make-data", cfg, t0)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_simulate(args) -> int:
    cfg = _settings(args)
    t0 = time.time()
    out = Path(cfg["out"])
    dt = _fixed_dt(cfg)
    config = ExperimentConfig(
        alpha=cfg["alpha"], n_modes=cfg["N"], n_grid=cfg["Ng"], t_final=cfg["T"],
        dt_policy="fixed" if dt else "cfl", dt=dt or 1e-3, cfl_safety=cfg["safety"],
        delta=cfg["delta"], L=cfg["L"], beta=cfg["beta"],
        diag_every=cfg["diag_every"], snapshot_every=cfg["snapshot_every"],
        out_dir=str(out))
    if args.initial:
        omega0, header = read_snapshot(args.initial)
        print(f"initial field from {args.initial} (t={header['time']})")
    else:
        omega0 = _initial_spec(cfg)
    result = run(config, omega0)
    hess0, hess1 = result.diagnostics[0].hessian_sup, result.diagnostics[-1].hessian_sup
    summary = {
        "halt_reason": result.halt_reason,
        "final_time": result.state.time,
        "steps": result.state.step_count,
        "gamma": result.gamma,
        "gamma_r2": result.gamma_r2,
        "hessian_growth": hess1 / hess0 if hess0 else None,     # null for a zero omega0
        "notes": result.notes,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    _write_manifest(out, "simulate", cfg, t0)
    return EXIT_OK if result.halt_reason == "horizon" else EXIT_FAIL


def cmd_verify(args) -> int:
    cfg = _settings(args)
    t0 = time.time()
    which = cfg["which"]
    if which not in WHICH:
        raise UsageError(f"--which must be one of {WHICH}, got {which!r}")
    alpha = cfg["alpha"]
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    params = _kernel_params(cfg, alpha)
    reports = []

    need = lambda name: which in (name, "all")
    if any(need(n) for n in ("near", "medium", "far", "decomposition")):
        omega = build_omega0(_initial_spec(cfg))

    if need("kernels"):
        reports.append(verify_kernel_asymptotics(alpha))
    if need("near"):
        reports.append(verify_near_field(
            omega, alpha, np.geomspace(0.002, 0.05, 6), cfg["L"], params))
    if need("medium"):
        reports.append(verify_medium_ratio(omega, alpha, (8.0, 16.0, 32.0, 64.0), params))
    if need("far"):
        reports.append(verify_far_field(omega, alpha, np.geomspace(0.001, 0.01, 5), params))
    if need("background"):
        fields = {d: build_omega0(_initial_spec(cfg, d)) for d in (0.1, 0.2, 0.4)}
        reports.append(verify_background(fields, alpha, cfg["L"], params))
    if need("decomposition"):
        pts = [(0.05, 0.08), (0.02, 0.01), (0.004, 0.009)]
        reports.append(verify_decomposition(omega, alpha, pts, cfg["L"], params))

    for rep in reports:
        write_report_json(rep, out / f"report_{rep.estimate_id}.json")
        status = "pass" if rep.passed else "FAIL"
        extra = ""
        if rep.fitted_exponent is not None and rep.theoretical_exponent is not None:
            extra = (f" exponent {rep.fitted_exponent:+.3f}"
                     f" (target {rep.theoretical_exponent:+.3f})")
        print(f"{rep.estimate_id}: {status}{extra} constant={rep.fitted_constant:.4g}")
    write_reports_csv(reports, out / "verify_summary.csv")
    _write_manifest(out, "verify", cfg, t0)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_trace(args) -> int:
    if (args.x1 is None) != (args.x2 is None):
        raise UsageError("--x1 and --x2 must be given together")
    if not (args.monitor_L == 0 or args.monitor_L >= 2):
        raise UsageError(f"--monitor-L must be 0 (off) or >= 2, got {args.monitor_L}")
    cfg = _settings(args)
    t0 = time.time()
    dt = _fixed_dt(cfg)
    snaps, times, hess, ran = read_run_dir(Path(args.run_dir))
    # the run's own settings; this command's are the fallback, and a note
    # names each one taken because the run's metadata.json does not give it
    keys = {"alpha": "alpha", "n_grid": "Ng", "delta": "delta", "beta": "beta"}
    alpha, n_grid, delta, beta = (ran.get(key, cfg[name]) for key, name in keys.items())
    taken = ", ".join(f"{name}={cfg[name]}" for key, name in keys.items() if key not in ran)
    notes = [f"from the trace settings, not the run's metadata: {taken}"] if taken else []
    t_end = snaps[-1][0]
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    if args.x1 is not None:
        start_pt, scaled, note = (args.x1, args.x2), False, "explicit start point"
    else:       # the grid floor is 4 cells of the run's grid
        start = select_start(t_end, delta, alpha, beta, 4 * np.pi / n_grid)
        start_pt, scaled, note = start.point, start.scaled_regime, start.note

    sampler = VelocitySampler(snaps, alpha)
    traj = trace(start_pt, sampler, t_end, dt or max(t_end / 2000.0, 1e-4))
    if args.monitor_L:
        traj = medium_ratio_monitor(traj, snaps, alpha, args.monitor_L,
                                    _kernel_params(cfg, alpha))

    t_stop, reason = (t_end, "horizon")
    gamma, r2 = growth_fit(times, hess, notes)
    if len(hess):
        # a zero initial Hessian sets no threshold: nothing can grow from it
        threshold = cfg["growth_threshold_factor"] * hess[0] if hess[0] else np.inf
        t_stop, reason = stopping_time(traj, times, hess, t_end, start_pt[0], threshold)
        if len(hess) >= MIN_FIT_SAMPLES:
            with open(out / "growth.csv", "w", newline="") as fh:
                fh.write("time,hessian_sup\n")
                for t, h in zip(times, hess):
                    fh.write(f"{t:.17g},{h:.17g}\n")

    with open(out / "trajectory.csv", "w", newline="") as fh:
        fh.write("time,x1,x2,u1,u2,r\n")
        for i in range(len(traj.times)):
            r = traj.ratios[i]
            fh.write(f"{traj.times[i]:.17g},{traj.positions[i,0]:.17g},"
                     f"{traj.positions[i,1]:.17g},{traj.velocities[i,0]:.17g},"
                     f"{traj.velocities[i,1]:.17g},{'' if np.isnan(r) else f'{r:.17g}'}\n")

    summary = {
        "start": list(start_pt),
        "scaled_regime": scaled,
        "note": note,
        "T0": t_stop,
        "reason": reason,
        "gamma": gamma,
        "gamma_r2": r2,
        "halted": traj.halted,
        "halt_note": traj.halt_note,
        "notes": notes,
    }
    (out / "trace_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    _write_manifest(out, "trace", cfg, t0)
    return EXIT_OK if not traj.halted else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msqglab",
        description="Modified-SQG simulator and kernel-verification lab "
                    "(set MSQGLAB_THREADS to bound FFT workers)")
    parser.add_argument("--version", action="version", version=f"msqglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    number = dict(type=float)
    flags = {"alpha": number, "delta": number, "L": number, "beta": number,
             "N": dict(type=int, help="sine truncation order"),
             "Ng": dict(type=int, help="diagnostic grid size (>= 2N): initial data, CFL "
                                       "step, grid maxima and snapshots; the RK4 tendency "
                                       "uses its own 3/2-rule grid derived from N"),
             "dt": dict(type=float, help="fixed step (>= 0); omit/0 for the default, "
                                         "in simulate the CFL policy"),
             "T": dict(type=float, help="time horizon")}

    def subcommand(name, func, help, reads):
        # no abbreviations, so that a flag a subcommand does not read is an error
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="INI config file ([run] section, key = value)")
        for key in reads:
            p.add_argument(f"--{key}", **flags[key])
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        return p

    subcommand("make-data", cmd_make_data, "build and check the initial vorticity",
               ("alpha", "delta", "N", "Ng"))
    p = subcommand("simulate", cmd_simulate, "integrate the transport equation", flags)
    p.add_argument("--initial", help="snapshot file to start from")
    p = subcommand("verify", cmd_verify, "run estimate verifier sweeps",
                   ("alpha", "delta", "L", "N", "Ng"))
    p.add_argument("--which", choices=WHICH)
    p = subcommand("trace", cmd_trace, "trace characteristics through stored snapshots",
                   ("alpha", "delta", "beta", "Ng", "dt"))
    p.add_argument("--run-dir", required=True, help="simulate output directory")
    p.add_argument("--x1", type=float, help="explicit start x1")
    p.add_argument("--x2", type=float, help="explicit start x2")
    p.add_argument("--monitor-L", type=float, default=0.0,
                   help="medium-ratio monitor scale, >= 2 (0 disables)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
