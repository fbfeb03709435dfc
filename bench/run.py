#!/usr/bin/env python3
"""Benchmark of msqglab: end-to-end metrics, or per-layer spans with --trace 1.

    python3 bench/run.py --workload simulate_n256 --seed 0 --seconds 27 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy.  FFT and BLAS threads are pinned to
one and the allocator's mmap threshold is fixed.  An end-to-end run starts
three measuring processes in turn; each sets up the workload, runs one
untimed warm-up pass and repeats timed passes for a third of ``--seconds``.
Medians over them are reported in seconds at the reference speed of
``speed.py``.  Every pass's outputs are checked against ``reference.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

from time import perf_counter

# set-up time of a measuring process counts from here: its imports included
T_START = perf_counter()

import argparse  # noqa: E402
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One process, one thread: the figures must not depend on how busy the
# other cores of a shared machine are.  glibc adapts its mmap threshold to
# the sizes a process frees, which moved the peak RSS of identical runs by
# up to 5 MB; a fixed threshold makes it repeat to 0.2 MB.
THREAD_VARS = ("MSQGLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
PINNED_ENV = {**{v: "1" for v in THREAD_VARS}, "MALLOC_MMAP_THRESHOLD_": "131072"}

WORKLOAD_NAMES = ("simulate_n256", "verify_all", "trace_n128")
# the timed passes are split over this many fresh processes in turn, so that
# no single process's memory layout sets the result
PROCESSES = 3
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

REGIONS = ("near", "medium", "far", "full")
VERIFY_IDS = ("kernel_asymptotics", "near_field", "medium_ratio", "far_field",
              "background", "decomposition")

# Per-layer metrics, named <span>.<statistic>.  Spans with child spans also
# report self_ms, their time minus the time their children covered.
LAYER_METRICS = (
    ("spectral.evaluate.calls", "count"),
    ("spectral.evaluate.ms", "ms"),
    ("spectral.evaluate.p50_us", "us"),
    ("spectral.forward_transform.calls", "count"),
    ("spectral.forward_transform.ms", "ms"),
    ("spectral.transform_mpts", "Mpts"),
    ("spectral.evaluate_at.calls", "count"),
    ("spectral.evaluate_at.ms", "ms"),
    ("spectral.hessian_sup_norm.ms", "ms"),
    ("spectral.hessian_sup_norm.self_ms", "ms"),
    ("evolution.step_rk4.calls", "count"),
    ("evolution.step_rk4.ms", "ms"),
    ("evolution.step_rk4.self_ms", "ms"),
    ("evolution.step_rk4.p50_ms", "ms"),
    ("evolution.run.ms", "ms"),
    ("evolution.run.self_ms", "ms"),
    ("initial_data.build_omega0.calls", "count"),
    ("initial_data.build_omega0.ms", "ms"),
    ("initial_data.build_omega0.self_ms", "ms"),
    ("initial_data.check_degeneracy.calls", "count"),
    ("initial_data.check_degeneracy.ms", "ms"),
    ("snapshots.write.calls", "count"),
    ("snapshots.write.ms", "ms"),
    ("snapshots.write.bytes", "B"),
    ("snapshots.read.calls", "count"),
    ("snapshots.read.ms", "ms"),
    ("snapshots.read.bytes", "B"),
    ("kernels.oracles", "count"),
    *((f"kernels.velocity.{r}.{stat}", unit) for r in REGIONS
      for stat, unit in (("calls", "count"), ("ms", "ms"))),
    ("kernels.points_per_oracle", "calls/oracle"),
    *((f"verify.{v}.{stat}", "ms") for v in VERIFY_IDS for stat in ("ms", "self_ms")),
    ("trajectories.trace.calls", "count"),
    ("trajectories.trace.ms", "ms"),
    ("trajectories.trace.self_ms", "ms"),
    ("trajectories.velocity.calls", "count"),
    ("trajectories.velocity.ms", "ms"),
    ("trajectories.velocity.p50_us", "us"),
    ("trajectories.medium_ratio_monitor.ms", "ms"),
    ("trajectories.medium_ratio_monitor.self_ms", "ms"),
    ("trajectories.fit_gamma.calls", "count"),
    ("bench.tracing_overhead_pct", "%"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one of the measuring processes of an end-to-end run
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    # lets the benchmark's own tests substitute a perturbed reference
    p.add_argument("--reference", default=str(HERE / "reference.json"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import msqglab from the checkout's src directory, or exit with code 2."""
    if not (SRC / "msqglab" / "__init__.py").is_file():
        print(f"error: no msqglab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import msqglab

    if Path(msqglab.__file__).resolve().parent != (SRC / "msqglab").resolve():
        print(f"error: msqglab imported from {msqglab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def git_revision() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


class Tally:
    """Operations attempted and failed: set-ups, runs, sweeps, paths, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, n: int, what: str) -> None:
        self.attempted += n
        self.failed += n
        print(f"FAILED {what}", file=sys.stderr)

    def checks(self, checks) -> None:
        for label, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED check {label}: {detail}", file=sys.stderr)


class Clock:
    """Converts wall time to seconds at the reference speed (see speed.py)."""

    def __init__(self):
        from speed import NOMINAL_S, ReferenceKernel

        self.nominal_s = NOMINAL_S
        self.kernel = ReferenceKernel()
        self.kernel.time()

    def scale(self) -> float:
        """NOMINAL_S over the reference kernel's time right now."""
        return self.nominal_s / self.kernel.time()


@dataclass
class Pass:
    wall: float                 # raw wall seconds
    scale: float                # Clock.scale() measured next to it
    summary: dict
    stats: dict | None = None   # span aggregates of a traced pass

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def one_pass(workload, reference, seed, tally, clock, tracer=None) -> Pass | None:
    """Run, time and check one pass; None if it raised."""
    scale = clock.scale()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        out = workload.run_pass()
    except Exception:
        traceback.print_exc()
        tally.fail(workload.work_ops, f"{workload.name} pass raised")
        return None
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    stats = tracer.take() if tracer is not None else None
    tally.attempted += workload.work_ops
    try:
        summary = workload.summarize(out)
        tally.checks(workload.check(summary, reference, seed))
    except Exception:
        traceback.print_exc()
        tally.fail(1, f"{workload.name} output check raised")
        return None
    return Pass(wall, scale, summary, stats)


def run_all(args) -> int:
    """Run every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, timeout=600).returncode
    return status


def timed_passes(workload, reference, args, tally, clock, tracer=None) -> list[Pass]:
    """Repeat passes for args.seconds; with a tracer, every other pass is traced."""
    passes = []
    t_begin = perf_counter()
    i = 0
    while True:
        use = tracer if tracer is not None and i % 2 == 0 else None
        i += 1
        res = one_pass(workload, reference, args.seed, tally, clock, use)
        if res is not None:
            passes.append(res)
        n_traced = sum(p.stats is not None for p in passes)
        n_plain = len(passes) - n_traced
        enough = (n_plain >= 1 and n_traced >= MIN_PASSES) if tracer else n_plain >= MIN_PASSES
        elapsed = perf_counter() - t_begin
        predicted = elapsed + (statistics.median(p.wall for p in passes) if passes else 0.0)
        # failing passes end the phase once the time is up
        if predicted > args.seconds and (enough or i >= 2 * MIN_PASSES + 1):
            return passes


def layer_metrics(setup: Pass, traced: list[Pass], overhead_pct: float) -> dict:
    """Per-layer metrics over one set-up plus one traced pass.

    Counts come from the first traced pass (every traced pass must repeat
    them exactly); times are in seconds at the reference speed, the median
    over traced passes.
    """
    from layers import SpanStats

    empty = SpanStats()
    first = traced[0].stats

    def calls(span):
        return setup.stats.get(span, empty).calls + first.get(span, empty).calls

    def seconds(span, attr):
        per_pass = statistics.median(getattr(p.stats.get(span, empty), attr) * p.scale
                                     for p in traced)
        return getattr(setup.stats.get(span, empty), attr) * setup.scale + per_pass

    def p50(span):
        d = [x * p.scale for p in (setup, *traced) for x in p.stats.get(span, empty).durations]
        return statistics.median(d) if d else 0.0

    def work(span):
        return setup.stats.get(span, empty).work + first.get(span, empty).work

    oracles = calls("kernels.oracle_init")
    special = {
        "spectral.transform_mpts":
            (work("spectral.evaluate") + work("spectral.forward_transform")) / 1e6,
        "kernels.oracles": oracles,
        "kernels.points_per_oracle":
            sum(calls(f"kernels.velocity.{r}") for r in REGIONS) / oracles if oracles else 0.0,
        "bench.tracing_overhead_pct": overhead_pct,
    }
    statistic = {
        "calls": calls,
        "ms": lambda span: 1e3 * seconds(span, "total_s"),
        "self_ms": lambda span: 1e3 * seconds(span, "self_s"),
        "p50_us": lambda span: 1e6 * p50(span),
        "p50_ms": lambda span: 1e3 * p50(span),
        "bytes": work,
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in special:
            value = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = statistic[stat](span)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def count_checks(workload, traced: list[Pass]) -> dict:
    """Counts that must repeat across traced passes and match closed forms."""
    counts = [{n: s.calls for n, s in sorted(p.stats.items())} for p in traced]
    expected = workload.closed_form(traced[0].summary)
    mismatched = {n: {"expected": v, "counted": counts[0].get(n, 0)}
                  for n, v in expected.items() if counts[0].get(n, 0) != v}
    return {"repeat": all(c == counts[0] for c in counts), "closed_form_mismatch": mismatched,
            "closed_form_checked": sorted(expected), "counts": counts[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # both settings are read at start-up, so restart this process with them
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, **PINNED_ENV})
    if args.workload == "all":
        return run_all(args)
    import_package()
    from workloads import WORKLOADS

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work_dir, args.seed)
    if not (args.trace or args.child):
        return orchestrate(args, workload)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def orchestrate(args, workload) -> int:
    """End-to-end metrics from PROCESSES measuring processes run in turn."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / PROCESSES),
           "--reference", args.reference, "--child"]
    attempted = failed = 0
    children = []
    for _ in range(PROCESSES):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=170, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            attempted += 1
            failed += 1
            print("FAILED measuring process", file=sys.stderr)
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        children.append(child)
    if not children:
        print("error: no measuring process completed", file=sys.stderr)
        return 1

    def seconds(records):
        return statistics.median(wall * scale for wall, scale in records)

    passes = [p for c in children for p in c["passes"]]
    setups = [c["setup"] for c in children]
    metrics = {
        "setup_s": seconds(setups),
        "wall_s": seconds(passes),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print("env " + json.dumps(environment(args, workload)))
    line = " | ".join(f"{k} {m['value']:.4f} {m['unit']}" for k, m in metrics.items())
    if workload.name == "simulate_n256":
        line += f" | steps_per_s {children[0]['steps'] / metrics['wall_s']['value']:.4f} 1/s"
    line += (f" | error_rate {failed / attempted:.4g} ({failed} of {attempted} operations failed)"
             f" | passes {len(passes)} in {len(children)} processes"
             f" | raw setup_s {statistics.median(w for w, _ in setups):.4f} s"
             f" | raw wall_s {statistics.median(w for w, _ in passes):.4f} s"
             f" | reference speed {statistics.median(s for _, s in passes):.4f}")
    print(f"result {workload.name}: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(args, workload) -> int:
    """One measuring process: set-up, warm-up, timed passes, in this process.

    With --trace 1 it prints the per-layer result.  As a child of
    orchestrate() it prints its raw timings for the parent to pool.
    """
    from layers import Tracer

    reference = json.loads(Path(args.reference).read_text())[workload.name]
    tally = Tally()
    tracer = Tracer() if args.trace else None
    clock = Clock() if tracer else None
    scale = clock.scale() if tracer else None
    if tracer:
        tracer.install()
    t0 = perf_counter()
    try:
        workload.setup()
        if not tracer:
            workload.warm_up()
    except Exception:
        traceback.print_exc()
        tally.fail(1, "set-up raised")
        return 1
    finally:
        if tracer:
            tracer.uninstall()
    tally.attempted += 1
    if tracer:
        setup = Pass(perf_counter() - t0, scale, {}, tracer.take())
    else:
        setup_wall = perf_counter() - T_START
        clock = Clock()
        setup = Pass(setup_wall, clock.scale(), {})
    one_pass(workload, reference, args.seed, tally, clock)          # warm-up, untimed
    passes = timed_passes(workload, reference, args, tally, clock, tracer)
    plain = [p for p in passes if p.stats is None]
    traced = [p for p in passes if p.stats is not None]
    if not plain or (tracer and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if not tracer:
        print(json.dumps({
            "setup": [setup.wall, setup.scale],
            "passes": [[p.wall, p.scale] for p in plain],
            "steps": plain[0].summary.get("steps"),
            "attempted": tally.attempted, "failed": tally.failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }))
        return 0

    def median(items):
        return statistics.median(p.seconds for p in items)

    print("env " + json.dumps(environment(args, workload)))
    metrics = layer_metrics(setup, traced, 100.0 * (median(traced) / median(plain) - 1.0))
    counts = count_checks(workload, traced)
    tally.checks([("traced counts repeat", counts["repeat"],
                   "per-pass counts differ between traced passes")])
    print("counts " + json.dumps(counts))
    for name, m in metrics.items():
        print(f"layer {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
