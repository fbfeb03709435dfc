"""Per-layer spans recorded from outside the package.

The tracer replaces public functions and methods of ``msqglab`` with timing
wrappers.  A function imported by name into another module (``from .spectral
import forward_transform``) is a separate binding there, so ``install`` scans
every loaded module, the benchmark's own included, and wraps each binding of
each target.
``uninstall`` puts the originals back, so untraced passes run the package
unchanged.

Each span records its wall time and the time its child spans covered; the
difference is its self time.  Aggregates are kept in memory per span name:
calls, total seconds, self seconds, per-call durations and a work count
(grid points, bytes) where the layer has one.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    durations: list = field(default_factory=list)


def _grid_points(n_grid) -> float:
    return float(n_grid) ** 2


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


def _targets():
    """(owner, attribute, span name, work function) for every traced layer.

    A span name may be a function of the call arguments; the work function
    maps (args, result) to the layer's work count.
    """
    from msqglab import (evolution, initial_data, kernels, snapshots, spectral,
                         trajectories, verify)

    def region(args):
        return f"kernels.velocity.{args[2].kind}"

    out = [
        (spectral.MixedParityField, "evaluate", "spectral.evaluate",
         lambda a, r: _grid_points(a[1])),
        (spectral.MixedParityField, "evaluate_at", "spectral.evaluate_at", None),
        (spectral, "forward_transform", "spectral.forward_transform",
         lambda a, r: _grid_points(a[0].n_grid)),
        (spectral, "hessian_sup_norm", "spectral.hessian_sup_norm", None),
        (evolution, "step_rk4", "evolution.step_rk4", None),
        (evolution, "run", "evolution.run", None),
        (initial_data, "build_omega0", "initial_data.build_omega0", None),
        (initial_data, "check_degeneracy", "initial_data.check_degeneracy", None),
        (snapshots, "write_snapshot", "snapshots.write", lambda a, r: _file_bytes(a[0])),
        (snapshots, "read_snapshot", "snapshots.read", lambda a, r: _file_bytes(a[0])),
        (kernels.QuadratureOracle, "__init__", "kernels.oracle_init", None),
        (kernels.QuadratureOracle, "velocity", region, None),
        (trajectories, "trace", "trajectories.trace", None),
        (trajectories.VelocitySampler, "__call__", "trajectories.velocity", None),
        (trajectories, "medium_ratio_monitor", "trajectories.medium_ratio_monitor", None),
        (trajectories, "fit_gamma", "trajectories.fit_gamma", None),
    ]
    for name in ("kernel_asymptotics", "near_field", "medium_ratio", "far_field",
                 "background", "decomposition"):
        out.append((verify, f"verify_{name}", f"verify.{name}", None))
    return out


class Tracer:
    """Installs timing wrappers on the package's public layer functions."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, work):
        stats = self.stats
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = name(args) if callable(name) else name
                s = stats.get(key)
                if s is None:
                    s = stats[key] = SpanStats()
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - child[0]
                s.durations.append(dt)
            if work is not None:
                s.work += work(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, name, work in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, work)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> dict[str, SpanStats]:
        """Return the aggregates recorded so far and start afresh."""
        out = dict(self.stats)
        self.stats.clear()
        return out
