"""Velocity sampler, characteristic tracing, stopping rule, growth fit, start point."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from msqglab.kernels import KernelParams, QuadratureOracle, RegionSpec
from msqglab.spectral import (SineField, Term, _laplacian_power, evaluate_offgrid, evaluate_points,
                              velocity_coefficients)
from msqglab.trajectories import (TrajectoryState, VelocitySampler, fit_gamma, growth_fit,
                                  medium_ratio_monitor, select_start, stopping_time, trace,
                                  transport_defect)

ALPHA = 0.5
RNG = np.random.default_rng(5)


def _field(scale: float) -> SineField:
    n = 6
    decay = 1.0 / np.add.outer(np.arange(1, n + 1), np.arange(1, n + 1)) ** 2
    return SineField(scale * RNG.standard_normal((n, n)) * decay)


@pytest.fixture(scope="module")
def snapshots():
    # deliberately out of time order: the sampler sorts them
    return [(0.5, _field(2.0)), (0.0, _field(1.0)), (0.2, _field(0.5))]


def _spectral_velocity(field: SineField, x) -> np.ndarray:
    u1, u2 = velocity_coefficients(field, ALPHA)
    return np.array([u1.evaluate_at(np.asarray(x)), u2.evaluate_at(np.asarray(x))])


POINTS = [(0.3, 1.1), (2.2, 0.05), (1.5, 2.9)]


@pytest.mark.parametrize("x", POINTS)
def test_snapshot_times_match_spectral_velocity(snapshots, x):
    sampler = VelocitySampler(snapshots, ALPHA)
    for t, field in snapshots:
        np.testing.assert_allclose(sampler(x, t), _spectral_velocity(field, x),
                                   rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("x", POINTS)
def test_snapshot_times_equal_the_point_evaluator(snapshots, x):
    # at a snapshot's own time the blend weights are 1 and 0, so the sampler
    # returns that snapshot's terms of its stacked call bit for bit: -d2 psi
    # and d1 psi of psi = omega / (m^2+n^2)^(1-alpha), in the parities of
    # velocity_coefficients
    sampler = VelocitySampler(snapshots, ALPHA)
    for t, field in snapshots:
        u1c, u2c = velocity_coefficients(field, ALPHA)
        psi = field.coeffs / _laplacian_power(field.n_modes, ALPHA)
        terms = (Term(0, u1c.parity, (0, 1)), Term(0, u2c.parity, (1, 0)))
        d2, d1 = evaluate_points(psi[None], terms, x)
        np.testing.assert_array_equal(sampler(x, t), [-d2, d1])


@pytest.mark.parametrize("x", POINTS)
def test_linear_blend_between_snapshots(snapshots, x):
    sampler = VelocitySampler(snapshots, ALPHA)
    fields = dict(snapshots)
    u0, u2, u5 = (_spectral_velocity(fields[t], x) for t in (0.0, 0.2, 0.5))
    np.testing.assert_allclose(sampler(x, 0.1), 0.5 * u0 + 0.5 * u2, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sampler(x, 0.35), 0.5 * u2 + 0.5 * u5, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sampler(x, 0.44), 0.2 * u2 + 0.8 * u5, rtol=1e-12, atol=1e-14)


def test_clamps_outside_time_range(snapshots):
    sampler = VelocitySampler(snapshots, ALPHA)
    x = POINTS[0]
    np.testing.assert_array_equal(sampler(x, -3.0), sampler(x, 0.0))
    np.testing.assert_array_equal(sampler(x, 7.0), sampler(x, 0.5))
    fields = dict(snapshots)
    np.testing.assert_allclose(sampler(x, -3.0), _spectral_velocity(fields[0.0], x),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sampler(x, 7.0), _spectral_velocity(fields[0.5], x),
                               rtol=1e-12, atol=1e-14)


class TestSamplerAtWorkloadSize:
    """N = 128 with 3 snapshots, the size of a traced benchmark run."""

    N = 128
    TIMES = (0.0, 0.02, 0.05)

    @pytest.fixture(scope="class")
    def snaps(self):
        rng = np.random.default_rng(128)
        k = np.arange(1, self.N + 1)
        decay = 1.0 / np.add.outer(k, k) ** 2
        return [(t, SineField(rng.standard_normal((self.N, self.N)) * decay))
                for t in self.TIMES]

    def test_matches_blended_spectral_evaluation(self, snaps):
        sampler = VelocitySampler(snaps, ALPHA)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, np.pi, (40, 2))
        at = np.array([[u.evaluate_at(pts) for u in velocity_coefficients(f, ALPHA)]
                       for _, f in snaps])              # (snapshot, component, point)
        ts = np.asarray(self.TIMES)
        times = np.r_[rng.uniform(ts[0], ts[-1], 30), ts, -1.0, 0.5]
        for t in times:
            hi = int(np.clip(np.searchsorted(ts, t, side="right"), 1, len(ts) - 1))
            th = float(np.clip((t - ts[hi - 1]) / (ts[hi] - ts[hi - 1]), 0.0, 1.0))
            want = (1.0 - th) * at[hi - 1] + th * at[hi]
            got = np.array([sampler(x, t) for x in pts]).T
            # relative to each component's largest value over the points
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * scale).all(), t

    def test_holds_one_coefficient_array(self, snaps):
        sampler = VelocitySampler(snaps, ALPHA)
        k, n = len(snaps), self.N
        held = 0
        for value in vars(sampler).values():
            assert not isinstance(value, (list, tuple, dict))
            if isinstance(value, np.ndarray):
                assert value.base is None
                held += value.nbytes
        # K * n^2 stream-function coefficients plus the K times
        assert held == 8 * (k * n * n + k)


def test_transport_defect_is_the_largest_pointwise_defect(snapshots):
    # one evaluate_points call per snapshot gives the largest |omega(x_i) - omega0|
    # over the path, omega taken from the snapshot nearest to t_i
    traj = trace((0.3, 1.1), VelocitySampler(snapshots, ALPHA), 0.5, 0.01)
    times = np.array([t for t, _ in snapshots])
    want = max(abs(evaluate_offgrid(snapshots[int(np.argmin(np.abs(times - t)))][1], x) - 0.37)
               for t, x in zip(traj.times, traj.positions))
    assert transport_defect(traj, snapshots, 0.37) == pytest.approx(want, rel=1e-12)


def test_single_snapshot_is_constant_in_time():
    field = _field(1.0)
    sampler = VelocitySampler([(0.3, field)], ALPHA)
    x = POINTS[1]
    for t in (-1.0, 0.3, 4.0):
        np.testing.assert_array_equal(sampler(x, t), sampler(x, 0.3))


def test_no_snapshots_rejected():
    with pytest.raises(ValueError, match="no snapshots"):
        VelocitySampler([], ALPHA)


@pytest.mark.parametrize("time", [np.nan, np.inf], ids=["nan", "inf"])
def test_snapshot_time_not_finite_rejected(time):
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        VelocitySampler([(0.0, _field(1.0)), (time, _field(1.0))], ALPHA)


def test_snapshots_of_unequal_mode_counts_rejected():
    with pytest.raises(ValueError, match="one mode count"):
        VelocitySampler([(0.0, _field(1.0)), (0.1, SineField(np.zeros((8, 8))))], ALPHA)


@pytest.mark.parametrize("snaps", [1, 3], ids=["one-snapshot", "three-snapshots"])
def test_nan_time_rejected(snapshots, snaps):
    sampler = VelocitySampler(snapshots[:snaps], ALPHA)
    with pytest.raises(ValueError, match="t is NaN"):
        sampler(POINTS[0], np.nan)


def _five_call_trace(start, velocity_source, t_end, dt):
    """The RK4 loop that calls the source at (x, t) for k1 again: positions,
    velocities."""
    x = np.array(start, dtype=np.float64)
    pos, vel = [x.copy()], [np.asarray(velocity_source(x, 0.0), dtype=np.float64)]
    t = 0.0
    for _ in range(int(np.ceil(t_end / dt - 1e-12))):
        h = min(dt, t_end - t)
        k1 = np.asarray(velocity_source(x, t))
        k2 = np.asarray(velocity_source(x + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(velocity_source(x + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(velocity_source(x + h * k3, t + h))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        pos.append(x.copy())
        vel.append(np.asarray(velocity_source(x, t)))
        if x.min() < -1e-6 or x.max() > np.pi + 1e-6:
            break
    return np.array(pos), np.array(vel)


class CountingSource:
    """A smooth time-dependent velocity that counts its calls."""

    def __init__(self, push: float):
        self.calls = 0
        self.push = push

    def __call__(self, x, t):
        self.calls += 1
        return np.array([self.push - np.sin(x[0]) * np.cos(x[1]) * (1.0 + t),
                         np.cos(x[0]) * np.sin(x[1]) * (1.0 - 0.5 * t)])


class TestTrace:
    def test_fourth_order_in_steady_single_mode(self):
        sampler = VelocitySampler([(0.0, SineField.from_modes({(1, 1): 1.0}, 4))], ALPHA)
        start, t_end = (0.3, 0.2), 1.0
        ref = trace(start, sampler, t_end, t_end / 2048).positions[-1]
        err = [np.linalg.norm(trace(start, sampler, t_end, dt).positions[-1] - ref)
               for dt in (0.125, 0.0625)]
        assert 14.0 < err[0] / err[1] < 18.0

    def test_quadrant_exit_halts(self):
        def drift(x, t):
            return np.array([1.0, 0.0])

        traj = trace((3.0, 1.0), drift, 1.0, 0.05)
        assert traj.halted
        assert "left [0, pi)^2" in traj.halt_note
        # the step that crossed x1 = pi is the last one kept
        assert traj.positions[-1, 0] > np.pi > traj.positions[-2, 0]
        np.testing.assert_allclose(traj.times[-1], 0.15)
        assert len(traj.times) == len(traj.positions) == len(traj.velocities) == 4

    @pytest.mark.parametrize("push, halts", [(0.0, False), (4.0, True)])
    def test_four_calls_per_step_same_path(self, push, halts):
        # each step's first stage is the velocity recorded at the end of the
        # step before it, so an n-step path makes 4n + 1 calls and follows
        # the path of the loop that evaluates it again
        source = CountingSource(push)
        traj = trace((2.5, 0.7), source, 1.0, 0.05)
        steps = len(traj.times) - 1
        assert traj.halted is halts and (steps < 20) is halts
        assert source.calls == 4 * steps + 1
        pos, vel = _five_call_trace((2.5, 0.7), CountingSource(push), 1.0, 0.05)
        np.testing.assert_array_equal(traj.positions, pos)
        np.testing.assert_array_equal(traj.velocities, vel)

    def test_start_outside_quadrant_rejected(self):
        with pytest.raises(ValueError, match="open quadrant"):
            trace((0.0, 1.0), lambda x, t: np.zeros(2), 1.0, 0.1)

    @staticmethod
    def _random_snapshots():
        rng = np.random.default_rng(11)
        k = np.arange(1, 17)
        decay = 1.0 / np.add.outer(k, k) ** 2
        return [(t, SineField(rng.standard_normal((16, 16)) * decay)) for t in (0.0, 0.13, 0.3)]

    @pytest.mark.parametrize("snaps, start, t_end, dt", [
        (_random_snapshots(), (0.3, 0.4), 0.3, 0.007),
        (_random_snapshots(), (1.2, 2.7), 0.3, 0.007),
        (_random_snapshots(), (0.05, 0.08), 0.3, 0.007),
        ([(0.0, SineField.from_modes({(1, 1): 1.0}, 4))], (0.3, 0.2), 1.0, 1.0 / 96)],
        ids=["sampler-interior", "sampler-upper", "sampler-near-origin", "single-mode"])
    def test_same_bits_as_the_vector_loop(self, snaps, start, t_end, dt):
        # the float loop adds and scales in the order of the 2-vector
        # formula, so through a sampler that blends random snapshots, and
        # through a steady single mode, it gives the vector loop's positions
        # and velocities bit for bit
        sampler = VelocitySampler(snaps, ALPHA)
        traj = trace(start, sampler, t_end, dt)
        pos, vel = _five_call_trace(start, sampler, t_end, dt)
        assert len(traj.times) == len(pos) > 40
        for got, want in ((traj.positions, pos), (traj.velocities, vel)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("t_end, dt, name", [
        (1.0, np.nan, "dt"), (np.nan, 0.1, "t_end"), (np.inf, 0.1, "t_end"),
        (1.0, np.inf, "dt"), (1.0, -np.inf, "dt"), (1.0, 0.0, "dt"), (-1.0, 0.1, "t_end")],
        ids=["nan-dt", "nan-t_end", "inf-t_end", "inf-dt", "-inf-dt", "zero-dt", "negative-t_end"])
    def test_bad_step_or_horizon_rejected(self, t_end, dt, name):
        source = CountingSource(0.0)
        with pytest.raises(ValueError, match=name):
            trace((0.3, 0.4), source, t_end, dt)
        assert source.calls == 0

    @pytest.mark.parametrize("start", [(0.3,), (0.3, 0.4, 0.5), 0.3, "ab", [[0.3, 0.4]]],
                             ids=["one", "three", "scalar", "text", "nested"])
    def test_start_not_a_pair_rejected(self, start):
        with pytest.raises(ValueError, match="start must be a pair"):
            trace(start, lambda x, t: np.zeros(2), 1.0, 0.1)


def _path(x2_values):
    n = len(x2_values)
    return TrajectoryState(start=(0.1, x2_values[0]), times=np.linspace(0.0, 1.0, n),
                           positions=np.column_stack([np.full(n, 0.1), x2_values]),
                           velocities=np.zeros((n, 2)), ratios=np.full(n, np.nan))


class TestMediumRatioMonitor:
    L = 8.0
    PARAMS = KernelParams(alpha=ALPHA, cells_panel=32)

    @staticmethod
    def _arc(n=41):
        # |x| = 0.06, so L|x| = 0.48 and every sample has the same three frames
        angle = np.linspace(0.4, 1.1, n)
        pos = 0.06 * np.column_stack([np.cos(angle), np.sin(angle)])
        return TrajectoryState(start=tuple(pos[0]), times=np.linspace(0.0, 1.0, n),
                               positions=pos, velocities=np.zeros((n, 2)),
                               ratios=np.full(n, np.nan))

    @staticmethod
    def _snapshots(k):
        return [(t, _field(1.0 + t)) for t in np.linspace(0.0, 1.0, k)]

    def test_ratios_from_the_nearest_snapshot(self):
        path, snaps = self._arc(), self._snapshots(6)
        got = medium_ratio_monitor(path, snaps, ALPHA, self.L, self.PARAMS, every=4).ratios
        times = np.array([t for t, _ in snaps])
        for i in range(len(path.times)):
            if i % 4:
                assert np.isnan(got[i])
                continue
            x = path.positions[i]
            field = snaps[int(np.argmin(np.abs(times - path.times[i])))][1]
            u1, u2 = QuadratureOracle(field, self.PARAMS).velocity(x, RegionSpec("medium", self.L))
            assert got[i] == -u1 * x[1] / (x[0] * u2)

    def test_peak_memory_does_not_grow_with_snapshots(self):
        path = self._arc()

        def peak(k):
            snaps = self._snapshots(k)
            tracemalloc.start()
            try:
                medium_ratio_monitor(path, snaps, ALPHA, self.L, self.PARAMS, every=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)                     # fills numpy's and Python's caches
        # Python's free lists of small objects may hold a few hundred bytes
        # more or less
        assert peak(6) <= peak(2) + 1024
        # the oracle's scratch is sized to its grids (a frame's largest
        # block is 4 x 16 x 32 entries), not 3 x 65,536 floats as for a
        # CLI-default central cell; the peak is about 0.18 MB
        assert peak(6) < 256 * 1024

    def test_params_at_another_alpha_rejected(self):
        with pytest.raises(ValueError, match="disagrees with alpha"):
            medium_ratio_monitor(self._arc(), self._snapshots(2), 0.25, self.L, self.PARAMS)

    @pytest.mark.parametrize("every", [0, -1])
    def test_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="every must be >= 1"):
            medium_ratio_monitor(self._arc(), self._snapshots(2), ALPHA, self.L, self.PARAMS,
                                 every=every)


class TestStoppingTime:
    HESS_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    HESS = np.array([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_horizon(self):
        path = _path(np.linspace(0.01, 0.05, 5))
        assert stopping_time(path, self.HESS_T, self.HESS, 1.0, 0.1, 100.0) == (1.0, "horizon")

    def test_x2_reaches_x10(self):
        path = _path(np.array([0.01, 0.05, 0.1, 0.2, 0.3]))
        assert stopping_time(path, self.HESS_T, self.HESS, 1.0, 0.1, 100.0) == (
            0.5, "x2_reaches_x10")

    def test_hessian_threshold(self):
        path = _path(np.array([0.01, 0.05, 0.1, 0.2, 0.3]))
        # both trigger at t = 0.5: the tie goes to x2
        assert stopping_time(path, self.HESS_T, self.HESS, 1.0, 0.1, 3.0) == (
            0.5, "x2_reaches_x10")
        assert stopping_time(path, self.HESS_T, self.HESS, 1.0, 0.1, 2.0) == (
            0.25, "hessian_threshold")


class TestFitGamma:
    def test_recovers_exponential_rate(self):
        t = np.linspace(0.0, 2.0, 41)
        rec = fit_gamma(t, 3.0 * np.exp(1.7 * t))
        assert rec.fitted_gamma == pytest.approx(1.7, rel=1e-12)
        assert rec.fit_r2 == pytest.approx(1.0, abs=1e-12)
        # the default window drops the first tenth of the series
        assert rec.fit_window == pytest.approx((0.2, 2.0))
        assert rec.times[0] == pytest.approx(0.2)

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 2.0, 41)
        with pytest.raises(ValueError, match="samples in fit window"):
            fit_gamma(t, np.exp(t), window=(1.0, 1.4))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_gamma(np.arange(12.0), np.r_[np.ones(11), 0.0])

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_gamma(np.full(12, 0.5), np.arange(1.0, 13.0), window=(0.0, 1.0))

    def test_slope_within_an_ulp_of_the_exact_one(self):
        t = np.sort(np.random.default_rng(21).uniform(0.0, 1.0, 17))
        y = np.exp(np.random.default_rng(22).normal(2.0 * t, 0.1))
        ts, ls = [Fraction(v) for v in t], [Fraction(v) for v in np.log(y)]
        tm, lm = sum(ts) / len(ts), sum(ls) / len(ls)
        exact = (sum((a - tm) * (b - lm) for a, b in zip(ts, ls))
                 / sum((a - tm) ** 2 for a in ts))
        gamma = fit_gamma(t, y, window=(0.0, 1.0)).fitted_gamma
        assert abs(gamma - float(exact)) <= np.spacing(abs(float(exact)))


class TestGrowthFit:
    def test_short_record_not_fit(self):
        notes = []
        assert growth_fit(np.arange(9.0), np.ones(9), notes) == (None, None)
        assert notes == []

    def test_rejected_fit_noted(self):
        notes = []
        assert growth_fit(np.arange(12.0), np.r_[np.ones(11), 0.0], notes) == (None, None)
        assert notes == ["growth fit skipped: growth fit requires strictly positive values"]

    def test_fit(self):
        t = np.linspace(0.0, 2.0, 41)
        rec = fit_gamma(t, 3.0 * np.exp(1.7 * t))
        notes = []
        assert growth_fit(t, 3.0 * np.exp(1.7 * t), notes) == (rec.fitted_gamma, rec.fit_r2)
        assert notes == []


class TestSelectStart:
    def test_asymptotic_point_above_floor(self):
        sp = select_start(1.0, 0.25, 0.5, 1.0, 1e-3)
        x1 = np.exp(-1.0 * 0.25 ** -0.25)
        assert sp.point == pytest.approx((x1, x1))
        assert not sp.scaled_regime and sp.note == ""

    def test_clamped_to_grid_floor(self):
        sp = select_start(10.0, 0.25, 0.5, 5.0, 0.05)
        assert sp.scaled_regime
        assert sp.x1 == 0.05 and sp.x2 == pytest.approx(0.05 ** 5)
        assert "below the grid floor" in sp.note
        # x2 sits below the floor as well: flagged, not clamped
        assert "flagged, not clamped" in sp.note

    def test_only_x2_below_floor(self):
        sp = select_start(1.0, 0.25, 0.5, 5.0, 1e-3)
        assert not sp.scaled_regime
        assert sp.note.startswith("x2=") and "flagged, not clamped" in sp.note
