"""Time stepping: tendency correctness, conservation, halts, cadences."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from msqglab import evolution
from msqglab.evolution import (ExperimentConfig, SimState, _Rhs, _Rk4Workspace, cfl_dt,
                               nonlinear_term, read_run_dir, run, step_rk4)
from msqglab.initial_data import InitialDataSpec, build_omega0
from msqglab.snapshots import read_snapshot, write_snapshot
from msqglab.spectral import (GridMax, SineField, Term, _max_abs, dealias_grid,
                              velocity_coefficients)


def make_config(**kw):
    base = dict(alpha=0.5, n_modes=16, n_grid=32, t_final=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            make_config(alpha=1.0)
        make_config(alpha=0.0)   # Euler limit allowed

    def test_grid_margin(self):
        with pytest.raises(ValueError, match="n_grid"):
            make_config(n_grid=30)

    def test_cfl_safety(self):
        with pytest.raises(ValueError, match="safety"):
            make_config(cfl_safety=0.7)

    def test_fixed_needs_dt(self):
        with pytest.raises(ValueError, match="dt"):
            make_config(dt_policy="fixed", dt=0.0)


class TestNonlinearTerm:
    def test_zero_field(self):
        t = nonlinear_term(SineField.zeros(8), 0.5, 16)
        assert np.abs(t.coeffs).max() == 0.0

    def test_single_mode_stationary(self):
        # psi is proportional to omega, so u . grad omega vanishes pointwise
        om = SineField.from_modes({(1, 1): 1.0}, 8)
        t = nonlinear_term(om, 0.5, 16)
        assert np.abs(t.coeffs).max() < 1e-15

    def test_two_mode_against_symbolic_jacobian(self):
        # independent oracle: expand -(u . grad) omega with sympy into plane
        # waves cos(p x + q y) by product-to-sum rules; since
        # sin(p x) sin(q y) = (cos(p x - q y) - cos(p x + q y)) / 2, the
        # sine coefficient a[p, q] is C[cos(p x - q y)] - C[cos(p x + q y)]
        import sympy as sp
        from sympy.simplify.fu import TR8

        alpha = 0.5
        x, y = sp.symbols("x y", real=True)
        a1 = sp.Rational(2) ** sp.Rational(-1, 2)   # (m^2+n^2)^(alpha-1), (1,1)
        a2 = sp.Integer(5) ** sp.Rational(-1, 2)    # (2,1) mode
        omega = sp.sin(x) * sp.sin(y) + sp.sin(2 * x) * sp.sin(y)
        psi = a1 * sp.sin(x) * sp.sin(y) + a2 * sp.sin(2 * x) * sp.sin(y)
        u1 = -sp.diff(psi, y)
        u2 = sp.diff(psi, x)
        tend = sp.expand(-(u1 * sp.diff(omega, x) + u2 * sp.diff(omega, y)))
        waves = sp.expand(TR8(tend))

        n = 6
        expect = np.zeros((n, n))
        for term in sp.Add.make_args(waves):
            amp, wave = term.as_independent(x, y)
            assert wave.func == sp.cos, term       # nothing outside sin x sin
            arg = wave.args[0]
            p, q = int(arg.coeff(x)), int(arg.coeff(y))
            assert sp.expand(arg - p * x - q * y) == 0, term
            if p < 0:                              # cos is even
                p, q = -p, -q
            assert p >= 1 and q != 0, term
            if p <= n and abs(q) <= n:
                expect[p - 1, abs(q) - 1] += float(amp) if q < 0 else -float(amp)
        assert np.abs(expect).max() > 0.05

        om = SineField.from_modes({(1, 1): 1.0, (2, 1): 1.0}, n)
        got = nonlinear_term(om, alpha, 16)
        np.testing.assert_allclose(got.coeffs, expect, atol=1e-12)


def _is_5_smooth(k):
    for f in (2, 3, 5):
        while k % f == 0:
            k //= f
    return k == 1


class TestDealiasGrid:
    @pytest.mark.parametrize("n_modes", [4, 8, 13, 64, 256])
    def test_smallest_fast_size_above_three_halves(self, n_modes):
        m = dealias_grid(n_modes)
        assert 2 * m > 3 * n_modes
        assert m <= 2 * n_modes
        assert _is_5_smooth(2 * m)
        assert not any(_is_5_smooth(2 * k) for k in range(3 * n_modes // 2 + 1, m))

    @pytest.mark.parametrize("n_modes", [13, 64, 256])
    def test_band_equals_double_grid(self, n_modes):
        # every product mode <= 2N is resolved or aliases outside the band
        rng = np.random.default_rng(n_modes)
        om = SineField(rng.normal(size=(n_modes, n_modes)))
        ref = nonlinear_term(om, 0.5, 2 * n_modes).coeffs
        got = nonlinear_term(om, 0.5, dealias_grid(n_modes)).coeffs
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n_modes", [13, 16])
    def test_three_halves_bound_is_sharp(self, n_modes):
        # at M = floor(3N/2), product mode 2N - j aliases onto band mode 2M - 2N + j
        rng = np.random.default_rng(n_modes)
        om = SineField(rng.normal(size=(n_modes, n_modes)))
        m = 3 * n_modes // 2
        with pytest.raises(ValueError, match="aliases"):
            nonlinear_term(om, 0.5, m)
        ref = nonlinear_term(om, 0.5, 2 * n_modes).coeffs
        aliased = _Rhs(0.5, n_modes, m)(om.coeffs)
        assert np.abs(aliased - ref).max() > 1e-8 * np.abs(ref).max()

    def test_step_matches_rk4_on_double_grid(self):
        rng = np.random.default_rng(7)
        om = SineField(rng.normal(size=(12, 12)))
        cfg = make_config(n_modes=12, n_grid=24)

        def f(c):
            return nonlinear_term(SineField(c), cfg.alpha, 24, preserve_degeneracy=True).coeffs

        dt, c = 1e-3, om.coeffs
        k1 = f(c)
        k2 = f(c + 0.5 * dt * k1)
        k3 = f(c + 0.5 * dt * k2)
        k4 = f(c + dt * k3)
        expect = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = step_rk4(SimState(om, 0.0, 0, cfg), dt).omega.coeffs
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def midpoint_tendency(coeffs, alpha, n_mid, preserve_degeneracy):
    """Independent oracle: the tendency by direct summation at the midpoints pi*(j+1/2)/M.

    Explicit sine/cosine matrices evaluate velocity and gradient; the
    product is projected by the discrete orthogonality
    sum_j sin(k x_j) sin(l x_j) = (M/2) delta_kl, 1 <= k, l < M.
    """
    n = coeffs.shape[0]
    k = np.arange(1, n + 1, dtype=np.float64)
    x = np.pi * (np.arange(n_mid) + 0.5) / n_mid
    s, c = np.sin(np.outer(x, k)), np.cos(np.outer(x, k))      # (M, N)
    psi = coeffs / (k[:, None] ** 2 + k[None, :] ** 2) ** (1.0 - alpha)
    u1 = s @ (-psi * k[None, :]) @ c.T
    u2 = c @ (psi * k[:, None]) @ s.T
    w1 = c @ (coeffs * k[:, None]) @ s.T
    w2 = s @ (coeffs * k[None, :]) @ c.T
    tend = -(2.0 / n_mid) ** 2 * (s.T @ (u1 * w1 + u2 * w2) @ s)
    if preserve_degeneracy:
        tend = tend - np.outer(k, k @ tend) / float(np.sum(k * k))
    return tend


class TestRhsWorkspace:
    @pytest.mark.parametrize("n_modes", [13, 64])
    @pytest.mark.parametrize("preserve_degeneracy", [False, True])
    def test_reused_buffers_match_stacked_evaluation(self, n_modes, preserve_degeneracy):
        # the stacked-pair workspace, reused A, B, A, against direct summation
        rng = np.random.default_rng(n_modes)
        a, b = rng.normal(size=(2, n_modes, n_modes))
        m = dealias_grid(n_modes)
        rhs = _Rhs(0.5, n_modes, m, preserve_degeneracy)
        first, second, again = rhs(a), rhs(b), rhs(a)
        np.testing.assert_array_equal(again, first)
        for got, c in ((first, a), (second, b)):
            ref = midpoint_tendency(c, 0.5, m, preserve_degeneracy)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        out = np.empty((n_modes, n_modes))
        assert rhs(b, out=out) is out
        np.testing.assert_array_equal(out, second)

    @pytest.mark.parametrize("n_mid", [10, 12])
    def test_grid_is_staggered(self, n_mid):
        # at M <= 3N/2 the product aliases, so only the midpoint sum itself,
        # not the exact band or a sum on another point set, matches
        rng = np.random.default_rng(n_mid)
        c = rng.normal(size=(8, 8))
        ref = midpoint_tendency(c, 0.3, n_mid, False)
        got = _Rhs(0.3, 8, n_mid)(c)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_nonfinite_input_rejected(self):
        c = np.zeros((8, 8))
        c[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _Rhs(0.5, 8, dealias_grid(8))(c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coefficient_reaches_the_product_test(self, bad):
        # the tendency tests its advection product only: the transforms
        # carry one bad coefficient to all M^2 = 15^2 nodes
        c = np.random.default_rng(4).normal(size=(8, 8))
        c[2, 3] = bad
        with pytest.raises(ValueError, match="advection product contains 225 non-finite"):
            _Rhs(0.5, 8, dealias_grid(8))(c)


class TestStepRK4:
    def test_in_place_sums_match_expression(self):
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=32, n_grid=80))
        cfg = make_config(n_modes=32, n_grid=64)
        rhs = _Rhs(cfg.alpha, 32, dealias_grid(32), True)
        dt, c = 2e-3, om.coeffs
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        expect = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = step_rk4(SimState(om, 0.0, 0, cfg), dt).omega.coeffs
        np.testing.assert_array_equal(got, expect)

    def test_stationary_fixed_point(self):
        om = SineField.from_modes({(1, 1): 1.0}, 8)
        st = SimState(om, 0.0, 0, make_config(n_modes=8, n_grid=16))
        for _ in range(100):
            st = step_rk4(st, 0.01)
        assert np.abs(st.omega.coeffs - om.coeffs).max() < 1e-12
        assert st.time == pytest.approx(1.0)
        assert st.step_count == 100

    def test_fourth_order_convergence(self):
        om = SineField.from_modes({(1, 1): 1.0, (2, 1): 0.5, (1, 3): 0.2}, 12)
        cfg = make_config(n_modes=12, n_grid=24)
        base = SimState(om, 0.0, 0, cfg)

        def advance(dt, n):
            st = base
            for _ in range(n):
                st = step_rk4(st, dt)
            return st.omega.coeffs

        h = 0.1
        ref = advance(h / 8, 8)
        err_h = np.abs(advance(h, 1) - ref).max()
        err_h2 = np.abs(advance(h / 2, 2) - ref).max()
        assert err_h / err_h2 > 12.0    # 4th order gives ~16

    def test_band_stays_sine(self):
        om = SineField.from_modes({(1, 2): 1.0, (3, 1): -0.3}, 8)
        st = step_rk4(SimState(om, 0.0, 0, make_config(n_modes=8, n_grid=16)), 0.02)
        assert st.omega.coeffs.shape == (8, 8)
        assert np.isfinite(st.omega.coeffs).all()

    def test_bad_dt(self):
        st = SimState(SineField.zeros(8), 0.0, 0, make_config(n_modes=8, n_grid=16))
        with pytest.raises(ValueError, match="dt"):
            step_rk4(st, -0.1)
        with pytest.raises(ValueError, match="dt"):
            step_rk4(st, float("nan"))


class TestRk4Workspace:
    @staticmethod
    def plateau_state(preserve_degeneracy=True, workspace=None):
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=32, n_grid=80))
        cfg = make_config(n_modes=32, n_grid=64, preserve_degeneracy=preserve_degeneracy)
        return SimState(om, 0.0, 0, cfg, workspace)

    @pytest.mark.parametrize("preserve_degeneracy", [False, True])
    def test_held_workspace_matches_fresh_steps(self, preserve_degeneracy):
        ws = _Rk4Workspace(0.5, 32, 64, preserve_degeneracy)
        held = self.plateau_state(preserve_degeneracy, ws)
        fresh = self.plateau_state(preserve_degeneracy)
        for dt in (2e-3, 1e-3, 3e-3):
            held, fresh = step_rk4(held, dt), step_rk4(fresh, dt)
            np.testing.assert_array_equal(held.omega.coeffs, fresh.omega.coeffs)
        assert held.workspace is ws
        assert fresh.workspace is None

    def test_workspace_reusable_after_raised_step(self):
        ws = _Rk4Workspace(0.5, 32, 64, True)
        wild = SimState(SineField(np.full((32, 32), 1e200)), 0.0, 0,
                        make_config(n_modes=32, n_grid=64), ws)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            step_rk4(wild, 1e-3)
        after = step_rk4(self.plateau_state(workspace=ws), 2e-3)
        fresh = step_rk4(self.plateau_state(), 2e-3)
        np.testing.assert_array_equal(after.omega.coeffs, fresh.omega.coeffs)

    def test_mismatched_workspace_rejected(self):
        with pytest.raises(ValueError, match="workspace"):
            step_rk4(self.plateau_state(workspace=_Rk4Workspace(0.3, 32, 64, True)), 1e-3)
        with pytest.raises(ValueError, match="workspace"):
            step_rk4(self.plateau_state(workspace=_Rk4Workspace(0.5, 32, 64, False)), 1e-3)

    # (N, Ng): GridMax's share of the scratch is the larger at (9, 64), the
    # tendency's at (16, 32)
    @pytest.mark.parametrize("n_modes, n_grid", [(9, 64), (16, 32)])
    def test_grid_max_shares_the_scratch(self, n_modes, n_grid):
        ws = _Rk4Workspace(0.5, n_modes, n_grid, True)
        assert np.shares_memory(ws.grid_max._grid, ws.rhs._grids)
        rng = np.random.default_rng(n_modes)
        fresh_rhs, fresh_max = _Rhs(0.5, n_modes, dealias_grid(n_modes), True), \
            GridMax(n_modes, n_grid)
        for parity in (("sin", "sin"), ("sin", "cos"), ("cos", "sin"), ("cos", "cos")):
            for _ in range(2):      # tendency, max, tendency, max
                c = rng.normal(size=(n_modes, n_modes))
                np.testing.assert_array_equal(ws.rhs(c), fresh_rhs(c))
                c = rng.normal(size=(n_modes, n_modes))
                terms = [Term(0, parity, (1, 1))]
                assert ws.grid_max(c[None], terms) == fresh_max(c[None], terms)


class TestTimeErrorPins:
    """N=32, the delta=0.35 plateau, fixed dt, to T=0.25: pins that see the
    RK4 error alone, each at dt = 1/64 and 1/128."""

    DTS = (1.0 / 64, 1.0 / 128)

    @pytest.fixture(scope="class")
    def omega0(self):
        return build_omega0(InitialDataSpec(delta=0.35, n_modes=32, n_grid=80))

    @staticmethod
    def advance(omega, dt, preserve_degeneracy=True):
        cfg = make_config(n_modes=32, n_grid=64, t_final=0.25, dt_policy="fixed", dt=dt,
                          diag_every=1000, snapshot_every=1000,
                          preserve_degeneracy=preserve_degeneracy)
        res = run(cfg, omega)
        assert res.halt_reason == "horizon" and res.state.step_count == round(0.25 / dt)
        return res.state.omega.coeffs

    def test_time_reversal(self, omega0):
        # the tendency is quadratic, so even in the coefficients, and the
        # degeneracy projection is linear: if a(t) solves the truncated
        # system, so does -a(T - t).  To T, negated, to T again and negated
        # returns a(0) up to the time stepper, and any part of a step that is
        # not even in the coefficients would leave a defect that does not
        # fall like dt^4.  Measured: 3.3e-6 and 1.06e-7 (ratio 31)
        defects = []
        for dt in self.DTS:
            back = -self.advance(SineField(-self.advance(omega0, dt)), dt)
            defects.append(np.linalg.norm(back - omega0.coeffs) / np.linalg.norm(omega0.coeffs))
        assert defects[0] / defects[1] >= 16
        assert defects[1] <= 1e-6

    def test_second_quadratic_invariant(self, omega0):
        # H = sum a^2 / (m^2 + n^2)^(1 - alpha), the pairing of omega with
        # its stream function, is kept by the alias-free Galerkin tendency,
        # so without the degeneracy projection it drifts by the RK4 error
        # only.  Measured: 5.4e-10 and 1.7e-11 relative (ratio 31); with the
        # projection it drifts by 2.9e-5 at either dt
        m = np.arange(1, 33)
        weight = np.add.outer(m * m, m * m) ** -0.5

        def energy(c):
            return float(np.sum(weight * c * c))

        h0 = energy(omega0.coeffs)
        drifts = [abs(energy(self.advance(omega0, dt, False)) - h0) / h0 for dt in self.DTS]
        assert drifts[0] / drifts[1] >= 16
        assert drifts[1] <= 1e-10


def grid_speed(omega, alpha, n_grid):
    """max |u| on the grid through MixedParityField.evaluate, apart from run()'s held buffers."""
    u1, u2 = velocity_coefficients(omega, alpha)
    return np.maximum(_max_abs(u1.evaluate(n_grid).values), _max_abs(u2.evaluate(n_grid).values))


class TestCflDt:
    def test_zero_velocity(self):
        assert cfl_dt(0.0, 16, 0.4, dt_max=0.05) == 0.05

    def test_grid_scaling(self):
        om = SineField.from_modes({(1, 1): 1.0}, 8)
        # the raw steps (0.111, 0.0555) lie above the default dt_max=0.05 clip
        assert cfl_dt(grid_speed(om, 0.5, 32), 32, 0.4, dt_max=1.0) == pytest.approx(
            cfl_dt(grid_speed(om, 0.5, 16), 16, 0.4, dt_max=1.0) / 2, rel=0.05)

    def test_plateau_data_positive(self):
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=64, n_grid=144))
        dt = cfl_dt(grid_speed(om, 0.5, 144), 144, 0.4)
        assert 0 < dt < 0.05

    @pytest.mark.parametrize("component", [0, 1])
    def test_nan_velocity_gives_nan_step(self, component):
        # GridMax combines the two component maxima with np.maximum, which keeps a NaN
        maxima = [1.0, 1.0]
        maxima[component] = math.nan
        assert math.isnan(cfl_dt(np.maximum(*maxima), 8, 0.4))
        assert math.isnan(cfl_dt(math.nan, 8, 0.4))

    def test_run_steps_are_cfl_steps(self, tmp_path):
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=32, n_grid=80))
        res = run(make_config(n_modes=32, n_grid=80, t_final=0.05, diag_every=1,
                              snapshot_every=1, out_dir=str(tmp_path)), om)
        assert len(res.snapshots) == len(res.diagnostics) > 4
        # every step but the last, which is clipped to t_final; the snapshot
        # files hold the fields before each step
        for (time, path), rec in zip(res.snapshots[:-2], res.diagnostics[1:-1]):
            before, header = read_snapshot(path)
            assert path.parent == tmp_path and header["time"] == time
            assert rec.dt == cfl_dt(grid_speed(before, 0.5, 80), 80, 0.4)

    def test_safety_validated(self):
        with pytest.raises(ValueError, match="safety"):
            cfl_dt(0.0, 8, 0.6)
        with pytest.raises(ValueError, match="safety"):
            cfl_dt(1.0, 8, 0.0)


class TestRun:
    def test_horizon_zero(self):
        res = run(make_config(t_final=0.0), SineField.from_modes({(1, 1): 1.0}, 16))
        assert res.halt_reason == "horizon"
        assert len(res.diagnostics) == 1
        assert res.diagnostics[0].time == 0.0
        assert len(res.snapshots) == 1

    def test_stationary_flat_diagnostics(self):
        res = run(make_config(t_final=2.0, n_modes=8, n_grid=16, diag_every=2),
                  SineField.from_modes({(1, 1): 1.0}, 8))
        assert res.halt_reason == "horizon"
        hess = [d.hessian_sup for d in res.diagnostics]
        assert max(hess) - min(hess) < 1e-10
        l2 = [d.l2_norm for d in res.diagnostics]
        assert max(l2) - min(l2) < 1e-12
        assert res.state.time == pytest.approx(2.0)

    def test_conservation_short_plateau_run(self):
        def plateau_run(n_modes, n_grid, **kw):
            om = build_omega0(InitialDataSpec(delta=0.35, n_modes=n_modes, n_grid=n_grid))
            cfg = make_config(n_modes=n_modes, n_grid=n_grid, t_final=0.2, delta=0.35,
                              diag_every=2, snapshot_every=10, **kw)
            return run(cfg, om)

        def overshoot(res):
            omax = [d.omega_max for d in res.diagnostics]
            return (max(omax) - omax[0]) / omax[0]

        res = plateau_run(64, 144)
        assert res.halt_reason == "horizon"
        d0, d1 = res.diagnostics[0], res.diagnostics[-1]
        assert abs(d1.l2_norm - d0.l2_norm) / d0.l2_norm < 1e-9
        # transported degeneracy stays at rounding with the projection on
        assert max(d.degeneracy for d in res.diagnostics) < 1e-11
        # no discrete max principle: omega-max overshoots by Gibbs ripple of
        # the truncated plateau (1.27e-2 here).  Ripple does not depend on dt
        # and shrinks with N; a stepping or spatial defect would fail one of these.
        ripple = overshoot(res)
        assert ripple > 0
        assert overshoot(plateau_run(64, 144, cfl_safety=0.1)) == pytest.approx(
            ripple, rel=0.01)
        assert overshoot(plateau_run(128, 288)) <= ripple / 8

    def test_degeneracy_projection_matters(self):
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=64, n_grid=144))
        on = run(make_config(n_modes=64, n_grid=144, t_final=0.1, diag_every=5,
                             preserve_degeneracy=True), om)
        off = run(make_config(n_modes=64, n_grid=144, t_final=0.1, diag_every=5,
                              preserve_degeneracy=False), om)
        deg_on = max(d.degeneracy for d in on.diagnostics)
        deg_off = max(d.degeneracy for d in off.diagnostics)
        assert deg_on < 1e-11
        assert deg_off > 100 * max(deg_on, 1e-15)

    def test_one_step_rk4_call_per_step(self, monkeypatch):
        calls = []

        def counting_step(state, dt):
            calls.append(dt)
            return step_rk4(state, dt)

        monkeypatch.setattr(evolution, "step_rk4", counting_step)
        res = run(make_config(t_final=0.1, n_modes=8, n_grid=16),
                  SineField.from_modes({(1, 1): 1.0, (2, 1): 0.3}, 8))
        assert res.state.step_count > 1
        assert len(calls) == res.state.step_count

    def test_nan_halt_with_dump(self, tmp_path):
        wild = SineField(np.full((16, 16), 1e200))
        cfg = make_config(t_final=1.0, dt_policy="fixed", dt=1e-3,
                          out_dir=str(tmp_path))
        res = run(cfg, wild)
        assert res.halt_reason == "nan"
        assert (tmp_path / "state_dump.msqg").exists()

    def test_outputs_written(self, tmp_path):
        cfg = make_config(t_final=0.1, n_modes=8, n_grid=16, diag_every=1,
                          snapshot_every=2, out_dir=str(tmp_path))
        res = run(cfg, SineField.from_modes({(1, 1): 1.0, (2, 2): 0.1}, 8))
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "metadata.json").exists()
        assert len(list(tmp_path.glob("snap_*.msqg"))) >= 2
        header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "time,hessian_sup,omega_max,l2_norm,degeneracy,dt"
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["preserve_degeneracy"] is True
        assert "preserve_degeneracy" not in meta
        assert meta["halt_reason"] == res.halt_reason

    def test_initial_data_warning_in_notes_and_metadata(self, tmp_path):
        # the default delta = 0.25 spans about 5 cells of Ng = 64
        cfg = make_config(n_modes=32, n_grid=64, t_final=0.01, out_dir=str(tmp_path))
        with pytest.warns(UserWarning, match="under-resolved") as caught:
            res = run(cfg, InitialDataSpec(delta=0.25, n_modes=32, n_grid=64))
        message = "delta=0.25 spans fewer than 8 grid cells at n_grid=64; " \
                  "construction is under-resolved"
        assert [str(w.message) for w in caught] == [message]
        assert res.notes == [f"warning: {message}"]
        assert json.loads((tmp_path / "metadata.json").read_text())["notes"] == res.notes

    def test_repeated_runs_identical(self):
        cfg = make_config(n_modes=32, n_grid=64, t_final=0.05, diag_every=2)
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=32, n_grid=80))
        first, second = run(cfg, om), run(cfg, om)
        assert first.state.step_count > 4
        assert first.diagnostics == second.diagnostics
        np.testing.assert_array_equal(first.state.omega.coeffs, second.state.omega.coeffs)
        assert first.state.workspace is None

    def test_one_workspace_per_run(self, monkeypatch):
        built = []

        class Counting(_Rk4Workspace):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(evolution, "_Rk4Workspace", Counting)
        res = run(make_config(t_final=0.1, n_modes=8, n_grid=16),
                  SineField.from_modes({(1, 1): 1.0, (2, 1): 0.3}, 8))
        assert res.state.step_count > 1
        assert built == [(0.5, 8, 16, True)]

    def test_memory_does_not_grow_with_steps(self):
        # every step reuses the run's workspace: 20 steps peak where 5 do
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=64, n_grid=144))
        dt = 2.0 ** -10

        def peak(steps):
            cfg = make_config(n_modes=64, n_grid=128, dt_policy="fixed", dt=dt,
                              t_final=steps * dt, diag_every=100, snapshot_every=100)
            tracemalloc.start()
            try:
                res = run(cfg, om)
                return tracemalloc.get_traced_memory()[1], res.state.step_count
            finally:
                tracemalloc.stop()

        (short, n_short), (long, n_long) = peak(5), peak(20)
        assert (n_short, n_long) == (5, 20)
        assert long - short < 64 * 64 * 8

    def test_traced_peak_is_the_held_arrays(self):
        # the workspace holds max(3 M^2, (Ng+1)(N+min(128, Ng))) + 3 N^2 doubles; above
        # that a step holds the state's coefficients and the new ones, and
        # under 24 KiB of small arrays and Python objects (14.6 KiB measured).
        # No ufunc of a step or a grid maximum takes a numpy iteration
        # buffer, which here would be 32 or 64 KiB.
        n, n_grid, m = 64, 128, dealias_grid(64)
        om = build_omega0(InitialDataSpec(delta=0.35, n_modes=n, n_grid=144))
        cfg = make_config(n_modes=n, n_grid=n_grid, t_final=0.05, diag_every=2,
                          snapshot_every=3)
        tracemalloc.start()
        try:
            res = run(cfg, om)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.state.step_count > 4
        held = 8 * (max(3 * m * m, (n_grid + 1) * (n + min(128, n_grid))) + 3 * n * n)
        assert held < peak <= held + 8 * 2 * n * n + 24 * 1024

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="truncation order"):
            run(make_config(n_modes=16, n_grid=32), SineField.zeros(8))


class TestReadRunDir:
    """read_run_dir gives back what run() wrote."""

    DT = 2.0 ** -6      # a power of two: shorter runs end exactly at a snapshot's time

    def run_to(self, steps, out_dir=None):
        om = SineField.from_modes({(1, 1): 1.0, (2, 1): 0.3, (3, 2): -0.2}, 8)
        cfg = make_config(n_modes=8, n_grid=16, dt_policy="fixed", dt=self.DT,
                          t_final=steps * self.DT, diag_every=1, snapshot_every=2,
                          out_dir=out_dir)
        return cfg, run(cfg, om)

    def test_round_trip(self, tmp_path):
        cfg, res = self.run_to(5, str(tmp_path))
        # a halted run's dump is no snapshot
        write_snapshot(tmp_path / "state_dump.msqg", SineField.zeros(8), 16, 0.5, 1.0)
        snaps, times, hess, config = read_run_dir(tmp_path)
        # steps 0, 2, 4 and the final step 5, in step order
        assert [t for t, _ in snaps] == [t for t, _ in res.snapshots] == [
            0.0, 2 * self.DT, 4 * self.DT, 5 * self.DT]
        for (_, omega), steps in zip(snaps, (0, 2, 4, 5)):
            np.testing.assert_array_equal(omega.coeffs, self.run_to(steps)[1].state.omega.coeffs)
        np.testing.assert_array_equal(times, [d.time for d in res.diagnostics])
        np.testing.assert_array_equal(hess, [d.hessian_sup for d in res.diagnostics])
        assert times.dtype == hess.dtype == np.float64
        assert config == dataclasses.asdict(cfg)

    def test_snapshots_alone(self, tmp_path):
        # without diagnostics.csv and metadata.json: no records and no config
        _, res = self.run_to(2, str(tmp_path))
        (tmp_path / "diagnostics.csv").unlink()
        (tmp_path / "metadata.json").unlink()
        snaps, times, hess, config = read_run_dir(tmp_path)
        assert [t for t, _ in snaps] == [t for t, _ in res.snapshots]
        assert times.shape == hess.shape == (0,) and config == {}

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"no snapshots found in {tmp_path}")):
            read_run_dir(tmp_path)
