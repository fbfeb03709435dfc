"""Estimate verifiers: bound validity, exponent fits, reports."""

import json

import numpy as np
import pytest

from msqglab.initial_data import InitialDataSpec, build_omega0
from msqglab.kernels import KernelParams, QuadratureOracle, RegionSpec, relative_kernel_error
from msqglab.spectral import SineField
from msqglab.verify import (BoundReport, default_directions, loglog_fit,
                            verify_background, verify_decomposition,
                            verify_far_field, verify_kernel_asymptotics,
                            verify_medium_ratio, verify_near_field,
                            write_report_json, write_reports_csv)


@pytest.fixture(scope="module")
def single_mode():
    return SineField.from_modes({(1, 1): 1.0}, 4)


@pytest.fixture(scope="module")
def plateau_small():
    return build_omega0(InitialDataSpec(delta=0.3, n_modes=96, n_grid=192))


def test_loglog_fit_exact():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, r2 = loglog_fit(xs, 3.0 * xs**-1.7)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0)


def test_loglog_fit_needs_distinct_abscissae():
    with pytest.raises(ValueError, match="distinct"):
        loglog_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_default_directions_in_quadrant():
    d = default_directions(8)
    assert d.shape == (8, 2)
    assert np.all(d > 0)
    np.testing.assert_allclose(np.hypot(d[:, 0], d[:, 1]), 1.0)


# each verifier that takes params, called with the arguments before it
TAKE_PARAMS = {
    verify_near_field: lambda om: (om, 0.5, [0.01], 8.0),
    verify_medium_ratio: lambda om: (om, 0.5, [8.0]),
    verify_far_field: lambda om: (om, 0.5, [0.005]),
    verify_background: lambda om: ({0.3: om}, 0.5, 8.0),
    verify_decomposition: lambda om: (om, 0.5, [(0.05, 0.08)], 8.0),
}


@pytest.mark.parametrize("verifier", TAKE_PARAMS, ids=lambda v: v.__name__)
def test_params_at_another_alpha_rejected(single_mode, verifier):
    # the oracle and the bound must use the same alpha
    with pytest.raises(ValueError, match="params.alpha=0.25 disagrees with alpha=0.5"):
        verifier(*TAKE_PARAMS[verifier](single_mode), params=KernelParams(alpha=0.25))


class TestKernelAsymptoticsReport:
    def test_scaled_maxima_decay(self):
        rep = verify_kernel_asymptotics(0.5)
        maxima = [row["max_f_times_ratio"] for row in rep.samples]
        # bounded, and in fact decaying ~1/ratio: corrections are quadratic
        assert max(maxima) < 1.5
        assert maxima == sorted(maxima, reverse=True)
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.05)
        # the configured constant-level expectation therefore fails
        assert not rep.passed

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_maxima_equal_the_pointwise_loop(self, alpha):
        # the sweep evaluates all (x, y) pairs per ratio and component in one
        # call; point by point, the same arithmetic gives the same maxima
        rep = verify_kernel_asymptotics(alpha, n_directions=12)
        xdirs, ydirs = default_directions(4, margin=0.15), default_directions(3, margin=0.15)
        for row in rep.samples:
            ratio = row["ratio"]
            worst = 0.0
            for xd in xdirs:
                for yd in ydirs:
                    for j in (1, 2):
                        f = relative_kernel_error(j, 1e-3 * xd, 1e-3 * ratio * yd, alpha)
                        worst = max(worst, abs(float(f)) * ratio)
            assert row["max_f_times_ratio"] == worst


class TestNearField:
    def test_zero_field_trivial_pass(self, tmp_path):
        params = KernelParams(alpha=0.5, cells_central=32, cells_far=16,
                              image_radius=2, cells_panel=16)
        rep = verify_near_field(SineField.zeros(4), 0.5, [0.01, 0.02], 8.0,
                                params, n_directions=2)
        assert rep.passed
        assert rep.fitted_constant == 0.0
        # every bound is 0, so every ratio is 0/0; the report stays strict JSON
        path = tmp_path / "near.json"
        write_report_json(rep, path)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(path.read_text(), parse_constant=reject)
        assert data["samples"]
        for row in data["samples"]:
            assert type(row["bound"]) is float and row["bound"] == 0.0
            assert row["ratio"] is None

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_generic_data_attains_bound_exponent(self, single_mode, alpha):
        # non-degenerate data (omega ~ y1 y2 at the origin) saturates the
        # |x|^(2-2a) scaling of the near-field bound
        params = KernelParams(alpha=alpha, cells_panel=96)
        rep = verify_near_field(single_mode, alpha, np.geomspace(0.002, 0.02, 5),
                                8.0, params, n_directions=4)
        assert rep.passed, rep.notes
        assert rep.fitted_exponent == pytest.approx(2 - 2 * alpha, abs=0.05)
        assert rep.regression_r2 > 0.999
        assert all(row["ratio"] <= rep.fitted_constant * (1 + 1e-12)
                   for row in rep.samples)

    def test_degenerate_data_scales_two_powers_steeper(self, plateau_small):
        # the cubic corner weights the near square by two extra powers of
        # |x|, so the measured exponent is 4-2a, not the bound's 2-2a
        params = KernelParams(alpha=0.5, cells_panel=96)
        rep = verify_near_field(plateau_small, 0.5, np.geomspace(0.002, 0.015, 4),
                                8.0, params, n_directions=3)
        assert rep.fitted_exponent == pytest.approx(3.0, abs=0.2)
        assert not rep.passed

    def test_bound_validity_under_L_doubling(self, single_mode):
        # doubling L scales the bound by 2^(2-2a); ratios stay below the
        # constant fitted at the smaller L within a modest margin
        alpha = 0.5
        params = KernelParams(alpha=alpha, cells_panel=96)
        rep8 = verify_near_field(single_mode, alpha, [0.004, 0.01], 8.0, params,
                                 n_directions=3)
        rep16 = verify_near_field(single_mode, alpha, [0.004, 0.01], 16.0, params,
                                  n_directions=3)
        assert rep16.fitted_constant <= rep8.fitted_constant * 1.5


class TestMediumRatio:
    def test_swap_symmetric_diagonal_exact(self, single_mode):
        # swap-symmetric field, diagonal x: the kernel swap identity and a
        # swap-symmetric node set force r = 1 up to the 1D quadrature tol
        params = KernelParams(alpha=0.5, cells_panel=64)
        oracle = QuadratureOracle(single_mode, params)
        x = (0.01, 0.01)
        u1, u2 = oracle.velocity(x, RegionSpec("medium", 8.0))
        r = -u1 * x[1] / (x[0] * u2)
        assert r == pytest.approx(1.0, abs=1e-8)

    def test_envelope_decay_is_quadratic(self, plateau_small):
        # the kernels are odd under x -> -x, so the component-ratio
        # envelope decays like L^-2; the configured -1 expectation fails
        params = KernelParams(alpha=0.5, cells_panel=64)
        rep = verify_medium_ratio(plateau_small, 0.5, (8.0, 16.0, 32.0), params,
                                  n_directions=3)
        assert rep.fitted_exponent == pytest.approx(-2.0, abs=0.2)
        assert not rep.passed
        # the stated bound itself holds comfortably: max |r-1| * L is small
        assert rep.fitted_constant < 0.5


class TestFarField:
    def test_linearity_and_tail(self, plateau_small):
        params = KernelParams(alpha=0.5, cells_far=48, image_radius=4)
        rep = verify_far_field(plateau_small, 0.5, np.geomspace(0.001, 0.01, 4),
                               params)
        assert rep.passed, rep.notes
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.1)

    def test_unflipped_image_cells_fail_the_tail_check(self, plateau_small, monkeypatch):
        # a tail summed over image cells that all hold omega itself, not its
        # odd reflections, falls like R^(-2a), not R^(-2-2a): at R = 8 it
        # reads about 1.9 R^(-3) ||omega||_inf x_j, the true tail 0.12 of that
        params = KernelParams(alpha=0.5, cells_far=32, image_radius=8)
        magnitudes = np.geomspace(0.001, 0.01, 3)
        assert verify_far_field(plateau_small, 0.5, magnitudes, params).passed
        real = QuadratureOracle.image_tail

        def unflipped_tail(oracle, x):
            n, R = oracle.params.cells_far, oracle.params.image_radius
            held = oracle._strip
            oracle._strip = np.tile(oracle._cell_samples(n), (1, 2 * R))
            oracle._far_memo = None
            try:
                return real(oracle, x)
            finally:     # the far sums of the next sample see the true cells
                oracle._strip, oracle._far_memo = held, None

        monkeypatch.setattr(QuadratureOracle, "image_tail", unflipped_tail)
        rep = verify_far_field(plateau_small, 0.5, magnitudes, params)
        assert not rep.passed
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.1)
        failed = [note for note in rep.notes if note.startswith("tail check failed")]
        assert len(failed) == 2 * len(magnitudes), rep.notes

    def test_zero_field(self):
        params = KernelParams(alpha=0.5, cells_far=16, image_radius=2)
        oracle = QuadratureOracle(SineField.zeros(4), params)
        u = oracle.velocity((0.3, 0.4), RegionSpec("far"))
        assert u == (0.0, 0.0)


class TestBackground:
    def test_sign_and_exponent_report(self):
        fields = {}
        for delta in (0.15, 0.3):
            fields[delta] = build_omega0(InitialDataSpec(
                delta=delta, n_modes=96, n_grid=192))
        rep = verify_background(fields, 0.5, L=8.0,
                                params=KernelParams(alpha=0.5, cells_panel=64))
        # positivity of (-1)^j u_j^med/x_j always holds for this family
        assert all(row["measured"] > 0 for row in rep.samples)
        # the strip geometry makes the measured delta-exponent ~ -(1+2a)
        # rather than the bound's -a; the sign check is the robust part
        assert rep.fitted_exponent < -0.5

    def test_monotonicity_in_omega(self, plateau_small):
        # enlarging omega pointwise cannot decrease (-1)^j u_j^med / x_j
        # (kernel positivity on the medium region)
        bigger = SineField(plateau_small.coeffs.copy())
        full_one = build_omega0(InitialDataSpec(delta=0.12, n_modes=96, n_grid=192))
        params = KernelParams(alpha=0.5, cells_panel=64)
        x = (0.01, 0.013)
        o_small = QuadratureOracle(plateau_small, params)
        o_big = QuadratureOracle(full_one, params)
        u1s, u2s = o_small.velocity(x, RegionSpec("medium", 8.0))
        u1b, u2b = o_big.velocity(x, RegionSpec("medium", 8.0))
        # delta=0.12 plateau dominates the delta=0.3 one pointwise
        assert -u1b >= -u1s > 0
        assert u2b >= u2s > 0


class TestDecomposition:
    def test_additivity(self, single_mode):
        params = KernelParams(alpha=0.5)
        rep = verify_decomposition(single_mode, 0.5, [(0.05, 0.08), (0.02, 0.03)],
                                   6.0, params)
        assert rep.passed, rep.notes

    def test_cli_samples_record_their_warnings(self, single_mode):
        # two of the samples `verify` uses lie within 4 central cells of an
        # axis; the report notes both warnings, which are still emitted
        pts = [(0.05, 0.08), (0.02, 0.01), (0.004, 0.009)]
        with pytest.warns(UserWarning, match="under-resolved") as caught:
            rep = verify_decomposition(single_mode, 0.5, pts, 8.0, KernelParams(alpha=0.5))
        tail = "within 4 central cells of an axis; full-region quadrature may be under-resolved"
        assert [n for n in rep.notes if n.startswith("warning:")] == [
            f"warning: evaluation point (0.02, 0.01) {tail}",
            f"warning: evaluation point (0.004, 0.009) {tail}"]
        assert [str(w.message) for w in caught] == [n[len("warning: "):] for n in rep.notes[1:]]


class TestReports:
    def test_json_and_csv(self, tmp_path):
        rep = BoundReport(estimate_id="demo", alpha=0.5, fitted_constant=1.5,
                          fitted_exponent=-1.0, theoretical_exponent=-1.0,
                          exponent_tol=0.2, regression_r2=0.99, passed=True,
                          samples=[{"x": [0.1, 0.2], "L": 8.0, "measured": 0.5,
                                    "bound": 1.0, "ratio": 0.5}])
        jpath = tmp_path / "rep.json"
        write_report_json(rep, jpath)
        loaded = json.loads(jpath.read_text())
        assert loaded["estimate_id"] == "demo"
        assert loaded["passed"] is True

        cpath = tmp_path / "summary.csv"
        write_reports_csv([rep], cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("estimate_id,alpha")
        assert len(lines) == 2
