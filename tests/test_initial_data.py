"""Plateau initial data: construction, degeneracy, range, decay."""

import math

import numpy as np
import pytest
from scipy import fft as sfft

from msqglab.initial_data import (InitialDataSpec, build_omega0, check_degeneracy,
                                  gradient_sup_norm, plateau_deficit_fraction,
                                  smoothstep)
from msqglab.spectral import MixedParityField, SineField, evaluate_offgrid, inverse_transform


@pytest.fixture(scope="module")
def omega_quarter():
    return build_omega0(InitialDataSpec(delta=0.25, n_modes=192, n_grid=384))


class TestSpecValidation:
    def test_delta_bounds(self):
        with pytest.raises(ValueError, match="delta"):
            InitialDataSpec(delta=0.0, n_modes=64, n_grid=128)
        with pytest.raises(ValueError, match="delta"):
            InitialDataSpec(delta=np.pi / 2, n_modes=64, n_grid=128, delta_max=np.pi / 4)
        with pytest.raises(ValueError, match="delta_max"):
            InitialDataSpec(delta=0.2, n_modes=64, n_grid=128, delta_max=1.0)

    def test_underresolved_warning(self):
        with pytest.warns(UserWarning, match="under-resolved"):
            build_omega0(InitialDataSpec(delta=0.1, n_modes=32, n_grid=64))

    def test_resolution_precondition(self):
        with pytest.raises(ValueError, match="n_grid"):
            InitialDataSpec(delta=0.25, n_modes=64, n_grid=100)


class TestSmoothstep:
    def test_endpoints_and_clamp(self):
        assert smoothstep(-0.5, 4) == 0.0
        assert smoothstep(0.0, 4) == 0.0
        assert smoothstep(1.0, 4) == pytest.approx(1.0)
        assert smoothstep(1.7, 4) == pytest.approx(1.0)

    def test_classic_orders(self):
        assert smoothstep(0.3, 1) == pytest.approx(3 * 0.09 - 2 * 0.027)
        u = 0.4
        assert smoothstep(u, 2) == pytest.approx(6 * u**5 - 15 * u**4 + 10 * u**3)

    def test_contact_order(self):
        # C^4 contact means S = O(u^5) at 0 and 1 - S = O((1-u)^5) at 1
        u = 1e-2
        assert smoothstep(u, 4) < 130 * u**5
        assert 1.0 - smoothstep(1.0 - u, 4) < 130 * u**5
        assert smoothstep(u, 4) > 0


class TestConstruction:
    def test_axis_values_zero(self, omega_quarter):
        assert evaluate_offgrid(omega_quarter, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
        assert evaluate_offgrid(omega_quarter, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_plateau_value(self, omega_quarter):
        assert evaluate_offgrid(omega_quarter, (np.pi / 2, np.pi / 2)) == pytest.approx(
            1.0, abs=1e-4)

    def test_monomial_patch(self, omega_quarter):
        d = 0.25
        val = evaluate_offgrid(omega_quarter, (d / 4, d / 4))
        assert val == pytest.approx(1.0 / 256.0, rel=2e-3)
        # exact monomial on the whole rectangle [0, patch]^2
        val2 = evaluate_offgrid(omega_quarter, (d / 2 * 0.9, d / 8))
        assert val2 == pytest.approx(d**-4 * (d / 2 * 0.9) ** 3 * (d / 8), rel=2e-3)

    def test_range(self, omega_quarter):
        vals = inverse_transform(omega_quarter, 384).values
        assert vals.min() > -1e-4
        assert vals.max() < 1 + 1e-4

    def test_measure_defect(self, omega_quarter):
        frac = plateau_deficit_fraction(inverse_transform(omega_quarter, 384).values)
        assert frac <= 4 * np.pi * 0.25 / np.pi**2 + 0.02

    def test_degeneracy(self, omega_quarter):
        deg = check_degeneracy(omega_quarter)
        grad = gradient_sup_norm(omega_quarter, 384)
        assert deg <= 1e-8 * grad

    def test_spectral_decay(self, omega_quarter):
        # |a| <= C (m^2+n^2)^(-blend_order/2) with a stable constant on the
        # high shells (the C^4 blend decays at least this fast)
        c = np.abs(omega_quarter.coeffs)
        n = c.shape[0]
        k = np.sqrt(np.arange(1, n + 1)[:, None] ** 2 + np.arange(1, n + 1)[None, :] ** 2)
        consts = []
        for shell in (48, 96, 180):
            sel = (k > shell - 4) & (k <= shell + 4)
            consts.append(c[sel].max() * shell**4)
        assert max(consts) <= 4 * consts[0]

    def test_blend_insensitivity(self):
        # two blend orders give matching fields away from the transition
        a = build_omega0(InitialDataSpec(delta=0.25, n_modes=96, n_grid=192, blend_order=3))
        b = build_omega0(InitialDataSpec(delta=0.25, n_modes=96, n_grid=192, blend_order=4))
        pts = np.array([[0.06, 0.05], [1.0, 1.2], [2.0, 0.9]])
        for p in pts:
            va = evaluate_offgrid(a, p)
            vb = evaluate_offgrid(b, p)
            assert va == pytest.approx(vb, abs=2e-3)


class TestCheckDegeneracy:
    def test_generic_field(self):
        om = SineField.from_modes({(1, 1): 1.0}, 4)
        assert check_degeneracy(om) == pytest.approx(1.0, rel=1e-6)

    def test_cubic_degenerate_field(self):
        # sin^3(x1) sin(x2) = (3 sin x1 - sin 3x1)/4 * sin(x2)
        om = SineField.from_modes({(1, 1): 0.75, (3, 1): -0.25}, 4)
        assert check_degeneracy(om) < 1e-13

    def test_construction_tolerance(self, omega_quarter):
        assert check_degeneracy(omega_quarter) < 1e-12

    @pytest.mark.parametrize("n_samples", [64, 2048])
    def test_equals_direct_sum_on_the_sample_points(self, n_samples):
        # the DST-I against sum_n (sum_m m a[m,n]) sin(n x2) at x2 = pi*i/n_samples
        om = SineField(np.random.default_rng(n_samples).normal(size=(40, 40)))
        m = np.arange(1, 41, dtype=np.float64)
        x2 = np.pi * np.arange(n_samples) / n_samples
        direct = np.abs(np.sin(np.outer(x2, m)) @ (m @ om.coeffs)).max()
        assert check_degeneracy(om, n_samples) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("n_samples", [10, 2047, 2048])
    def test_equals_the_explicit_dst_bit_for_bit(self, n_samples):
        # the unhalved sums zero-padded to n_samples - 1 entries, a DST-I, then half the max
        om = SineField(np.random.default_rng(n_samples).normal(size=(9, 9)))
        w = np.zeros(n_samples - 1)
        w[:9] = np.arange(1.0, 10.0) @ om.coeffs
        assert check_degeneracy(om, n_samples) == 0.5 * np.abs(sfft.dst(w, type=1)).max()

    def test_modes_must_fit_the_samples(self):
        om = SineField.from_modes({(1, 1): 1.0}, 9)
        assert check_degeneracy(om, 10) == pytest.approx(1.0, rel=1e-15)   # x2 = pi/2 sampled
        with pytest.raises(ValueError, match="samples"):
            check_degeneracy(om, 9)


class TestGradientSupNorm:
    @staticmethod
    def _abs_max_of_each(omega, n_grid):
        """Both derivative grids formed from the mode factors, reduced by np.abs(.).max()."""
        m = np.arange(1, omega.n_modes + 1, dtype=np.float64)
        d1 = MixedParityField(omega.coeffs * m[:, None], ("cos", "sin")).evaluate(n_grid)
        d2 = MixedParityField(omega.coeffs * m[None, :], ("sin", "cos")).evaluate(n_grid)
        return float(np.abs(d1.values).max()), float(np.abs(d2.values).max())

    def test_equals_abs_max_bit_for_bit(self, omega_quarter):
        rng = np.random.default_rng(4)
        for omega, n_grid in ((omega_quarter, 384), (SineField(rng.standard_normal((9, 9))), 20)):
            assert gradient_sup_norm(omega, n_grid) == max(self._abs_max_of_each(omega, n_grid))

    def test_nan_in_second_derivative_kept(self):
        # the d2 coefficients 8 * (+-3e307) overflow to +-inf and their sum
        # on the grid is NaN, while the d1 grid stays finite
        c = np.zeros((8, 8))
        c[0, 7], c[1, 7] = 3e307, -3e307
        omega = SineField(c)
        with np.errstate(over="ignore", invalid="ignore"):
            g1, g2 = self._abs_max_of_each(omega, 16)
            assert math.isfinite(g1) and math.isnan(g2)
            assert math.isnan(gradient_sup_norm(omega, 16))
