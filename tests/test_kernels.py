"""Symmetrized kernels, asymptotics, and quadrature oracle."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from msqglab import kernels
from msqglab.kernels import (
    KernelParams, QuadratureOracle, RegionSpec, asymptotic_K, kernel_K1, kernel_K2,
    relative_kernel_error, riesz_velocity_prefactor)
from msqglab.spectral import (SineField, Term, evaluate_offgrid, evaluate_points,
                              spectral_derivative, velocity_coefficients)

RNG = np.random.default_rng(11)


class TestKernelValues:
    def test_k1_vanishes_on_x1_axis(self):
        y = RNG.uniform(0.1, 3.0, size=(20, 2))
        vals = kernel_K1((0.0, 0.6), y, 0.5)
        assert np.abs(vals).max() < 1e-15

    def test_k2_vanishes_on_x2_axis(self):
        y = RNG.uniform(0.1, 3.0, size=(20, 2))
        vals = kernel_K2((0.6, 0.0), y, 0.5)
        assert np.abs(vals).max() < 1e-15

    def test_swap_identity(self):
        # K2(x, y) = -K1(swap x, swap y), a consequence of the symmetrized form
        for alpha in (0.25, 0.5, 0.75):
            x = RNG.uniform(0.05, 1.5, size=2)
            y = RNG.uniform(0.05, 3.0, size=(50, 2))
            k2 = kernel_K2(x, y, alpha)
            k1_swapped = kernel_K1((x[1], x[0]), y[:, ::-1], alpha)
            np.testing.assert_allclose(k2, -k1_swapped, rtol=1e-12, atol=1e-15)

    def test_singularity_rejected(self):
        with pytest.raises(ValueError, match="y = x"):
            kernel_K1((0.5, 0.5), np.array([[0.5, 0.5]]), 0.5)


class TestAsymptoticForm:
    def test_zero_when_y2_zero(self):
        assert asymptotic_K(1, (0.01, 0.01), np.array([1.0, 0.0]), 0.5) == 0.0

    def test_arithmetic(self):
        val = asymptotic_K(1, (0.01, 0.0), np.array([1.0, 1.0]), 0.0)
        assert val == pytest.approx(-0.02)

    def test_component_swap(self):
        x = (0.02, 0.05)
        y = np.array([1.3, 0.8])
        a2 = asymptotic_K(2, x, y, 0.6)
        a1_swapped = asymptotic_K(1, (x[1], x[0]), y[::-1], 0.6)
        assert a2 == pytest.approx(-a1_swapped, rel=1e-14)

    def test_bad_component(self):
        with pytest.raises(ValueError, match="component"):
            asymptotic_K(3, (0.1, 0.1), np.array([1.0, 1.0]), 0.5)


class TestRelativeError:
    def test_sequence_decay(self):
        # frozen from the exact kernel formulas on the diagonal direction;
        # the decay is quadratic in |x|/|y| (f_j is even in x -> -x)
        x = (1e-3 / np.sqrt(2), 1e-3 / np.sqrt(2))
        expect = {10: 8.597813e-03, 100: 8.335959e-05, 1000: 8.333360e-07}
        prev = np.inf
        for L, ref in expect.items():
            f = float(relative_kernel_error(1, x, np.array([L * x[0], L * x[1]]), 0.5))
            assert f == pytest.approx(ref, rel=1e-5)
            assert abs(f) < prev
            prev = abs(f)

    def test_scaled_error_bounded(self):
        # sup over directions of |f_j| * (|y|/|x|) stays bounded as the
        # ratio grows (it actually decays ~1/ratio: quadratic corrections)
        angs = np.linspace(0.15, np.pi / 2 - 0.15, 7)
        worst_by_ratio = []
        for ratio in (10.0, 100.0, 1000.0):
            worst = 0.0
            for ta in angs:
                for tb in angs:
                    x = 1e-3 * np.array([np.cos(ta), np.sin(ta)])
                    y = 1e-3 * ratio * np.array([np.cos(tb), np.sin(tb)])
                    for j in (1, 2):
                        worst = max(worst, abs(float(
                            relative_kernel_error(j, x, y, 0.5))) * ratio)
            worst_by_ratio.append(worst)
        assert max(worst_by_ratio) < 1.5          # stable constant
        assert worst_by_ratio == sorted(worst_by_ratio, reverse=True)

    def test_large_f_near_validity_edge_recorded(self, capsys):
        # at |y|/|x| = 4 the asymptotic form need not be accurate yet
        x = (0.05, 0.02)
        f = float(relative_kernel_error(1, x, np.array([4 * 0.05, 4 * 0.02]), 0.75))
        print(f"f1 at ratio 4: {f:.4f} (recorded, not asserted)")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="asymptotic"):
            relative_kernel_error(1, (0.0, 0.1), np.array([1.0, 1.0]), 0.5)


@pytest.fixture(scope="module")
def single_mode():
    return SineField.from_modes({(1, 1): 1.0}, 4)


class TestVelocityQuadrature:
    def test_zero_field(self, single_mode):
        params = KernelParams(alpha=0.5, cells_central=32, cells_far=16, image_radius=2)
        u = QuadratureOracle(SineField.zeros(4), params).velocity((0.5, 0.8), RegionSpec("full"))
        assert u == (0.0, 0.0)

    def test_region_additivity(self, single_mode):
        params = KernelParams(alpha=0.5)
        oracle = QuadratureOracle(single_mode, params)
        x = (0.05, 0.08)
        total = np.zeros(2)
        for kind in ("near", "medium", "far"):
            total += np.asarray(oracle.velocity(x, RegionSpec(kind, 4.0)))
        full = np.asarray(oracle.velocity(x, RegionSpec("full")))
        assert np.linalg.norm(total - full) / np.linalg.norm(full) < 5e-3

    def test_medium_empty_rejected(self, single_mode):
        params = KernelParams(alpha=0.5, cells_central=32, cells_far=16, image_radius=2)
        oracle = QuadratureOracle(single_mode, params)
        with pytest.raises(ValueError, match="empty"):
            oracle.velocity((1.0, 1.0), RegionSpec("medium", 4.0))

    def test_region_validation(self):
        with pytest.raises(ValueError, match="L >= 2"):
            RegionSpec("near", 1.0)
        # NaN < 2 is False; a medium call at L = NaN would have no frames
        for kind in ("near", "medium"):
            with pytest.raises(ValueError, match="L >= 2"):
                RegionSpec(kind, float("nan"))
        with pytest.raises(ValueError, match="region kind"):
            RegionSpec("everything")

    def test_underresolved_warning(self, single_mode):
        params = KernelParams(alpha=0.5, cells_central=64, cells_far=16, image_radius=2)
        oracle = QuadratureOracle(single_mode, params)
        with pytest.warns(UserWarning, match="under-resolved"):
            oracle.velocity((0.01, 0.5), RegionSpec("full"))


class TestCalibration:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_matches_riesz_normalization(self, single_mode, alpha):
        pts = np.column_stack([RNG.uniform(0.3, np.pi - 0.3, 6),
                               RNG.uniform(0.3, np.pi - 0.3, 6)])
        # the scalar c with spectral ~= c * full (least squares over both
        # components at all points) is the Riesz prefactor, and that
        # prefactor times full matches the spectral velocity at every point
        oracle = QuadratureOracle(single_mode, KernelParams(alpha=alpha))
        quad = np.array([oracle.velocity(p, RegionSpec("full")) for p in pts])
        u1c, u2c = velocity_coefficients(single_mode, alpha)
        spec = np.stack([u1c.evaluate_at(pts), u2c.evaluate_at(pts)], axis=-1)
        c_alpha = riesz_velocity_prefactor(alpha)
        assert np.sum(quad * spec) / np.sum(quad * quad) == pytest.approx(c_alpha, rel=5e-3)
        dev = np.linalg.norm(c_alpha * quad - spec, axis=1) / np.linalg.norm(spec, axis=1)
        assert dev.max() < 0.01

    def test_sqg_prefactor_value(self):
        assert riesz_velocity_prefactor(0.5) == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_plateau_data_sign_cross_check(self):
        # independent quadrature agrees with the spectral path on signs
        # near the hyperbolic point for the plateau data
        from msqglab.initial_data import InitialDataSpec, build_omega0

        om = build_omega0(InitialDataSpec(delta=0.3, n_modes=96, n_grid=192))
        params = KernelParams(alpha=0.5, cells_central=192)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u1, u2 = QuadratureOracle(om, params).velocity((0.01, 0.01), RegionSpec("full"))
        assert u1 < 0 and u2 > 0
        u1s, u2s = velocity_coefficients(om, 0.5)
        assert u1s.evaluate_at(np.array([0.01, 0.01])) < 0
        assert u2s.evaluate_at(np.array([0.01, 0.01])) > 0


class TestFarField:
    def test_tail_decay_on_doubling(self, single_mode):
        alpha = 0.5
        x = (0.4, 0.9)
        base = KernelParams(alpha=alpha, image_radius=4, cells_far=48)
        double = KernelParams(alpha=alpha, image_radius=8, cells_far=48)
        u_r = np.asarray(QuadratureOracle(single_mode, base).velocity(x, RegionSpec("far")))
        u_2r = np.asarray(QuadratureOracle(single_mode, double).velocity(x, RegionSpec("far")))
        omega_sup = 1.0
        for j in (0, 1):
            allow = 3.0 * base.image_radius ** (-2 * alpha) * omega_sup * x[j]
            assert abs(u_2r[j] - u_r[j]) <= allow

    def test_radius_one_has_no_image_cells(self, single_mode):
        # the lattice [0, pi)^2 less the central cell is empty: far sums to zero
        params = KernelParams(alpha=0.5, image_radius=1, cells_central=32, cells_far=16)
        oracle = QuadratureOracle(single_mode, params)
        assert oracle.velocity((0.4, 0.9), RegionSpec("far")) == (0.0, 0.0)
        assert np.isfinite(oracle.velocity((0.4, 0.9), RegionSpec("full"))).all()

    @pytest.fixture(scope="class")
    def fields(self):
        from msqglab.initial_data import InitialDataSpec, build_omega0

        rng = np.random.default_rng(5)
        rough = rng.standard_normal((64, 64)) / np.add.outer(np.arange(64), np.arange(64) + 1)
        return {"plateau": build_omega0(InitialDataSpec(delta=0.25, n_modes=64, n_grid=128)),
                "random": SineField(rough)}

    @pytest.mark.parametrize("name", ["plateau", "random"])
    def test_far_plus_tail_is_far_at_twice_the_radius(self, fields, name):
        # the tail sums the cells R <= max(p, q) < 2R that a 2R oracle's far
        # sum adds; only the grouping of the row sums differs
        params = KernelParams(alpha=0.5)
        oracle = QuadratureOracle(fields[name], params)
        double = QuadratureOracle(fields[name], replace(params, image_radius=16))
        for x in [(0.001, 0.02), (0.02, 0.01), (1.2, 0.7)]:
            got = np.add(oracle.velocity(x, RegionSpec("far")), oracle.image_tail(x))
            want = double.velocity(x, RegionSpec("far"))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_tail_from_radius_one_is_far_at_radius_two(self, single_mode):
        # far(1) has no cell, so tail(1 -> 2) makes the very sums of far(2)
        one = KernelParams(alpha=0.5, image_radius=1, cells_far=16)
        x = (0.4, 0.9)
        tail = QuadratureOracle(single_mode, one).image_tail(x)
        far = QuadratureOracle(single_mode, replace(one, image_radius=2)).velocity(
            x, RegionSpec("far"))
        assert tail == far

    def test_far_unmoved_by_an_earlier_tail(self, fields):
        # the tail extends the oracle's strip of image cells; far sums read
        # the same cells from it
        params = KernelParams(alpha=0.5, image_radius=3, cells_far=16)
        x = (0.05, 0.08)
        fresh = QuadratureOracle(fields["random"], params).velocity(x, RegionSpec("far"))
        oracle = QuadratureOracle(fields["random"], params)
        oracle.image_tail(x)
        assert oracle.velocity(x, RegionSpec("far")) == fresh

    def test_verify_far_field_builds_one_oracle(self, single_mode, monkeypatch):
        from msqglab import verify

        built = []

        class Counted(QuadratureOracle):
            def __init__(self, omega, params):
                built.append(params)
                super().__init__(omega, params)

        monkeypatch.setattr(verify, "QuadratureOracle", Counted)
        params = KernelParams(alpha=0.5, image_radius=2, cells_far=16)
        rep = verify.verify_far_field(single_mode, 0.5, [0.005, 0.01], params)
        assert built == [params]
        assert not any("tail check failed" in note for note in rep.notes)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            KernelParams(alpha=0.0)
        with pytest.raises(ValueError, match="image_radius"):
            KernelParams(alpha=0.5, image_radius=0)


def _midpoint_nodes(a, b, n):
    h = (b - a) / n
    return a + (np.arange(n) + 0.5) * h, h


def _direct_rect(omega, x, alpha, rect, n1, n2):
    """Midpoint sum of (K1, K2) * omega from the public kernels, node by node."""
    y1, h1 = _midpoint_nodes(rect[0], rect[1], n1)
    y2, h2 = _midpoint_nodes(rect[2], rect[3], n2)
    nodes = np.stack(np.meshgrid(y1, y2, indexing="ij"), axis=-1).reshape(-1, 2)
    w = evaluate_offgrid(omega, nodes)
    k = np.stack([kernel_K1(x, nodes, alpha), kernel_K2(x, nodes, alpha)])
    return (k * w).sum(axis=1) * h1 * h2


class TestRegionsAgainstDirectSums:
    """The oracle's medium and far sums equal sums built from kernel_K1/K2."""

    ALPHA = 0.5
    PARAMS = KernelParams(alpha=0.5, cells_panel=16, cells_far=8, image_radius=3)

    @pytest.fixture(scope="class")
    def omega(self):
        rng = np.random.default_rng(3)
        return SineField(rng.standard_normal((6, 6)) / np.add.outer(np.arange(6), np.arange(6) + 1))

    @pytest.mark.parametrize("x", [(0.05, 0.08), (0.11, 0.02)])
    def test_medium(self, omega, x):
        L = 4.0
        s = L * float(np.hypot(*x))
        npanel = self.PARAMS.cells_panel
        want = np.zeros(2)
        lo = s
        while lo < np.pi:
            hi = min(2.0 * lo, np.pi)
            na = max(8, int(round(npanel * (hi - lo) / hi)))
            nb = max(8, int(round(npanel * lo / hi)))
            want += _direct_rect(omega, x, self.ALPHA, (lo, hi, 0.0, lo), na, nb)
            want += _direct_rect(omega, x, self.ALPHA, (0.0, lo, lo, hi), nb, na)
            want += _direct_rect(omega, x, self.ALPHA, (lo, hi, lo, hi), na, na)
            lo = hi
        got = QuadratureOracle(omega, self.PARAMS).velocity(x, RegionSpec("medium", L))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [(0.05, 0.08), (1.3, 0.4)])
    def test_far(self, omega, x):
        n, radius = self.PARAMS.cells_far, self.PARAMS.image_radius
        want = np.zeros(2)
        for p in range(radius):
            for q in range(radius):
                if (p, q) != (0, 0):
                    # the image cells carry the sine series itself: its odd
                    # 2pi-periodic extension
                    want += _direct_rect(omega, x, self.ALPHA,
                                         (p * np.pi, (p + 1) * np.pi, q * np.pi, (q + 1) * np.pi),
                                         n, n)
        got = QuadratureOracle(omega, self.PARAMS).velocity(x, RegionSpec("far"))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _unfactored_node_sums(x, y1, y2, w, cw, alpha, work=None, factors=None, lin=None):
    """Node sums of the four-term kernels times w and the column weights cw,
    unfactored, formed node by node:
    K1 = (x2-y2) i0 - (x2-y2) it - (x2+y2) ib + (x2+y2) ip and
    K2 = (y1-x1) i0 + (x1-y1) ib + (x1+y1) it - (x1+y1) ip, with the
    singular i0 term weighted by the Taylor residual when lin is given and
    left out at a node y = x."""
    x1, x2 = x
    yy1, yy2 = y1[:, None], y2[None, :]
    p = 1.0 + alpha
    a0, at = (x1 - yy1) ** 2, (x1 + yy1) ** 2
    b0, bb = (x2 - yy2) ** 2, (x2 + yy2) ** 2
    with np.errstate(divide="ignore"):
        i0 = (a0 + b0) ** -p
    i0 = np.where(np.isinf(i0), 0.0, i0)
    it, ib, ip = (at + b0) ** -p, (a0 + bb) ** -p, (at + bb) ** -p
    s1, s2 = (x2 - yy2) * i0, (yy1 - x1) * i0
    i1 = (yy2 - x2) * it - (x2 + yy2) * ib + (x2 + yy2) * ip
    i2 = (x1 - yy1) * ib + (x1 + yy1) * it - (x1 + yy1) * ip
    ws = w
    if lin is not None:
        w0, g1, g2 = lin
        ws = w - (w0 + g1 * (yy1 - x1) + g2 * (yy2 - x2))
    cw = np.broadcast_to(cw, y2.shape)[None, :]
    return (float(np.sum((s1 * ws + i1 * w) * cw)),
            float(np.sum((s2 * ws + i2 * w) * cw)))


class TestFactoredNodeSums:
    """Every region sum equals the unfactored four-term formula node by node."""

    REGIONS = [RegionSpec("near", 2.0), RegionSpec("medium", 2.0), RegionSpec("far"),
               RegionSpec("full")]
    X = (0.3, 0.4)

    @pytest.fixture(scope="class")
    def omega(self):
        rng = np.random.default_rng(5)
        return SineField(rng.standard_normal((6, 6)) / np.add.outer(np.arange(6), np.arange(6) + 1))

    @staticmethod
    def _params(alpha):
        return KernelParams(alpha=alpha, cells_central=48, cells_panel=16, cells_far=16,
                            image_radius=3)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    def test_region_matches_unfactored_formula(self, omega, region, alpha, monkeypatch):
        got = QuadratureOracle(omega, self._params(alpha)).velocity(self.X, region)
        monkeypatch.setattr(kernels, "_node_sums", _unfactored_node_sums)
        want = QuadratureOracle(omega, self._params(alpha)).velocity(self.X, region)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    # one row per block, 7 rows per block on the 16-column near square
    # (other counts elsewhere), and the whole grid in one block; a block
    # holds the four terms of its nodes
    @pytest.mark.parametrize("block_nodes", [1, 7 * 16])
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    def test_block_size_does_not_change_sums(self, omega, region, block_nodes, monkeypatch):
        params = self._params(0.5)
        # 48^2 nodes, the largest grid here
        monkeypatch.setattr(kernels, "_BLOCK_NODES", 4 * 48 * 48)
        whole = QuadratureOracle(omega, params).velocity(self.X, region)
        monkeypatch.setattr(kernels, "_BLOCK_NODES", 4 * block_nodes)
        blocked = QuadratureOracle(omega, params).velocity(self.X, region)
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("lin", [None, (0.7, -1.3, 2.1)])
    @pytest.mark.parametrize("w_at_x", [0.0, 1.7])
    def test_node_at_x_has_no_singular_term(self, lin, w_at_x, monkeypatch):
        y1, _ = _midpoint_nodes(0.0, 1.0, 9)
        y2, _ = _midpoint_nodes(0.0, 1.0, 7)
        x = (float(y1[4]), float(y2[3]))
        w = np.random.default_rng(8).standard_normal((9, 7))
        w[4, 3] = w_at_x
        cw = np.linspace(0.5, 2.0, 7)
        want = _unfactored_node_sums(x, y1, y2, w, cw, 0.5, lin=lin)
        # one row of the four terms per block, and the whole grid in one
        for room in (4 * 7, 4 * 63):
            monkeypatch.setattr(kernels, "_BLOCK_NODES", room)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                work = np.empty((3, kernels._node_room(9, 7)))
                factors = np.empty(kernels._factor_room(9, 7))
                got = kernels._node_sums(x, y1, y2, w, cw, 0.5, work, factors, lin)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    # a dyadic frame (na = nb = 8) and the top frame clipped at pi
    # (na = 8 floored, nb = 15)
    @pytest.mark.parametrize("lo, hi", [(0.4, 0.8), (2.9, np.pi)])
    def test_frame_equals_three_unfactored_rectangles(self, omega, lo, hi):
        params = self._params(0.5)
        oracle = QuadratureOracle(omega, params)
        x = (0.05, 0.08)
        (got,) = oracle._frames(x, [(lo, hi)])
        npanel = params.cells_panel
        na = max(8, int(round(npanel * (hi - lo) / hi)))
        nb = max(8, int(round(npanel * lo / hi)))
        assert (na == nb) == (hi < np.pi)
        want = np.zeros(2)
        for rect, n1, n2 in (((lo, hi, 0.0, lo), na, nb), ((0.0, lo, lo, hi), nb, na),
                             ((lo, hi, lo, hi), na, na)):
            y1, h1 = _midpoint_nodes(rect[0], rect[1], n1)
            y2, h2 = _midpoint_nodes(rect[2], rect[3], n2)
            w = kernels._sines(y1, 6) @ omega.coeffs @ kernels._sines(y2, 6).T
            want += _unfactored_node_sums(x, y1, y2, w, h1 * h2, 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_full_call_allocates_under_one_mebibyte(self):
        # CLI-default oracle: N = 256, 256^2 central cell, 8 image radii
        om = SineField(np.random.default_rng(2).standard_normal((256, 256)) / 256.0)
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5))
        oracle.velocity((0.3, 0.4), RegionSpec("full"))
        tracemalloc.start()
        try:
            # a new point, so that the far sum is computed again
            oracle.velocity((0.4, 0.3), RegionSpec("full"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    # x inside the near square, and inside the central cell: both take the
    # principal value.  Measured on x86-64 with numpy 2.4.6: 1.44 and
    # 1.83 MiB, where the held (2, N, N) gradient stack, its transients and
    # the central cell's sine table took 3.82 and 4.22 MB
    @pytest.mark.parametrize("region, bound", [(RegionSpec("near", 8.0), 1.5 * 2**20),
                                               (RegionSpec("full"), 2.5 * 2**20)],
                             ids=["near", "full"])
    def test_principal_value_first_call_allocates_little(self, region, bound):
        om = SineField(np.random.default_rng(2).standard_normal((256, 256)) / 256.0)
        QuadratureOracle(om, KernelParams(alpha=0.5)).velocity((0.03, 0.04), region)
        tracemalloc.start()
        try:
            QuadratureOracle(om, KernelParams(alpha=0.5)).velocity((0.03, 0.04), region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    # N < M, N = M and N > M, past 2M: the central cell's samples by the
    # midpoint transform against the oracle's own sine tables on its nodes
    @pytest.mark.parametrize("n_modes, cells", [(24, 32), (32, 32), (40, 16)])
    def test_central_cell_against_sine_tables(self, n_modes, cells):
        om = SineField(np.random.default_rng(n_modes).standard_normal((n_modes, n_modes)))
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5, cells_central=cells))
        w = oracle._cell_samples(cells)
        assert w.shape == (cells, cells) and oracle._cell_samples(cells) is w
        y, _ = kernels._midpoints(0.0, np.pi, cells)
        table = kernels._sines(y, n_modes)
        want = table @ om.coeffs @ table.T
        np.testing.assert_allclose(w, want, rtol=0, atol=1e-13 * np.abs(want).max())

    # a node sum's row and column factors live in the oracle, and the divides
    # run on tiled samples, so a warm image-cell sum allocates almost nothing:
    # 14.2 and 26.0 KiB measured (x86-64, numpy 2.4.6), against 135 and
    # 195 KiB when each call built its factors and broadcast the samples
    @pytest.mark.parametrize("call, bound", [
        (lambda oracle, x: oracle.velocity(x, RegionSpec("far")), 32 * 1024),
        (lambda oracle, x: oracle.image_tail(x), 48 * 1024)], ids=["far", "image_tail"])
    def test_warm_image_cell_sum_allocates_little(self, call, bound):
        om = SineField(np.random.default_rng(2).standard_normal((256, 256)) / 256.0)
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5))
        call(oracle, (0.3, 0.4))
        tracemalloc.start()
        try:
            call(oracle, (0.4, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestLinearPrincipalValue:
    """kernels._linear_pv_integrals against independent evaluations.

    With u = y1 - x1 and v = y2 - x2 it returns the principal values of
    int -v r^(-2-2a) (w0 + g1 u + g2 v) and int u r^(-2-2a) (w0 + g1 u + g2 v)
    over the rectangle.
    """

    # x off-centre, and on a vertex of every midpoint grid of step 1/(8 * 2^k)
    X = (0.375, 0.25)
    RECT = (0.0, 1.0, 0.0, 0.75)
    LIN = (0.7, -1.3, 2.1)

    def test_closed_form_at_alpha_half(self):
        x1, x2 = self.X
        a1, b1, a2, b2 = self.RECT
        u0, u1, v0, v1 = a1 - x1, b1 - x1, a2 - x2, b2 - x2
        w0, g1, g2 = self.LIN

        def ash(p, q):
            return np.arcsinh(q / abs(p))

        def corners(f):                 # f(u1, v1) - f(u1, v0) - f(u0, v1) + f(u0, v0)
            return f(u1, v1) - f(u1, v0) - f(u0, v1) + f(u0, v0)

        # int -v r^-3, int -u v r^-3 and int v^2 r^-3, and their u <-> v images
        t1 = corners(lambda u, v: ash(v, u))
        t1_u = corners(np.hypot)
        t_vv = u1 * (ash(u1, v1) - ash(u1, v0)) - u0 * (ash(u0, v1) - ash(u0, v0))
        t2 = -corners(lambda u, v: ash(u, v))
        t_uu = v1 * (ash(v1, u1) - ash(v1, u0)) - v0 * (ash(v0, u1) - ash(v0, u0))
        want = (w0 * t1 + g1 * t1_u - g2 * t_vv, w0 * t2 + g1 * t_uu - g2 * t1_u)
        got = kernels._linear_pv_integrals(self.X, self.RECT, 0.5, *self.LIN)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    def test_richardson_midpoint_sums_at_alpha_03(self):
        # With x on a grid vertex the odd parts of the integrand cancel on the
        # symmetric cells around x, so the midpoint sum with step h is
        # I + c h^(2-2a) + b1 h^2 + b2 h^4 + ...; four steps eliminate three terms.
        alpha = 0.3
        x1, x2 = self.X
        a1, b1, a2, b2 = self.RECT
        w0, g1, g2 = self.LIN
        steps = 1.0 / np.array([32.0, 64.0, 128.0, 256.0])
        sums = []
        for h in steps:
            u = (_midpoint_nodes(a1, b1, round((b1 - a1) / h))[0] - x1)[:, None]
            v = _midpoint_nodes(a2, b2, round((b2 - a2) / h))[0] - x2
            rp = (u * u + v * v) ** (-1.0 - alpha) * (w0 + g1 * u + g2 * v)
            sums.append([np.sum(-v * rp) * h * h, np.sum(u * rp) * h * h])
        powers = np.stack([steps ** p for p in (0.0, 2.0 - 2.0 * alpha, 2.0, 4.0)], axis=1)
        want = np.linalg.solve(powers, np.array(sums))[0]
        got = kernels._linear_pv_integrals(self.X, self.RECT, alpha, *self.LIN)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


class TestEdgeIntegralsAgainstMpmath:
    """kernels._edge_moments and _linear_pv_integrals against 30-digit
    mpmath.quad, with x down to c/u ~ 1e-3 of an edge."""

    ALPHAS = [0.25, 0.5, 0.75]
    RECT = (0.0, 1.0, 0.0, 0.75)
    LIN = (0.7, -1.3, 2.1)

    def test_gauss_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        order = np.argsort(kernels._GL_NODES)
        np.testing.assert_allclose(kernels._GL_NODES[order], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(kernels._GL_WEIGHTS[order], weights, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_edge_moments(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        # c/u = 1e-3, u = c and u/c = 1e-3
        u = np.array([1.0, 0.3, 0.3, 1e-3, 0.75])
        c = np.array([1e-3, 0.3, 0.4, 1.0, 0.02])
        got = np.array(kernels._edge_moments(u, c, alpha))
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            want = np.array([[float(mpmath.quad(lambda t: t ** k * (t * t + cc * cc) ** -a,
                                                [0, min(cc, uu), uu]))
                              for uu, cc in zip(u, c)] for k in (0, 1)])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @staticmethod
    def _pv_reference(x, rect, alpha, lin):
        """The edge reduction of _linear_pv_integrals, with each edge
        integral of r^(-2a) or (t - x) r^(-2a) taken by mpmath.quad at 30
        digits, split at the foot of x."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            x1, x2 = map(mpmath.mpf, x)
            a1, b1, a2, b2 = map(mpmath.mpf, rect)
            a = mpmath.mpf(alpha)
            w0, g1, g2 = map(mpmath.mpf, lin)

            def rpow(y1, y2):
                return ((y1 - x1) ** 2 + (y2 - x2) ** 2) ** -a

            def along1(f):
                return mpmath.quad(f, [a1, x1, b1])

            def along2(f):
                return mpmath.quad(f, [a2, x2, b2])

            e1 = along1(lambda t: rpow(t, b2) - rpow(t, a2))
            e1w = along1(lambda t: (t - x1) * (rpow(t, b2) - rpow(t, a2)))
            e2 = along2(lambda t: rpow(b1, t) - rpow(a1, t))
            e2w = along2(lambda t: (t - x2) * (rpow(b1, t) - rpow(a1, t)))
            jv = along2(lambda t: (b1 - x1) * rpow(b1, t) + (x1 - a1) * rpow(a1, t))
            jh = along1(lambda t: (b2 - x2) * rpow(t, b2) + (x2 - a2) * rpow(t, a2))
            j_bulk = (jv + jh) / (2 - 2 * a)
            i1 = (w0 * e1 + g1 * e1w - g2 * (j_bulk - jh)) / (2 * a)
            i2 = (-w0 * e2 + g1 * (j_bulk - jv) - g2 * e2w) / (2 * a)
            return float(i1), float(i2)

    # 1e-3 from the left edge, and 1e-3 and 8e-4 from a corner's two edges
    @pytest.mark.parametrize("x", [(1e-3, 0.3), (0.999, 8e-4)])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_linear_pv_integrals(self, alpha, x):
        got = kernels._linear_pv_integrals(x, self.RECT, alpha, *self.LIN)
        want = self._pv_reference(x, self.RECT, alpha, self.LIN)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _oracle_grids():
    """Midpoint coordinates of the grids an oracle samples at the defaults,
    for a point with L|x| = 0.4 (frames [0.4, 0.8], ..., [1.6, pi])."""
    mid = kernels._midpoints
    frame = [mid(0.4, 0.8, 64)[0], mid(0.0, 0.4, 64)[0]]
    top = [mid(1.6, np.pi, round(128 * (np.pi - 1.6) / np.pi))[0],
           mid(0.0, 1.6, round(128 * 1.6 / np.pi))[0]]
    return {"near": mid(0.0, 0.4, 128)[0], "frame": np.concatenate(frame),
            "top_frame": np.concatenate(top), "central": mid(0.0, np.pi, 256)[0],
            "far_cell": mid(0.0, np.pi, 64)[0]}


class TestSineTables:
    """kernels._sines, built by blocked angle addition, against 30-digit sines."""

    @staticmethod
    def _reference(y, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            return np.array([[float(mpmath.sin(m * mpmath.mpf(float(v))))
                              for m in range(1, n + 1)] for v in y])

    @pytest.mark.parametrize("grid", sorted(_oracle_grids()))
    def test_oracle_grids(self, grid):
        # m y reaches 128 pi ~ 400, where rounding m y alone costs ~3e-14
        y = _oracle_grids()[grid]
        np.testing.assert_allclose(kernels._sines(y, 128), self._reference(y, 128),
                                   rtol=0.0, atol=2e-13)

    @pytest.mark.parametrize("n", [6, 12, 130])
    def test_mode_counts_off_the_block(self, n):
        assert n % kernels._SINE_BLOCK
        y = kernels._midpoints(0.0, np.pi, 40)[0]
        got = kernels._sines(y, n)
        assert got.shape == (40, n)
        np.testing.assert_allclose(got, self._reference(y, n), rtol=0.0, atol=2e-13)


class TestReuseAcrossCalls:
    """Samples and far sums reused from earlier calls give a fresh oracle's sums."""

    @pytest.fixture(scope="class")
    def omega(self):
        rng = np.random.default_rng(9)
        decay = np.add.outer(np.arange(12), np.arange(12) + 1)
        return SineField(rng.standard_normal((12, 12)) / decay)

    PARAMS = KernelParams(alpha=0.5, cells_central=48, cells_panel=32, cells_far=16,
                          image_radius=3)

    @staticmethod
    def _count(monkeypatch, name):
        calls = [0]
        real = getattr(kernels, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
        return calls

    def _fresh(self, omega, x, region, params=None):
        return QuadratureOracle(omega, params or self.PARAMS).velocity(x, region)

    def test_near_side_repeated(self, omega, monkeypatch):
        oracle = QuadratureOracle(omega, self.PARAMS)
        region = RegionSpec("near", 4.0)
        # (0.03, 0.04) and its swap share the side L|x| = 0.2 exactly; the
        # third point has another side
        points = [(0.03, 0.04), (0.04, 0.03), (0.05, 0.03)]
        got = [oracle.velocity(points[0], region)]
        sines = self._count(monkeypatch, "_sines")
        got.append(oracle.velocity(points[1], region))
        assert sines[0] == 0
        got.append(oracle.velocity(points[2], region))
        for x, u in zip(points, got):
            np.testing.assert_array_equal(u, self._fresh(omega, x, region))

    def test_medium_frames_shared_between_scales(self, omega, monkeypatch):
        oracle = QuadratureOracle(omega, self.PARAMS)
        region = RegionSpec("medium", 4.0)
        sines = self._count(monkeypatch, "_sines")
        # s = 0.2, then s/2 (one new frame below the same upper frames), then
        # s/16, whose frames need more slots than the first two calls had,
        # then s again: its frames kept their slots
        points = [(0.03, 0.04), (0.015, 0.02), (0.001875, 0.0025), (0.04, 0.03)]
        got = []
        for x, new_frames in zip(points, (4, 1, 3, 0)):
            before, keys = sines[0], {slot: held[0] for slot, held in oracle._slots.items()}
            got.append(oracle.velocity(x, region))
            # the frames filled are the slots whose key changed, and they
            # share one sine table on their [yb | ya]
            filled = [slot for slot, held in oracle._slots.items() if keys.get(slot) != held[0]]
            assert len(filled) == new_frames
            assert sines[0] - before == min(new_frames, 1)
        for x, u in zip(points, got):
            np.testing.assert_array_equal(u, self._fresh(omega, x, region))

    def test_new_slots_leave_held_ones_in_place(self, omega):
        # s, then s/16 with more frames: each slot is its own array, so a
        # call that needs more slots neither moves nor copies the held ones
        oracle = QuadratureOracle(omega, self.PARAMS)
        region = RegionSpec("medium", 4.0)
        oracle.velocity((0.03, 0.04), region)
        held = {slot: samples for slot, (_, samples) in oracle._slots.items()}
        oracle.velocity((0.001875, 0.0025), region)
        assert len(oracle._slots) > len(held)
        assert all(oracle._slots[slot][1] is samples for slot, samples in held.items())

    def test_full_after_far_reuses_the_far_sum(self, omega, monkeypatch):
        oracle = QuadratureOracle(omega, self.PARAMS)
        x = (0.3, 0.4)
        far = oracle.velocity(x, RegionSpec("far"))
        sums = self._count(monkeypatch, "_node_sums")
        full = oracle.velocity(x, RegionSpec("full"))
        assert sums[0] == 1                     # the central cell only
        np.testing.assert_array_equal(far, self._fresh(omega, x, RegionSpec("far")))
        np.testing.assert_array_equal(full, self._fresh(omega, x, RegionSpec("full")))

    def test_linearization_holds_the_gradient_only(self, omega):
        # omega(x) and grad omega(x) come from the field's own coefficients:
        # after a principal-value call the oracle holds no n x n array but
        # omega's own, every value is the one a single evaluate_points call
        # with the three terms gives, and the gradient is that of the
        # spectral_derivative fields to rounding
        oracle = QuadratureOracle(omega, self.PARAMS)
        x = (0.03, 0.04)
        oracle.velocity(x, RegionSpec("near", 4.0))     # x inside the near square
        n = omega.n_modes
        held = [a for a in vars(oracle).values() if isinstance(a, np.ndarray)]
        assert not [a.shape for a in held if a.shape[-2:] == (n, n)]
        terms = (Term(0, ("sin", "sin")), Term(0, ("cos", "sin"), (1, 0)),
                 Term(0, ("sin", "cos"), (0, 1)))
        d1, d2 = (spectral_derivative(omega, axis, 1) for axis in (1, 2))
        for y in (x, (1.1, 0.4)):
            got = oracle._linearization(y)
            assert got == tuple(evaluate_points(omega.coeffs[None], terms, y).tolist())
            want = (evaluate_offgrid(omega, y), d1.evaluate_at(y), d2.evaluate_at(y))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_slot_holds_floored_frame(self, omega):
        # at cells_panel = 16 the top frame [2.9, pi] of s = 0.725 has
        # na = 8 (floored from 1) and nb = 15: 304 samples, more than 16^2
        params = replace(self.PARAMS, cells_panel=16)
        oracle = QuadratureOracle(omega, params)
        region = RegionSpec("medium", 4.0)
        for x in ((0.10875, 0.145), (0.145, 0.10875), (0.10875, 0.145)):
            np.testing.assert_array_equal(oracle.velocity(x, region),
                                          self._fresh(omega, x, region, params))

    def test_warm_medium_calls_hold_no_memory(self, omega):
        oracle = QuadratureOracle(omega, self.PARAMS)
        region = RegionSpec("medium", 4.0)
        # every s = 4|x| in [0.4, 0.75] has three frames
        scales = np.linspace(0.1, 0.1875, 21)

        def array_bytes():
            numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(numpy_only).traces)

        tracemalloc.start()
        try:
            oracle.velocity((0.6 * scales[0], 0.8 * scales[0]), region)
            held, arrays = tracemalloc.get_traced_memory()[0], array_bytes()
            for r in scales[1:]:
                oracle.velocity((0.6 * r, 0.8 * r), region)
            # every array the calls left is still the same size; Python's
            # free lists of small objects may hold a few hundred bytes more
            # or less, under one frame's samples (at least 3 * 8^2 floats)
            assert array_bytes() == arrays
            assert abs(tracemalloc.get_traced_memory()[0] - held) < 1024
        finally:
            tracemalloc.stop()

    def test_warm_medium_call_at_cli_sizes_allocates_under_128_kib(self):
        # glibc maps each allocation of at least MALLOC_MMAP_THRESHOLD_ (the
        # benchmark pins 128 KiB) freshly and faults in its pages on every
        # call; a frame's sine table at N = 128 is 136 x 128 floats, more
        # than that, so it and every other per-call array must stay smaller
        om = SineField(np.random.default_rng(6).standard_normal((128, 128)) / 128.0)
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5))
        region = RegionSpec("medium", 8.0)
        # L|x| = 0.48, then 0.4: three frames each, all of them new
        oracle.velocity((0.036, 0.048), region)
        tracemalloc.start()
        try:
            oracle.velocity((0.03, 0.04), region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_warm_medium_calls_along_a_path_allocate_under_64_kib(self):
        # the monitor's use at N = 128: each sample a new point whose frames
        # are all new, so every frame fills its samples and sums two grids;
        # a grid-sized temporary would add 64 KiB and more (a sine table is
        # 136 KiB, a grid's weighted powers 256 KiB); 33 KiB measured
        # (x86-64, numpy 2.4.6) with all frames on one sine table, against
        # 57 KiB when numpy buffered each frame's power products
        om = SineField(np.random.default_rng(7).standard_normal((128, 128)) / 128.0)
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5))
        region = RegionSpec("medium", 8.0)
        oracle.velocity((0.0342, 0.0074), region)
        peaks = []
        for step in range(1, 4):
            x = (0.0342 - 0.002 * step, 0.0074 + 0.003 * step)
            tracemalloc.start()
            try:
                oracle.velocity(x, region)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 64 * 1024


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_inverse_powers_same_bits_as_the_copied_power(alpha):
    # the root goes straight from d into p; the result is that of copying d
    # into p, raising it in place and multiplying by d, bit for bit
    rng = np.random.default_rng(int(alpha * 100))
    d = rng.uniform(0.0, 10.0, (4, 7, 33)) ** 3 * rng.uniform(1e-6, 1.0, (4, 7, 33))
    d[0, 0, :3] = (0.0, 1.0, 4.0)
    p = np.empty_like(d)
    kernels._inverse_powers(d, p, alpha)
    want = np.empty_like(d)
    want[...] = d
    want **= alpha
    want *= d
    assert np.array_equal(p.view(np.int64), want.view(np.int64))


def _per_frame_medium(omega, params, x, L):
    """The medium sum frame by frame: each frame sampled from its own sine
    table and summed as its two grids, the frames added lowest first."""
    npanel, n = params.cells_panel, omega.n_modes
    x = (float(x[0]), float(x[1]))
    u1 = u2 = 0.0
    for lo, hi in QuadratureOracle(omega, params)._medium_frames(L * float(np.hypot(*x))):
        na = max(8, int(round(npanel * (hi - lo) / hi)))
        nb = max(8, int(round(npanel * lo / hi)))
        y, cw = np.empty((2, nb + na))
        _, hb = kernels._midpoints(0.0, lo, nb, y[:nb])
        _, ha = kernels._midpoints(lo, hi, na, y[nb:])
        cw[:nb] = ha * hb
        cw[nb:] = ha * ha
        table = kernels._sines(y, n)
        cy, st = table @ omega.coeffs, table.T
        sums = []
        for y1, y2, w, weights in ((y[nb:], y, cy[nb:] @ st, cw),
                                   (y[:nb], y[nb:], cy[:nb] @ st[:, nb:], hb * ha)):
            work = np.empty((3, kernels._node_room(*w.shape)))
            factors = np.empty(kernels._factor_room(*w.shape))
            sums.append(kernels._node_sums(x, y1, y2, w, weights, params.alpha, work, factors))
        (a1, a2), (b1, b2) = sums
        u1 += a1 + b1
        u2 += a2 + b2
    return u1, u2


class TestMediumCallSamplesItsFramesTogether:
    """A medium call samples its stale frames from shared sine tables; every
    sum keeps the bits of sampling and summing frame by frame."""

    @pytest.fixture(scope="class")
    def omega(self):
        rng = np.random.default_rng(11)
        decay = np.add.outer(np.arange(20), np.arange(20) + 1)
        return SineField(rng.standard_normal((20, 20)) / decay)

    # one frame (s >= pi/2); dyadic frames below a clipped top; a floored
    # top frame [2.9, pi] (na = 8 from 1 at cells_panel = 16); and s, then
    # s/2, whose call holds every frame but the new lowest one
    CASES = {"one_frame": (32, [(0.3, 0.4)]),
             "dyadic_and_top": (32, [(0.021, 0.028)]),
             "floored_top": (16, [(0.10875, 0.145)]),
             "stale_and_held": (32, [(0.03, 0.04), (0.015, 0.02)])}

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bits_as_frame_by_frame(self, omega, case, alpha):
        npanel, points = self.CASES[case]
        params = KernelParams(alpha=alpha, cells_panel=npanel)
        oracle = QuadratureOracle(omega, params)
        for x in points:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")      # L|x| > 1 for one frame
                got = oracle.velocity(x, RegionSpec("medium", 4.0))
            assert got == _per_frame_medium(omega, params, x, 4.0)

    def test_frames_split_over_tables_keep_their_bits(self, omega, monkeypatch):
        # a table of room for one frame: every frame takes a table of its own
        monkeypatch.setattr(kernels, "_TABLE_NODES", 1)
        params = KernelParams(alpha=0.5, cells_panel=32)
        x = (0.021, 0.028)
        got = QuadratureOracle(omega, params).velocity(x, RegionSpec("medium", 4.0))
        assert got == _per_frame_medium(omega, params, x, 4.0)

    def test_four_frame_call_makes_one_sine_table(self, monkeypatch):
        # the trace workload's monitor at N = 128, L = 8, |x| = 0.035: frames
        # [0.28, 0.56], [0.56, 1.12], [1.12, 2.24] and [2.24, pi], 128
        # coordinates each; frame by frame this took four tables
        om = SineField(np.random.default_rng(4).standard_normal((128, 128)) / 128.0)
        oracle = QuadratureOracle(om, KernelParams(alpha=0.5))
        counts = {}
        for name in ("_sines", "_node_sums"):
            real = getattr(kernels, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(kernels, name, counted)
        x = (0.035 * 0.6, 0.035 * 0.8)
        assert len(oracle._medium_frames(8.0 * float(np.hypot(*x)))) == 4
        oracle.velocity(x, RegionSpec("medium", 8.0))
        assert counts == {"_sines": 1, "_node_sums": 8}


def _copied_powers(z, k, out):
    """The powers as numpy computes them written in place: each doubling
    step's product straight into out."""
    out[..., 0] = 1.0
    if k:
        out[..., 1] = z
    have = 1
    while have < k:
        m = min(have, k - have)
        np.multiply(out[..., 1:1 + m], out[..., have:have + 1], out=out[..., have + 1:have + 1 + m])
        have += m
    return out


@pytest.mark.parametrize("n", [1, 3, 16, 128, 512])
def test_powers_same_bits_as_written_in_place(n):
    # every power count up to a sine block, on as many coordinates as a
    # medium call's shared table holds
    z = np.exp(1j * np.random.default_rng(n).uniform(0.0, np.pi, n))
    for k in range(kernels._SINE_BLOCK + 1):
        want = _copied_powers(z, k, np.empty((n, k + 1), complex))
        got = kernels._powers(z, k, np.empty((n, k + 1), complex), np.empty(n * k, complex))
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
