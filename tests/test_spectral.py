"""Sine-basis transforms, derivatives, velocity law, and norms."""

import importlib.machinery
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import fft as sfft
from scipy.fft._pocketfft import pypocketfft

from msqglab import spectral
from msqglab.spectral import (
    _eval_axis, _eval_midpoint_axis, _max_abs, _midpoint_slot,
    GRADIENT_TERMS, HESSIAN_TERMS, VALUE_TERMS, VELOCITY_TERMS, GridField, GridMax,
    MixedParityField, SineField, Term, evaluate_midpoints, evaluate_offgrid,
    evaluate_points, dealias_grid, environment, forward_transform, fractional_inverse_laplacian,
    get_workers, grid_coordinates, grid_max_abs, hessian_sup_norm, inverse_transform, l2_norm,
    spectral_derivative, velocity_coefficients)

SRC = Path(__file__).resolve().parents[1] / "src"


def grid_xy(n):
    x = grid_coordinates(n)
    return np.meshgrid(x, x, indexing="ij")


class TestTransforms:
    def test_single_mode_forward(self):
        x1, x2 = grid_xy(16)
        g = GridField(np.sin(x1) * np.sin(x2))
        f = forward_transform(g, 4)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(f.coeffs, expect, atol=1e-14)

    def test_scaled_mode_forward(self):
        x1, x2 = grid_xy(32)
        g = GridField(3.0 * np.sin(2 * x1) * np.sin(5 * x2))
        f = forward_transform(g, 8)
        assert f.coeffs[1, 4] == pytest.approx(3.0, abs=1e-13)
        mask = np.ones((8, 8), dtype=bool)
        mask[1, 4] = False
        assert np.abs(f.coeffs[mask]).max() < 1e-13

    def test_linearity(self):
        x1, x2 = grid_xy(32)
        g = GridField(np.sin(x1) * np.sin(x2) + 0.5 * np.sin(3 * x1) * np.sin(x2))
        f = forward_transform(g, 6)
        assert f.coeffs[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert f.coeffs[2, 0] == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip_band_limited(self):
        rng = np.random.default_rng(0)
        f = SineField(rng.normal(size=(13, 13)))
        for n_grid in (26, 40, 64):
            back = forward_transform(inverse_transform(f, n_grid), 13)
            np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-12, atol=1e-13)

    def test_resolution_precondition(self):
        f = SineField.zeros(8)
        with pytest.raises(ValueError, match="n_grid"):
            inverse_transform(f, 15)
        with pytest.raises(ValueError, match="n_grid"):
            forward_transform(GridField(np.zeros((15, 15))), 8)

    def test_nonfinite_rejected(self):
        vals = np.zeros((16, 16))
        vals[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward_transform(GridField(vals), 4)
        with pytest.raises(ValueError, match="non-finite"):
            SineField(np.full((4, 4), np.inf))

    def test_inverse_values(self):
        f = SineField.from_modes({(1, 1): 1.0}, 4)
        g = inverse_transform(f, 16)
        assert g.values[8, 8] == pytest.approx(1.0, abs=1e-14)   # (pi/2, pi/2)
        assert np.abs(inverse_transform(SineField.zeros(4), 16).values).max() == 0.0
        g2 = inverse_transform(SineField.from_modes({(2, 1): 1.0}, 4), 16)
        assert g2.values[8, 8] == pytest.approx(0.0, abs=1e-14)  # sin(pi) = 0

    def test_boundary_rows_zero(self):
        rng = np.random.default_rng(1)
        g = inverse_transform(SineField(rng.normal(size=(5, 5))), 20)
        assert np.abs(g.values[0, :]).max() == 0.0
        assert np.abs(g.values[:, 0]).max() == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(2)
        f = SineField(rng.normal(size=(9, 9)))
        for n_grid in (18, 32):
            vals = inverse_transform(f, n_grid).values
            grid_l2 = np.sqrt(np.sum(vals**2) * (np.pi / n_grid) ** 2)
            assert grid_l2 == pytest.approx(l2_norm(f), rel=1e-10)


PARITY_PAIRS = [("sin", "sin"), ("sin", "cos"), ("cos", "sin"), ("cos", "cos")]


class TestStackedEvaluation:
    @pytest.mark.parametrize("parity", PARITY_PAIRS)
    def test_stack_equals_single_fields(self, parity):
        # _eval_axis carries the stack axis along and each field of the stack
        # matches its own evaluate; one evaluate_points call on a stack that
        # mixes this parity with the other three matches the grid values of
        # every entry, and evaluate_at (a stack of one) is its entry bit for bit
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=(2, 9, 9))
        n_grid = 27                        # odd, and 2 * 27 is not a power of two
        stacked = _eval_axis(_eval_axis(coeffs, parity[0], n_grid, -2), parity[1], n_grid, -1)
        assert stacked.shape == (2, n_grid, n_grid)
        x1, x2 = grid_xy(n_grid)
        pts = np.stack([x1, x2], axis=-1)
        others = [p for p in PARITY_PAIRS if p != parity]
        mixed = np.concatenate([coeffs, rng.normal(size=(3, 9, 9))])
        terms = [Term(k, p) for k, p in enumerate([parity, parity] + others)]
        direct = evaluate_points(mixed, terms, pts)
        assert direct.shape == (5, n_grid, n_grid)
        for k in range(2):
            single = MixedParityField(coeffs[k], parity)
            np.testing.assert_allclose(stacked[k], single.evaluate(n_grid).values,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(stacked[k], direct[k], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(single.evaluate_at(pts), direct[k])
        for k, other in enumerate(others, start=2):
            grid = MixedParityField(mixed[k], other).evaluate(n_grid).values
            np.testing.assert_allclose(grid, direct[k], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("axis", [-2, -1])
    def test_axis_transform_in_place_in_given_buffer(self, parity, axis):
        rng = np.random.default_rng(10)
        coeffs = rng.normal(size=(2, 9, 9))
        n_grid = 27
        expect = _eval_axis(coeffs, parity, n_grid, axis)
        shape = [2, 9, 9]
        shape[axis] = n_grid + 3             # longer than any output, with stale contents
        buf = np.full(shape, np.nan)
        got = _eval_axis(coeffs, parity, n_grid, axis, buf=buf)
        assert np.shares_memory(got, buf)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("axis", [-2, -1])
    def test_midpoint_axis_against_direct_sum(self, parity, axis):
        # twice the series at pi*(j+1/2)/M, in place in a buffer with stale contents
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(2, 9, 9))
        n_mid = 14
        x = np.pi * (np.arange(n_mid) + 0.5) / n_mid
        basis = 2.0 * getattr(np, parity)(np.outer(x, np.arange(1, 10)))   # (M, modes)
        expect = np.moveaxis(np.moveaxis(coeffs, axis, -1) @ basis.T, -1, axis)
        shape = [2, 9, 9]
        shape[axis] = n_mid
        buf = np.full(shape, np.nan)
        _midpoint_slot(buf, parity, 9, axis)[...] = coeffs
        assert _eval_midpoint_axis(buf, parity, 9, axis, 1) is buf
        np.testing.assert_allclose(buf, expect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_modes, n_mid", [(20, 32), (32, 32), (45, 16), (100, 16)])
    def test_midpoint_grid_against_sine_tables(self, n_modes, n_mid):
        # N < M; N = M, whose mode M the type III takes once; N > M, whose
        # modes above M fold onto the grid, from past 2M too at N = 45, 100
        rng = np.random.default_rng(n_modes)
        coeffs = rng.normal(size=(n_modes, n_modes))
        y = np.pi * (np.arange(n_mid) + 0.5) / n_mid
        table = np.sin(np.outer(y, np.arange(1, n_modes + 1)))
        want = table @ coeffs @ table.T
        np.testing.assert_allclose(evaluate_midpoints(coeffs, n_mid), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("n_modes, n_mid", [(45, 16), (100, 16), (256, 64)])
    def test_fold_sums_each_target_in_mode_order(self, n_modes, n_mid, axis):
        # bit for bit the sum 0 + s_1 c_1 + s_2 c_2 + ... over the modes
        # that fold onto each target, in ascending order
        coeffs = np.random.default_rng(n_modes).normal(size=(n_modes, n_modes))
        m = np.arange(1, n_modes + 1)
        t, q = m % (2 * n_mid), m // (2 * n_mid)
        want = np.zeros((n_mid + 1, n_modes))
        np.add.at(want, np.minimum(t, 2 * n_mid - t),
                  np.where(q % 2, -1.0, 1.0)[:, None] * np.moveaxis(coeffs, axis, 0))
        got = spectral._fold_modes(coeffs, n_mid, axis)
        np.testing.assert_array_equal(got, np.moveaxis(want[1:], 0, axis))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_fold_allocates_its_output_only(self, axis):
        # N = 256 modes onto the M = 64 midpoints of an image cell: the fold
        # holds its M x N output and no N x N array, nor a numpy iteration
        # buffer (each 1-D slice is one ufunc call).  Measured on x86-64 with
        # numpy 2.4.6: 128.5 KiB, where an N x N signed copy of the
        # coefficients took 718 KiB
        coeffs = np.random.default_rng(3).normal(size=(256, 256))
        spectral._fold_modes(coeffs, 64, axis)
        tracemalloc.start()
        try:
            spectral._fold_modes(coeffs, 64, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 64 * 256 + 4096

    def test_powers_give_the_derivatives(self):
        # m^p1 n^p2 on the table rows: d1, d2, d11 and d12 of a sine series
        # to rounding; an entry's values are the same bits whatever other
        # entries the call names
        rng = np.random.default_rng(17)
        f = SineField(rng.normal(size=(9, 9)))
        pts = rng.uniform(0.0, np.pi, (5, 2))
        terms = [Term(0, ("cos", "sin"), (1, 0)), Term(0, ("sin", "cos"), (0, 1)),
                 Term(0, ("sin", "sin"), (2, 0)), Term(0, ("cos", "cos"), (1, 1))]
        m = np.arange(1.0, 10.0)
        want = [spectral_derivative(f, 1, 1).evaluate_at(pts),
                spectral_derivative(f, 2, 1).evaluate_at(pts),
                -spectral_derivative(f, 1, 2).evaluate_at(pts),
                MixedParityField(f.coeffs * np.outer(m, m), ("cos", "cos")).evaluate_at(pts)]
        alone = evaluate_points(f.coeffs[None], terms, pts)
        np.testing.assert_allclose(alone, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        stack = np.stack([rng.normal(size=(9, 9)), f.coeffs])
        both = evaluate_points(stack, terms + [t._replace(entry=1) for t in terms], pts)
        np.testing.assert_array_equal(both[4:], alone)
        with pytest.raises(ValueError, match="consecutive entries"):
            evaluate_points(stack, terms[:1] + [t._replace(entry=1) for t in terms], pts)

    def test_midpoint_slot_needs_more_points_than_modes(self):
        assert _midpoint_slot(np.empty((4, 5)), "cos", 4, -1).shape == (4, 4)
        with pytest.raises(ValueError, match="midpoints"):
            _midpoint_slot(np.empty((4, 4)), "cos", 4, -1)

    def test_invalid_parity(self):
        with pytest.raises(ValueError, match="parity"):
            MixedParityField(np.zeros((4, 4)), ("sin", "tan"))
        with pytest.raises(ValueError, match="parity"):
            evaluate_points(np.zeros((1, 4, 4)), [Term(0, ("sin", "tan"))], (0.1, 0.2))
        with pytest.raises(ValueError, match="entries 0..1 of a stack of 1"):
            terms = [Term(0, PARITY_PAIRS[0]), Term(1, PARITY_PAIRS[1])]
            evaluate_points(np.zeros((1, 4, 4)), terms, (0.1, 0.2))

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    def test_modes_must_fit_the_grid(self, parity):
        assert _eval_axis(np.ones(7), parity, 8, 0).shape == (8,)
        with pytest.raises(ValueError, match="do not fit"):
            _eval_axis(np.ones(8), parity, 8, 0)


class TestGridMax:
    # sin-last after cos-last and the reverse, so each pair finds the shared
    # (g, g+1) grid buffer holding another pair's values
    ORDER = [("sin", "cos"), ("cos", "sin"), ("sin", "sin"), ("cos", "cos"), ("sin", "cos")]
    # the mode-number powers of every term the package takes a maximum of
    POWERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @staticmethod
    def reference(coeffs, parity, powers, n_grid):
        """The max over the grid that MixedParityField.evaluate allocates, of
        the coefficients weighted by m^p1 and then by n^p2."""
        m = np.arange(1.0, len(coeffs) + 1)
        weighted = coeffs * m[:, None] ** powers[0] * m ** powers[1]
        return _max_abs(MixedParityField(weighted, parity).evaluate(n_grid).values)

    @pytest.mark.parametrize("n_grid", [27, 64])
    def test_held_buffers_match_evaluate_grid(self, n_grid):
        # each term of a stack entry, bit for bit
        rng = np.random.default_rng(12)
        grid_max = GridMax(9, n_grid)
        for parity in self.ORDER:
            for powers in self.POWERS:
                stack = rng.normal(size=(2, 9, 9))
                expect = self.reference(stack[1], parity, powers, n_grid)
                assert grid_max(stack, [Term(1, parity, powers)]) == expect

    def test_many_terms_give_the_largest(self):
        # any order of entries and terms, the stack read in place
        stack = np.random.default_rng(18).normal(size=(2, 9, 9))
        before = stack.copy()
        terms = [Term(1, ("cos", "sin"), (1, 0)), Term(0, ("cos", "cos"), (1, 1)),
                 Term(1, ("sin", "sin"), (0, 2)), Term(0, ("sin", "cos"))]
        grid_max = GridMax(9, 27)
        assert grid_max(stack, terms) == max(grid_max(stack, [term]) for term in terms)
        assert grid_max(stack, []) == 0.0
        np.testing.assert_array_equal(stack, before)

    @pytest.mark.parametrize("parity", ORDER[:4])
    def test_nan_coefficient_gives_nan(self, parity):
        # for every power, and before or after a finite term
        grid_max = GridMax(4, 8)
        grid_max(np.ones((1, 4, 4)), [Term(0, ("cos", "cos"))])
        stack = np.ones((2, 4, 4))
        stack[1, 1, 2] = np.nan
        for powers in self.POWERS:
            assert math.isnan(grid_max(stack, [Term(1, parity, powers)]))
            finite, bad = Term(0, parity, powers), Term(1, parity, powers)
            assert math.isnan(grid_max(stack, [finite, bad]))
            assert math.isnan(grid_max(stack, [bad, finite]))

    def test_invalid_parity(self):
        with pytest.raises(ValueError, match="parity"):
            GridMax(4, 8)(np.zeros((1, 4, 4)), [Term(0, ("sin", "tan"))])

    def test_grid_holds_twice_the_modes(self):
        # the weights take the N rows past the mode slot
        assert GridMax(4, 8).n_grid == 8
        with pytest.raises(ValueError, match="2\\*N"):
            GridMax(4, 7)

    @pytest.mark.parametrize("parity", ORDER[:4])
    @pytest.mark.parametrize("rows", [1, 7, 128, 160])
    def test_row_blocks_give_the_same_bits(self, parity, rows, monkeypatch):
        # the second-axis transform in blocks of 1, 7 (the last one of 6),
        # 128 (then 32) and all 160 grid rows: the maximum of the grid that
        # MixedParityField.evaluate allocates, bit for bit, for every power
        n_modes, n_grid = 48, 160
        coeffs = np.random.default_rng(15).normal(size=(n_modes, n_modes))
        monkeypatch.setattr(spectral, "_GRID_MAX_ROWS", rows)
        grid_max = GridMax(n_modes, n_grid)
        assert grid_max._grid.shape == (rows, n_grid + 1)
        for powers in self.POWERS:
            expect = self.reference(coeffs, parity, powers, n_grid)
            assert grid_max(coeffs[None], [Term(0, parity, powers)]) == expect

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_nan_in_any_block_gives_nan(self, block, monkeypatch):
        # a NaN in the first-axis rows of the first, the middle or the last
        # of three blocks of rows, where a NaN coefficient arrives, for
        # every power: a NaN row bound rules nothing out
        monkeypatch.setattr(spectral, "_GRID_MAX_ROWS", 8)
        grid_max = GridMax(4, 24)
        real = spectral._eval_axis

        def poisoned(coeffs, parity, n_grid, axis, *args, **kwargs):
            out = real(coeffs, parity, n_grid, axis, *args, **kwargs)
            if axis == -2:              # the first axis, one call per term
                out[8 * block + 3, 2] = np.nan
            return out

        monkeypatch.setattr(spectral, "_eval_axis", poisoned)
        for powers in self.POWERS:
            assert math.isnan(grid_max(np.ones((1, 4, 4)), [Term(0, ("sin", "sin"), powers)]))

    @staticmethod
    def decaying_stack(n_modes, seed):
        # two entries whose spectra fall off at different rates, so that the
        # bounds rule terms and rows out
        rng = np.random.default_rng(seed)
        m = np.arange(1.0, n_modes + 1)
        decay = np.stack([1.0 / np.multiply.outer(m, m) ** 2, 0.7 / np.multiply.outer(m, m) ** 1.5])
        return rng.normal(size=(2, n_modes, n_modes)) * decay

    def exhaustive(self, stack, terms, n_grid):
        # np.max, unlike the builtin, keeps a NaN wherever it comes
        return float(np.max([self.reference(stack[t.entry], t.parity, t.powers, n_grid)
                             for t in terms], initial=0.0))

    @pytest.mark.parametrize("n_grid", [27, 64, 160])
    @pytest.mark.parametrize("rows", [1, 7, 128, 160])
    def test_pruned_maxima_are_the_exhaustive_ones(self, n_grid, rows, monkeypatch):
        # every parity and power alone, then with a term on the other entry
        # in both orders, then three terms in every order: the exhaustive
        # maximum, bit for bit
        monkeypatch.setattr(spectral, "_GRID_MAX_ROWS", rows)
        n_modes = n_grid // 3
        stack = self.decaying_stack(n_modes, n_grid + rows)
        grid_max = GridMax(n_modes, n_grid)
        kinds = [(parity, powers) for parity in self.ORDER[:4] for powers in self.POWERS]
        for k, kind in enumerate(kinds):
            term, other = Term(0, *kind), Term(1, *kinds[(5 * k + 3) % len(kinds)])
            assert grid_max(stack, [term]) == self.exhaustive(stack, [term], n_grid)
            want = self.exhaustive(stack, [term, other], n_grid)
            assert grid_max(stack, [term, other]) == want
            assert grid_max(stack[::-1].copy(), [other._replace(entry=0), term._replace(entry=1)]
                            ) == want
        three = [Term(0, *kinds[3]), Term(0, *kinds[10]), Term(0, *kinds[17])]
        want = self.exhaustive(stack, three, n_grid)
        for order in itertools.permutations(three):
            assert grid_max(stack, list(order)) == want

    @pytest.fixture(scope="class")
    def plateau(self):
        # the delta=0.35 plateau at N=64, Ng=128 and its state after a short
        # run: omega and the stream function whose velocity the CFL step takes
        from msqglab.evolution import ExperimentConfig, run
        from msqglab.initial_data import InitialDataSpec, build_omega0

        omega0 = build_omega0(InitialDataSpec(delta=0.35, n_modes=64, n_grid=128))
        later = run(ExperimentConfig(alpha=0.5, n_modes=64, n_grid=128, t_final=0.02,
                                     delta=0.35), omega0).state.omega
        symbol = spectral._laplacian_power(64, 0.5)
        return [np.stack([om.coeffs, om.coeffs / symbol]) for om in (omega0, later)]

    @pytest.mark.parametrize("rows", [7, 128])
    def test_plateau_maxima_are_the_exhaustive_ones(self, plateau, rows, monkeypatch):
        monkeypatch.setattr(spectral, "_GRID_MAX_ROWS", rows)
        grid_max = GridMax(64, 128)
        for stack in plateau:
            for terms in (VALUE_TERMS, GRADIENT_TERMS, HESSIAN_TERMS):
                assert grid_max(stack, terms) == self.exhaustive(stack, terms, 128)
            velocity = [t._replace(entry=1) for t in VELOCITY_TERMS]
            assert grid_max(stack, velocity) == self.exhaustive(stack, velocity, 128)

    @staticmethod
    def spy(monkeypatch):
        """The shapes of every _eval_axis call, by axis."""
        real, calls = spectral._eval_axis, {-2: [], -1: []}

        def counted(coeffs, parity, n_grid, axis, *args, **kwargs):
            calls[axis].append(coeffs.shape)
            return real(coeffs, parity, n_grid, axis, *args, **kwargs)

        monkeypatch.setattr(spectral, "_eval_axis", counted)
        return calls

    def test_plateau_hessian_transforms_a_quarter_of_its_rows(self, plateau, monkeypatch):
        # of the 3 Ng second-axis rows that the three Hessian entries hold,
        # at most a quarter are transformed, at the start and after the run
        # (32 of 384 measured: d12's bound is below d11's maximum, and one
        # run of 32 rows holds every row bound of d11 and d22 above it)
        grid_max = GridMax(64, 128)
        for stack in plateau:
            want = self.exhaustive(stack, HESSIAN_TERMS, 128)
            calls = self.spy(monkeypatch)
            assert grid_max(stack, HESSIAN_TERMS) == want
            assert sum(shape[0] for shape in calls[-1]) <= 3 * 128 // 4

    def test_term_bounded_by_the_running_maximum_makes_no_transform(self, monkeypatch):
        # entry 1's bound, 1, is below entry 0's maximum, 2 at x = (pi/2, pi/2),
        # in whichever order the terms come
        stack = np.zeros((2, 4, 4))
        stack[0, 0, 0], stack[1, 0, 0] = 2.0, 1.0
        grid_max = GridMax(4, 8)
        for terms in ([Term(0, ("sin", "sin")), Term(1, ("sin", "sin"))],
                      [Term(1, ("sin", "sin")), Term(0, ("sin", "sin"))]):
            calls = self.spy(monkeypatch)
            assert grid_max(stack, terms) == 2.0
            assert calls[-2] == [(4, 4)]

    def test_bound_just_above_the_maximum_is_not_ruled_out(self):
        # entry 1 holds one mode whose bound is its grid maximum, 1e-7 above
        # entry 0's maximum but below entry 0's bound, so entry 0 goes first
        # and entry 1 must still be transformed: a margin short by 1e-7 fails
        stack = np.zeros((2, 4, 4))
        stack[0, 0, 0], stack[0, 1, 0] = 1.0, 0.5
        first = self.reference(stack[0], ("sin", "sin"), (0, 0), 16)
        stack[1, 0, 0] = first * (1.0 + 1e-7)
        terms = [Term(0, ("sin", "sin")), Term(1, ("sin", "sin"))]
        want = self.exhaustive(stack, terms, 16)
        assert want > first and GridMax(4, 16)(stack, terms) == want

    def test_rule_out_only_finite_bounds_below_the_ceiling(self):
        # a bound at most the maximum rules out; NaN, inf and any bound above
        # the ceiling do not, whatever the maximum, inf and NaN included
        ceiling = spectral._BOUND_CEILING
        assert spectral._ruled_out(2.0, 2.0) and spectral._ruled_out(ceiling, math.inf)
        assert not spectral._ruled_out(2.0, 1.5)
        for limit in (math.nan, math.inf, 2.0 * ceiling):
            for best in (0.0, 1e308, math.inf, math.nan):
                assert not spectral._ruled_out(limit, best)
        assert not spectral._ruled_out(1.0, math.nan)

    def test_overflowing_bound_rules_nothing_out(self):
        # coefficients of about 1e306 whose l1 bounds overflow to inf, alone
        # and beside a finite entry in both orders: the exhaustive maximum
        rng = np.random.default_rng(21)
        big = 1e306 * rng.choice([-1.0, 1.0], size=(16, 16))
        small = self.decaying_stack(16, 21)[0]
        grid_max = GridMax(16, 32)
        for stack in (np.stack([big, small]), np.stack([small, big])):
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isinf(np.abs(stack).sum(axis=(1, 2))).any()
                for parity in self.ORDER[:4]:
                    for powers in self.POWERS:
                        terms = [Term(0, parity, powers), Term(1, parity, powers)]
                        got, want = grid_max(stack, terms), self.exhaustive(stack, terms, 32)
                        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_one_off_scratch_is_one_block_of_rows(self):
        # (Ng+1)(N+128) doubles at N=256, Ng=512, 1.58 MB; the whole
        # second-axis grid took (Ng+1)(N+Ng), 3.15 MB
        assert 8 * GridMax.scratch_size(256, 512) <= 1.6e6
        assert GridMax(256, 512)._grid.shape == (128, 513)
        assert GridMax.scratch_size(8, 20) == 21 * (8 + 20)

    def test_one_off_hessian_sup_norm_allocates_its_scratch_only(self):
        # a GridMax's scratch, and under 128 KiB more (3.6 KiB measured on
        # x86-64, numpy 2.4.6); the whole-grid layout peaked at 3.75 MB
        om = SineField(np.random.default_rng(16).standard_normal((256, 256)) / 256.0)
        hessian_sup_norm(om, 512)
        tracemalloc.start()
        try:
            hessian_sup_norm(om, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 8 * GridMax.scratch_size(256, 512)
        assert held < peak <= held + 128 * 1024

    def test_warm_hessian_sup_norm_takes_no_iteration_buffer(self):
        # with a held GridMax a call takes no numpy iteration buffer, 32 or
        # 64 KiB each: the mode-number weights are same-shape operands in
        # the GridMax's buffer.  Broadcast products of the mode numbers
        # peaked at 71.3 kB; 3.0 KiB measured on x86-64 with numpy 2.4.6
        om = SineField(np.random.default_rng(16).standard_normal((256, 256)) / 256.0)
        grid_max = GridMax(256, 512)
        hessian_sup_norm(om, 512, grid_max)
        tracemalloc.start()
        try:
            hessian_sup_norm(om, 512, grid_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024

    def test_hessian_sup_norm_takes_held_evaluator(self):
        om = SineField(np.random.default_rng(13).normal(size=(8, 8)))
        grid_max = GridMax(8, 20)
        grid_max(np.ones((1, 8, 8)), [Term(0, ("cos", "sin"))])
        assert hessian_sup_norm(om, 20, grid_max) == hessian_sup_norm(om, 20)
        with pytest.raises(ValueError, match="n_grid"):
            hessian_sup_norm(om, 24, grid_max)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sin_axis_halving_before_the_transform_is_exact(self, axis):
        # halving the modes, not the transformed values, gives the same bits
        c = np.random.default_rng(15).normal(size=(9, 9))
        pad = np.zeros((21, 9))
        pad[:9] = c.T if axis else c
        want = np.vstack([np.zeros((1, 9)), sfft.dst(pad, type=1, axis=0) * 0.5])
        np.testing.assert_array_equal(_eval_axis(c, "sin", 22, axis), want.T if axis else want)


class TestFractionalInverseLaplacian:
    def test_sqg_eigenvalue(self):
        f = fractional_inverse_laplacian(SineField.from_modes({(1, 1): 1.0}, 4), 0.5)
        assert f.coeffs[0, 0] == pytest.approx(2 ** -0.5)

    def test_euler_limit(self):
        f = fractional_inverse_laplacian(SineField.from_modes({(3, 4): 1.0}, 6), 0.0)
        assert f.coeffs[2, 3] == pytest.approx(1.0 / 25.0)

    def test_identity_limit(self):
        f = fractional_inverse_laplacian(SineField.from_modes({(1, 1): 1.0}, 4), 1 - 1e-13)
        assert f.coeffs[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_alpha_rejected(self):
        f = SineField.zeros(4)
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                fractional_inverse_laplacian(f, alpha)

    def test_diagonal_composition(self):
        rng = np.random.default_rng(3)
        f = SineField(rng.normal(size=(6, 6)))
        alpha = 0.3
        twice = fractional_inverse_laplacian(fractional_inverse_laplacian(f, alpha), alpha)
        m = np.arange(1, 7)
        eig = m[:, None] ** 2 + m[None, :] ** 2
        direct = f.coeffs * eig ** (-2 * (1 - alpha))
        np.testing.assert_allclose(twice.coeffs, direct, rtol=1e-13)


class TestDerivatives:
    def test_first_derivative_parity(self):
        f = SineField.from_modes({(2, 1): 1.0}, 4)
        d = spectral_derivative(f, axis=1, order=1)
        assert d.parity == ("cos", "sin")
        assert d.coeffs[1, 0] == pytest.approx(2.0)
        x1, x2 = grid_xy(16)
        np.testing.assert_allclose(d.evaluate(16).values,
                                   2 * np.cos(2 * x1) * np.sin(x2), atol=1e-13)

    def test_second_derivative(self):
        f = SineField.from_modes({(2, 1): 1.0}, 4)
        d = spectral_derivative(f, axis=1, order=2)
        assert d.parity == ("sin", "sin")
        x1, x2 = grid_xy(16)
        np.testing.assert_allclose(d.evaluate(16).values,
                                   -4 * np.sin(2 * x1) * np.sin(x2), atol=1e-13)

    def test_zero_field(self):
        d = spectral_derivative(SineField.zeros(4), axis=2, order=1)
        assert np.abs(d.coeffs).max() == 0.0

    def test_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(SineField.zeros(4), axis=1, order=3)
        with pytest.raises(ValueError, match="axis"):
            spectral_derivative(SineField.zeros(4), axis=0, order=1)


class TestVelocity:
    def test_single_mode_euler(self):
        om = SineField.from_modes({(1, 1): 1.0}, 4)
        u1, u2 = (u.evaluate(16).values for u in velocity_coefficients(om, 0.0))
        x1, x2 = grid_xy(16)
        np.testing.assert_allclose(u1, -0.5 * np.sin(x1) * np.cos(x2), atol=1e-13)
        np.testing.assert_allclose(u2, 0.5 * np.cos(x1) * np.sin(x2), atol=1e-13)

    def test_single_mode_sqg(self):
        om = SineField.from_modes({(1, 1): 1.0}, 4)
        u1 = velocity_coefficients(om, 0.5)[0].evaluate(16).values
        x1, x2 = grid_xy(16)
        np.testing.assert_allclose(u1, -(2**-0.5) * np.sin(x1) * np.cos(x2), atol=1e-13)

    def test_sign_convention_near_origin(self):
        # omega >= 0 on the open quadrant must push u1 down and u2 up
        om = SineField.from_modes({(1, 1): 1.0}, 4)
        u1c, u2c = velocity_coefficients(om, 0.5)
        x = np.array([0.05, 0.07])
        assert u1c.evaluate_at(x) < 0
        assert u2c.evaluate_at(x) > 0

    def test_velocity_terms_are_the_coefficients_velocity(self):
        # VELOCITY_TERMS on psi give d2 psi = -u1 and d1 psi = u2 in the
        # parities of velocity_coefficients, to rounding at points and bit
        # for bit as a grid maximum, the CFL speed; near the origin of a
        # positive mode d2 psi > 0, so u1 < 0 < u2
        rng = np.random.default_rng(19)
        om = SineField(rng.normal(size=(8, 8)))
        u1c, u2c = velocity_coefficients(om, 0.3)
        assert [term.parity for term in VELOCITY_TERMS] == [u1c.parity, u2c.parity]
        psi = fractional_inverse_laplacian(om, 0.3).coeffs
        pts = rng.uniform(0.0, np.pi, (5, 2))
        d2, d1 = evaluate_points(psi[None], VELOCITY_TERMS, pts)
        np.testing.assert_allclose(-d2, u1c.evaluate_at(pts), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(d1, u2c.evaluate_at(pts), rtol=1e-13, atol=1e-14)
        speed = max(_max_abs(u.evaluate(20).values) for u in (u1c, u2c))
        assert GridMax(8, 20)(psi[None], VELOCITY_TERMS) == speed
        one = fractional_inverse_laplacian(SineField.from_modes({(1, 1): 1.0}, 4), 0.5).coeffs
        assert all(evaluate_points(one[None], VELOCITY_TERMS, (0.05, 0.07)) > 0)

    def test_matches_stream_function_derivatives_exactly(self):
        om = SineField(np.random.default_rng(5).normal(size=(8, 8)))
        u1c, u2c = velocity_coefficients(om, 0.3)
        psi = fractional_inverse_laplacian(om, 0.3).coeffs
        np.testing.assert_array_equal(u1c.coeffs, -spectral_derivative(
            SineField(psi), axis=2, order=1).coeffs)
        np.testing.assert_array_equal(u2c.coeffs, spectral_derivative(
            SineField(psi), axis=1, order=1).coeffs)

    def test_divergence_free(self):
        rng = np.random.default_rng(4)
        om = SineField(rng.normal(size=(8, 8)))
        u1c, u2c = velocity_coefficients(om, 0.4)
        m = np.arange(1, 9, dtype=float)
        # d1 u1 + d2 u2 in the (cos, cos) basis must cancel exactly
        div = u1c.coeffs * m[:, None] + u2c.coeffs * m[None, :]
        assert np.abs(div).max() < 1e-14

    def test_velocity_parities(self):
        rng = np.random.default_rng(5)
        om = SineField(rng.normal(size=(6, 6)))
        u1c, u2c = velocity_coefficients(om, 0.3)
        pts = rng.uniform(0.1, 3.0, size=(10, 2))
        flip1 = pts * np.array([-1.0, 1.0])
        flip2 = pts * np.array([1.0, -1.0])
        np.testing.assert_allclose(u1c.evaluate_at(flip1), -u1c.evaluate_at(pts), atol=1e-12)
        np.testing.assert_allclose(u1c.evaluate_at(flip2), u1c.evaluate_at(pts), atol=1e-12)
        np.testing.assert_allclose(u2c.evaluate_at(flip1), u2c.evaluate_at(pts), atol=1e-12)
        np.testing.assert_allclose(u2c.evaluate_at(flip2), -u2c.evaluate_at(pts), atol=1e-12)


class TestPointEvaluation:
    def test_quarter_pi(self):
        f = SineField.from_modes({(1, 1): 1.0}, 4)
        assert evaluate_offgrid(f, (np.pi / 4, np.pi / 4)) == pytest.approx(0.5)

    def test_oddness(self):
        rng = np.random.default_rng(6)
        f = SineField(rng.normal(size=(5, 5)))
        x = (0.73, 1.21)
        assert evaluate_offgrid(f, (-x[0], x[1])) == pytest.approx(
            -evaluate_offgrid(f, x), rel=1e-12)
        assert evaluate_offgrid(f, (0.0, 1.3)) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity(self):
        f = SineField.from_modes({(1, 1): 1.0}, 4)
        assert evaluate_offgrid(f, (np.pi / 4 + 2 * np.pi, np.pi / 4)) == pytest.approx(
            0.5, rel=1e-12)

    def test_point_array_shape_kept(self):
        rng = np.random.default_rng(8)
        f = MixedParityField(rng.normal(size=(5, 5)), ("cos", "sin"))
        pts = rng.uniform(0.0, np.pi, size=(3, 4, 2))
        vals = f.evaluate_at(pts)
        assert vals.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert vals[idx] == pytest.approx(f.evaluate_at(pts[idx]), rel=1e-13, abs=1e-15)


class TestHessianSupNorm:
    def test_equals_the_array_references(self):
        # the grid maxima of spectral_derivative's arrays and of the mixed
        # derivative's, bit for bit
        om = SineField(np.random.default_rng(20).normal(size=(9, 9)))
        m = np.arange(1.0, 10.0)
        entries = [spectral_derivative(om, 1, 2), spectral_derivative(om, 2, 2),
                   MixedParityField(om.coeffs * m[:, None] * m, ("cos", "cos"))]
        for n_grid in (18, 27, 64):
            want = max(_max_abs(d.evaluate(n_grid).values) for d in entries)
            assert hessian_sup_norm(om, n_grid) == want

    def test_single_mode(self):
        om = SineField.from_modes({(1, 1): 1.0}, 4)
        assert hessian_sup_norm(om, 16) == pytest.approx(1.0, rel=1e-12)

    def test_two_mode(self):
        om = SineField.from_modes({(2, 1): 1.0}, 4)
        assert hessian_sup_norm(om, 16) == pytest.approx(4.0, rel=1e-12)

    def test_plateau_data_vs_fd_oracle(self):
        # independent check: central finite differences of the point
        # evaluator at the grid arg-max reproduce the spectral Hessian
        from msqglab.initial_data import InitialDataSpec, build_omega0

        delta = 0.3
        om = build_omega0(InitialDataSpec(delta=delta, n_modes=128, n_grid=256))
        h_grid = hessian_sup_norm(om, 256)
        assert h_grid >= 1.4 * delta**-2   # corner monomial alone gives 1.5/delta^2

        # locate the arg-max of the largest entry and FD-check it there
        m = np.arange(1, 129, dtype=float)
        best = None
        for coeffs, parity in (
            (-om.coeffs * m[:, None] ** 2, ("sin", "sin")),
            (-om.coeffs * m[None, :] ** 2, ("sin", "sin")),
            (om.coeffs * m[:, None] * m[None, :], ("cos", "cos")),
        ):
            vals = MixedParityField(coeffs, parity).evaluate(256).values
            idx = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
            cand = (abs(vals[idx]), idx, parity)
            if best is None or cand[0] > best[0]:
                best = cand
        _, (i, j), parity = best
        x = np.pi * np.array([i, j]) / 256
        step = 1e-4
        if parity == ("cos", "cos"):
            fd = (evaluate_offgrid(om, x + [step, step]) - evaluate_offgrid(om, x + [step, -step])
                  - evaluate_offgrid(om, x + [-step, step]) + evaluate_offgrid(om, x - [step, step])
                  ) / (4 * step**2)
        else:
            fd = (evaluate_offgrid(om, x + [step, 0]) - 2 * evaluate_offgrid(om, x)
                  + evaluate_offgrid(om, x - [step, 0])) / step**2
            fd2 = (evaluate_offgrid(om, x + [0, step]) - 2 * evaluate_offgrid(om, x)
                   + evaluate_offgrid(om, x - [0, step])) / step**2
            fd = fd if abs(fd) > abs(fd2) else fd2
        assert abs(fd) == pytest.approx(h_grid, rel=1e-3)

        # grid maximization converges from below as the grid refines
        h_fine = hessian_sup_norm(om, 512)
        assert h_fine >= h_grid * (1 - 1e-12)
        assert h_fine == pytest.approx(h_grid, rel=0.02)


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        from msqglab.snapshots import read_snapshot, write_snapshot

        rng = np.random.default_rng(7)
        f = SineField(rng.normal(size=(6, 6)))
        path = tmp_path / "f.msqg"
        write_snapshot(path, f, 16, 0.5, 1.25)
        back, header = read_snapshot(path)
        np.testing.assert_array_equal(back.coeffs, f.coeffs)
        assert header == {"N": 6, "N_g": 16, "alpha": 0.5, "time": 1.25}

    @pytest.mark.parametrize("transposed", [False, True])
    def test_bytes_are_header_line_and_little_endian_coefficients(self, tmp_path, transposed):
        from msqglab.snapshots import write_snapshot

        c = np.random.default_rng(8).normal(size=(5, 5))
        f = SineField(c.T if transposed else c)
        assert f.coeffs.flags.c_contiguous is not transposed
        path = tmp_path / "f.msqg"
        write_snapshot(path, f, 12, 0.5, 0.75)
        header = {"N": 5, "N_g": 12, "alpha": 0.5, "time": 0.75}
        want = (json.dumps(header) + "\n").encode("ascii") + f.coeffs.astype("<f8").tobytes()
        assert path.read_bytes() == want

    def test_truncated_file_rejected(self, tmp_path):
        from msqglab.snapshots import read_snapshot, write_snapshot

        path = tmp_path / "f.msqg"
        write_snapshot(path, SineField.zeros(4), 8, 0.5, 0.0)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)


    @pytest.mark.parametrize("header", [
        {"N_g": 8, "alpha": 0.5, "time": 0.0},
        {"N": 4, "alpha": 0.5, "time": 0.0},
        {"N": 4, "N_g": 8, "time": 0.0},
        {"N": 4, "N_g": 8, "alpha": 0.5},
        [4, 8, 0.5, 0.0],
    ])
    def test_incomplete_header_rejected(self, tmp_path, header):
        from msqglab.snapshots import read_snapshot

        path = tmp_path / "f.msqg"
        path.write_bytes((json.dumps(header) + "\n").encode("ascii") + bytes(8 * 16))
        with pytest.raises(ValueError, match="header"):
            read_snapshot(path)

    @pytest.mark.parametrize("n", [0, -2, 4.0, "4", None, True])
    def test_bad_mode_count_rejected(self, tmp_path, n):
        from msqglab.snapshots import read_snapshot

        path = tmp_path / "f.msqg"
        header = {"N": n, "N_g": 8, "alpha": 0.5, "time": 0.0}
        path.write_bytes((json.dumps(header) + "\n").encode("ascii") + bytes(8 * 16))
        with pytest.raises(ValueError, match="positive integer"):
            read_snapshot(path)

    @pytest.mark.parametrize("header, error", [
        (b"N=4 N_g=8\n", json.JSONDecodeError),
        ('{"N": 4, "note": "\u00e9"}\n'.encode(), UnicodeDecodeError),
    ], ids=["not-json", "not-ascii"])
    def test_header_not_ascii_json_rejected(self, tmp_path, header, error):
        from msqglab.snapshots import read_snapshot

        path = tmp_path / "f.msqg"
        path.write_bytes(header + bytes(8 * 16))
        assert issubclass(error, ValueError)
        with pytest.raises(error):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        from msqglab.snapshots import read_snapshot, write_snapshot

        path = tmp_path / "f.msqg"
        write_snapshot(path, SineField.zeros(4), 8, 0.5, 0.0)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="after"):
            read_snapshot(path)


def test_grid_max_abs():
    om = SineField.from_modes({(1, 1): 2.5}, 4)
    assert grid_max_abs(om, 16) == pytest.approx(2.5, rel=1e-12)


def test_max_abs_matches_abs_max():
    rng = np.random.default_rng(9)
    for v in (rng.normal(size=(7, 9)), -np.abs(rng.normal(size=(5, 5))), np.zeros((3, 3)),
              -np.zeros((3, 3)), rng.normal(size=(6, 8))[:, 1:5]):
        got = _max_abs(v)
        assert got == np.abs(v).max() and math.copysign(1.0, got) == 1.0


@pytest.fixture
def overflowing_field():
    # finite coefficients whose grid sums overflow: inf - inf gives NaN
    return SineField(np.full((4, 4), 1e308))


def test_grid_max_abs_keeps_nan(overflowing_field):
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(grid_max_abs(overflowing_field, 8))


def test_hessian_sup_norm_keeps_nan(overflowing_field):
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(hessian_sup_norm(overflowing_field, 8))


@pytest.mark.parametrize("value, workers", [("3", 3), ("0", 1), (" ", None)])
def test_get_workers_reads_the_thread_variable(monkeypatch, value, workers):
    monkeypatch.setenv("MSQGLAB_THREADS", value)
    assert get_workers() == (workers or os.cpu_count() or 1)


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_get_workers_names_a_bad_value(monkeypatch, value):
    monkeypatch.setenv("MSQGLAB_THREADS", value)
    with pytest.raises(ValueError) as caught:
        get_workers()
    assert str(caught.value) == f"MSQGLAB_THREADS must be an integer, got {value!r}"


class TestPocketfftSeam:
    """The package's transforms call scipy's pocketfft extension directly;
    each must give scipy.fft's bits."""

    def test_loaded_without_scipy_fft(self):
        assert spectral.POCKETFFT_LOADER == "direct"
        assert spectral._pocketfft.__name__ == "pypocketfft"

    # every transform type and parity along both axes of a strided view of a
    # stack, in place, as _eval_axis, _eval_midpoint_axis and Tendency run them
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("axis", [-2, -1])
    @pytest.mark.parametrize("kind", ["dst", "dct"])
    @pytest.mark.parametrize("type_", [1, 2, 3])
    def test_in_place_on_a_strided_view_matches_scipy(self, type_, kind, axis, workers):
        buf = np.random.default_rng(type_).standard_normal((2, 37, 41))
        index = np.s_[:, 2:35, 3:38]
        mine, ref = buf.copy(), buf.copy()
        view = mine[index]
        assert getattr(spectral._pocketfft, kind)(view, type_, (axis,), inorm=0, out=view,
                                                  nthreads=workers) is view
        ref[index] = getattr(sfft, kind)(ref[index], type=type_, axis=axis, workers=workers)
        assert mine.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    def test_eval_axis_on_one_axis_matches_scipy(self, parity):
        # check_degeneracy evaluates a 1-D series
        c = np.random.default_rng(4).standard_normal(21)
        n_grid = 64
        transform, first, extra = spectral._TYPE1[parity]
        buf = np.zeros(n_grid + extra)
        buf[1:22] = 0.5 * c
        want = getattr(sfft, transform.__name__)(buf[first:], type=1)
        got = _eval_axis(c, parity, n_grid, 0)
        assert got[first:].tobytes() == want[:n_grid - first].tobytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("n_modes, n_grid", [(8, 16), (13, 40), (32, 64)])
    def test_forward_transform_matches_dstn(self, n_modes, n_grid, workers, monkeypatch):
        monkeypatch.setenv("MSQGLAB_THREADS", workers)
        g = np.random.default_rng(n_grid).standard_normal((n_grid, n_grid))
        want = (sfft.dstn(g[1:, 1:], type=1, workers=int(workers)) / n_grid**2)[:n_modes, :n_modes]
        assert forward_transform(GridField(g), n_modes).coeffs.tobytes() == want.tobytes()

    def test_good_size_is_next_fast_len(self):
        sizes = range(1, 2049)
        assert ([spectral._pocketfft.good_size(n, True) for n in sizes]
                == [sfft.next_fast_len(n, real=True) for n in sizes])
        assert all(dealias_grid(n) == sfft.next_fast_len(3 * n // 2 + 1, real=True)
                   for n in range(4, 1366))

    def test_falls_back_to_scipy_fft(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, *args, **kwargs: None))
        module, how = spectral._load_pocketfft()
        assert (module, how) == (pypocketfft, "scipy.fft")
        x = np.random.default_rng(5).standard_normal((7, 12))
        assert module.dst(x, 2, (-1,)).tobytes() == spectral._pocketfft.dst(x, 2, (-1,)).tobytes()

    def test_scipy_fft_imports_after_the_package(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from msqglab import spectral\n"
            "assert 'scipy.fft' not in sys.modules\n"
            "import scipy.fft\n"
            "x = np.random.default_rng(0).standard_normal((6, 10))\n"
            "for t in (1, 2, 3):\n"
            "    for kind in ('dst', 'dct'):\n"
            "        want = getattr(scipy.fft, kind)(x, type=t)\n"
            "        got = getattr(spectral._pocketfft, kind)(x, t, (-1,))\n"
            "        assert want.tobytes() == got.tobytes()\n"
            "print(spectral.POCKETFFT_LOADER)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "direct"


class TestEnvironment:
    def test_block(self):
        assert environment() == {
            "numpy": np.__version__, "scipy": scipy.__version__, "pocketfft": "direct",
            "fft_threads": get_workers(), "cpu_count": os.cpu_count()}

    def test_scipy_version_from_dist_info(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_scipy_roots", lambda: [str(tmp_path / "scipy")])
        spectral._scipy_version.cache_clear()
        try:
            assert spectral._scipy_version() is None
            spectral._scipy_version.cache_clear()
            info = tmp_path / "scipy-9.8.7.dist-info"
            info.mkdir()
            (info / "METADATA").write_text("Metadata-Version: 2.1\nName: scipy\n"
                                           "Version: 9.8.7\n\nVersion: 0\n")
            assert spectral._scipy_version() == "9.8.7"
        finally:
            spectral._scipy_version.cache_clear()
