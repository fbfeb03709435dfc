"""Velocity sampler: snapshot values, linear blending in time, clamping."""

import numpy as np
import pytest

from msqglab.spectral import SineField, velocity_coefficients
from msqglab.trajectories import VelocitySampler

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


def test_single_snapshot_is_constant_in_time():
    field = _field(1.0)
    sampler = VelocitySampler([(0.3, field)], ALPHA)
    x = POINTS[1]
    for t in (-1.0, 0.3, 4.0):
        np.testing.assert_array_equal(sampler(x, t), sampler(x, 0.3))


def test_no_snapshots_rejected():
    with pytest.raises(ValueError, match="no snapshots"):
        VelocitySampler([], ALPHA)
