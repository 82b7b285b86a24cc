import math

import numpy as np
import pytest

from rissim.channels import los_matrix
from rissim.correlation import sinc_correlation
from rissim.geometry import (
    ArrayGeometry,
    element_distances,
    fraunhofer_distance,
    steering_vector,
)
from rissim.oracles import kron_steering

LAM = 0.06


def random_directions(rng, n):
    """``n`` directions of random length, uniform on the sphere once normalized."""
    return rng.standard_normal((n, 3))


class TestDirection:
    def test_zero_vector_rejected(self):
        geom = ArrayGeometry.upa(2, 2, 0.03)
        for direction in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]):
            with pytest.raises(ValueError, match="direction"):
                steering_vector(geom, direction, LAM)

    def test_planar_los_between_coincident_antennas_rejected(self):
        s = ArrayGeometry.single((1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="direction"):
            los_matrix(s, s, 1.0, LAM)


class TestArrayGeometry:
    def test_element_grid_y_major(self):
        geom = ArrayGeometry(counts=(2, 3), spacing=(0.5, 0.25))
        assert geom.size == 6
        # n = n_y * N_z + n_z
        np.testing.assert_allclose(geom.element_positions[0], [0, 0, 0])
        np.testing.assert_allclose(geom.element_positions[1], [0, 0, 0.25])
        np.testing.assert_allclose(geom.element_positions[3], [0, 0.5, 0])
        np.testing.assert_allclose(geom.element_positions[5], [0, 0.5, 0.5])

    def test_first_element_at_origin(self):
        geom = ArrayGeometry.upa(4, 4, 0.03, origin=(1.0, 2.0, 3.0))
        np.testing.assert_allclose(geom.element_positions[0], [1.0, 2.0, 3.0])

    def test_centered_placement(self):
        geom = ArrayGeometry.upa_centered(4, 4, 0.03, (30.0, 0.0, 10.0))
        np.testing.assert_allclose(geom.center, [30.0, 0.0, 10.0], atol=1e-12)

    def test_aperture_is_diagonal(self):
        geom = ArrayGeometry.upa(4, 3, 0.5)
        assert geom.aperture == pytest.approx(math.hypot(1.5, 1.0))
        assert ArrayGeometry.single((1, 2, 3)).aperture == 0.0

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ArrayGeometry(counts=(0, 2), spacing=(0.1, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spacing_or_origin_rejected(self, bad):
        for spacing, origin in (((bad, 0.1), (0, 0, 0)), ((0.1, bad), (0, 0, 0)), ((0.1, 0.1), (0, bad, 0))):
            with pytest.raises(ValueError, match="must be finite"):
                ArrayGeometry(counts=(2, 2), spacing=spacing, origin=origin)
        with pytest.raises(ValueError, match="must be finite"):
            ArrayGeometry.single((bad, 0.0, 0.0))
        # zero spacing and a single antenna stay valid
        assert ArrayGeometry(counts=(2, 2), spacing=(0.0, 0.0)).aperture == 0.0
        assert ArrayGeometry.single((1.0, 2.0, 3.0)).size == 1


class TestSteering:
    def test_broadside_all_ones(self):
        geom = ArrayGeometry.upa(3, 4, LAM / 2)
        np.testing.assert_allclose(
            steering_vector(geom, [1.0, 0.0, 0.0], LAM), np.ones(12), atol=1e-12
        )

    def test_two_element_ula_zenith(self):
        # half-wavelength spacing along z, looking along +z
        geom = ArrayGeometry(counts=(1, 2), spacing=(0.0, LAM / 2))
        a = steering_vector(geom, [0.0, 0.0, 1.0], LAM)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_upa_matches_independent_ula_factors(self):
        # recompute the two axis factors from their scalar formulas
        geom = ArrayGeometry.upa(2, 2, LAM / 2)
        theta, phi = math.pi / 6, math.pi / 4
        direction = [
            math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), math.sin(theta)
        ]
        kappa = 2 * math.pi / LAM
        a_y = np.exp(1j * kappa * (LAM / 2) * math.cos(theta) * math.sin(phi) * np.arange(2))
        a_z = np.exp(1j * kappa * (LAM / 2) * math.sin(theta) * np.arange(2))
        np.testing.assert_allclose(
            steering_vector(geom, direction, LAM), np.kron(a_y, a_z), atol=1e-12
        )

    def test_direction_length_is_ignored(self):
        geom = ArrayGeometry.upa(3, 3, LAM / 2)
        u = np.array([0.6, -0.48, 0.64])
        np.testing.assert_allclose(
            steering_vector(geom, 250.0 * u, LAM), steering_vector(geom, u, LAM), atol=1e-12
        )

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        geom = ArrayGeometry.upa(4, 4, 0.4 * LAM)
        for direction in random_directions(rng, 100):
            a = steering_vector(geom, direction, LAM)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_conjugate_is_mirror_direction(self):
        rng = np.random.default_rng(3)
        geom = ArrayGeometry.upa(3, 5, 0.3 * LAM)
        for direction in random_directions(rng, 50):
            np.testing.assert_allclose(
                np.conj(steering_vector(geom, direction, LAM)),
                steering_vector(geom, -direction, LAM),
                atol=1e-12,
            )

    def test_wavelength_validation(self):
        geom = ArrayGeometry.upa(2, 2, 0.03)
        with pytest.raises(ValueError):
            steering_vector(geom, [1.0, 0.0, 0.0], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_lengths_rejected(bad):
    geom = ArrayGeometry.upa(2, 2, 0.03)
    with pytest.raises(ValueError, match="wavelength"):
        steering_vector(geom, [1.0, 0.0, 0.0], bad)
    with pytest.raises(ValueError, match="wavelength"):
        sinc_correlation(geom, bad)
    with pytest.raises(ValueError, match="wavelength"):
        fraunhofer_distance(0.06, bad)
    with pytest.raises(ValueError, match="aperture"):
        fraunhofer_distance(bad, LAM)


class TestKronSteering:
    def test_single_element(self):
        geom = ArrayGeometry.upa(1, 1, 0.03)
        np.testing.assert_allclose(kron_steering(geom, [0.2, -0.5, 0.8], LAM), [1.0])

    def test_broadside(self):
        geom = ArrayGeometry.upa(2, 5, 0.03)
        np.testing.assert_allclose(kron_steering(geom, [1.0, 0.0, 0.0], LAM), np.ones(10))

    def test_matches_steering_vector(self):
        rng = np.random.default_rng(4)
        geom = ArrayGeometry.upa(4, 4, LAM / 2)
        for direction in random_directions(rng, 100):
            np.testing.assert_allclose(
                kron_steering(geom, direction, LAM),
                steering_vector(geom, direction, LAM),
                atol=1e-12,
            )


def dense_distances(a, b):
    """The dense distance matrix between the rows of ``a`` and ``b``, from the
    (M, N, 3) differences."""
    return np.linalg.norm(a[:, None] - b[None], axis=-1)


class TestDistances:
    def test_zero(self):
        geom = ArrayGeometry.single((1.0, 2.0, 3.0))
        d = element_distances(geom, geom.element_positions)
        assert d.shape == (1, 1) and d[0, 0] == 0.0

    def test_three_four_five(self):
        geom = ArrayGeometry.single((0.0, 0.0, 0.0))
        points = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        d = element_distances(geom, points)
        np.testing.assert_allclose(d, [[5.0, 2.0]], rtol=1e-15)
        assert np.array_equal(d, dense_distances(geom.element_positions, points))

    def test_translation(self):
        # moving the array and the points by one offset keeps every distance
        geom = ArrayGeometry.upa(3, 5, 0.4 * LAM, (1.5, -2.0, 3.0))
        points = np.random.default_rng(3).uniform(-20.0, 20.0, size=(50, 3))
        shift = np.array([7.0, -3.0, 11.0])
        moved = ArrayGeometry.upa(3, 5, 0.4 * LAM, geom.origin + shift)
        d = element_distances(moved, points + shift)
        np.testing.assert_allclose(d, element_distances(geom, points), rtol=1e-12)
        assert np.array_equal(d, dense_distances(moved.element_positions, points + shift))

    def test_scenario_centers(self):
        # sqrt(900 + 2500 + 25) by hand, and bit for bit what np.linalg.norm gives
        a, b = np.array([30.0, 0.0, 10.0]), np.array([[0.0, 50.0, 5.0]])
        d = element_distances(ArrayGeometry.single(a), b)[0, 0]
        assert d == pytest.approx(math.sqrt(3425.0), abs=1e-12)
        assert d == pytest.approx(58.5235, abs=1e-4)
        assert d == np.linalg.norm(a - b[0])

    @pytest.mark.parametrize(
        "geom",
        [
            ArrayGeometry.upa_centered(8, 8, LAM / 2, (10.0, 50.0, 5.0)),
            ArrayGeometry.upa(3, 5, 0.4 * LAM, (1.5, -2.0, 3.0)),  # odd axes
            ArrayGeometry.upa(7, 1, LAM / 2, (0.0, 1.0, 2.0)),  # length-1 z axis
            ArrayGeometry.single((3.0, 4.0, 1.0)),
            ArrayGeometry(counts=(2, 3), spacing=(0.0, 0.0), origin=(1.0, 2.0, 3.0)),
        ],
        ids=["8x8", "3x5", "7x1", "single", "zero-spacing"],
    )
    def test_element_distances_match_distance_matrix(self, geom):
        points = np.random.default_rng(geom.size).uniform(-20.0, 20.0, size=(100, 3))
        points[0] = geom.element_positions[-1]  # an exact zero
        d = element_distances(geom, points)
        assert np.array_equal(d, dense_distances(geom.element_positions, points))


class TestFraunhofer:
    def test_formula(self):
        assert fraunhofer_distance(1.0, 0.06) == pytest.approx(2.0 / 0.06)
        assert fraunhofer_distance(0.12, 0.06) == pytest.approx(0.48)

    def test_zero_aperture_rejected(self):
        with pytest.raises(ValueError):
            fraunhofer_distance(0.0, 0.06)
