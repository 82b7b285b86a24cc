import math

import numpy as np
import pytest

from rissim.geometry import (
    Angle,
    ArrayGeometry,
    angle_from_direction,
    direction_from_angle,
    fraunhofer_distance,
    pairwise_distance,
    steering_vector,
)
from rissim.oracles import kron_steering

LAM = 0.06


def random_angles(rng, n):
    return [
        Angle(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-np.pi, np.pi))
        for _ in range(n)
    ]


class TestDirection:
    @pytest.mark.parametrize(
        "theta,phi,expected",
        [
            (0.0, 0.0, [1.0, 0.0, 0.0]),
            (math.pi / 2, 0.0, [0.0, 0.0, 1.0]),
            (0.0, math.pi / 2, [0.0, 1.0, 0.0]),
        ],
    )
    def test_axis_cases(self, theta, phi, expected):
        np.testing.assert_allclose(
            direction_from_angle(Angle(theta, phi)), expected, atol=1e-15
        )

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for angle in random_angles(rng, 200):
            assert abs(np.linalg.norm(direction_from_angle(angle)) - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for angle in random_angles(rng, 50):
            d = direction_from_angle(angle)
            back = angle_from_direction(d)
            np.testing.assert_allclose(direction_from_angle(back), d, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angle_from_direction([0.0, 0.0, 0.0])


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


class TestSteering:
    def test_broadside_all_ones(self):
        geom = ArrayGeometry.upa(3, 4, LAM / 2)
        np.testing.assert_allclose(
            steering_vector(geom, Angle(0.0, 0.0), LAM), np.ones(12), atol=1e-12
        )

    def test_two_element_ula_zenith(self):
        # half-wavelength spacing along z, looking at theta = pi/2
        geom = ArrayGeometry(counts=(1, 2), spacing=(0.0, LAM / 2))
        a = steering_vector(geom, Angle(math.pi / 2, 0.0), LAM)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_upa_matches_independent_ula_factors(self):
        # recompute the two axis factors from their scalar formulas
        geom = ArrayGeometry.upa(2, 2, LAM / 2)
        theta, phi = math.pi / 6, math.pi / 4
        kappa = 2 * math.pi / LAM
        a_y = np.exp(1j * kappa * (LAM / 2) * math.cos(theta) * math.sin(phi) * np.arange(2))
        a_z = np.exp(1j * kappa * (LAM / 2) * math.sin(theta) * np.arange(2))
        np.testing.assert_allclose(
            steering_vector(geom, Angle(theta, phi), LAM), np.kron(a_y, a_z), atol=1e-12
        )

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        geom = ArrayGeometry.upa(4, 4, 0.4 * LAM)
        for angle in random_angles(rng, 100):
            a = steering_vector(geom, angle, LAM)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    def test_conjugate_is_mirror_direction(self):
        rng = np.random.default_rng(3)
        geom = ArrayGeometry.upa(3, 5, 0.3 * LAM)
        for angle in random_angles(rng, 50):
            mirror = Angle(-angle.theta, angle.phi + math.pi)
            np.testing.assert_allclose(
                np.conj(steering_vector(geom, angle, LAM)),
                steering_vector(geom, mirror, LAM),
                atol=1e-12,
            )

    def test_wavelength_validation(self):
        geom = ArrayGeometry.upa(2, 2, 0.03)
        with pytest.raises(ValueError):
            steering_vector(geom, Angle(0, 0), 0.0)


class TestKronSteering:
    def test_single_element(self):
        geom = ArrayGeometry.upa(1, 1, 0.03)
        np.testing.assert_allclose(kron_steering(geom, Angle(0.3, -0.7), LAM), [1.0])

    def test_broadside(self):
        geom = ArrayGeometry.upa(2, 5, 0.03)
        np.testing.assert_allclose(kron_steering(geom, Angle(0, 0), LAM), np.ones(10))

    def test_matches_steering_vector(self):
        rng = np.random.default_rng(4)
        geom = ArrayGeometry.upa(4, 4, LAM / 2)
        for angle in random_angles(rng, 100):
            np.testing.assert_allclose(
                kron_steering(geom, angle, LAM),
                steering_vector(geom, angle, LAM),
                atol=1e-12,
            )


class TestDistances:
    def test_zero(self):
        assert pairwise_distance([0, 0, 0], [0, 0, 0]) == 0.0

    def test_three_four_five(self):
        assert pairwise_distance([0, 0, 0], [3, 4, 0]) == pytest.approx(5.0)

    def test_scenario_centers(self):
        # sqrt(900 + 2500 + 25) by hand
        d = pairwise_distance([30, 0, 10], [0, 50, 5])
        assert d == pytest.approx(math.sqrt(3425.0), abs=1e-12)
        assert d == pytest.approx(58.5235, abs=1e-4)


class TestFraunhofer:
    def test_formula(self):
        assert fraunhofer_distance(1.0, 0.06) == pytest.approx(2.0 / 0.06)
        assert fraunhofer_distance(0.12, 0.06) == pytest.approx(0.48)

    def test_zero_aperture_rejected(self):
        with pytest.raises(ValueError):
            fraunhofer_distance(0.0, 0.06)
