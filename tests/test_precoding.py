import numpy as np
import pytest

from rissim.oracles import complex_randn, duality_gap_and_slack
from rissim.precoding import InfeasibleError, achieved_sinr, min_power_precoder


class TestSingleUser:
    def test_matches_mrt_closed_form(self):
        rng = np.random.default_rng(0)
        gamma, sigma2 = 10.0, 0.7
        for _ in range(10):
            h = complex_randn(rng, (5, 1))
            sol = min_power_precoder(h, gamma, sigma2)
            norm2 = np.linalg.norm(h) ** 2
            expected_power = gamma * sigma2 / norm2
            assert abs(sol.total_power - expected_power) / expected_power < 1e-9
            w_mrt = np.sqrt(gamma * sigma2) * h / norm2
            # beamformers are unique up to a phase
            phase = np.vdot(w_mrt[:, 0], sol.w[:, 0])
            phase /= abs(phase)
            np.testing.assert_allclose(sol.w[:, 0], phase * w_mrt[:, 0], atol=1e-9)

    def test_sinr_exact(self):
        rng = np.random.default_rng(1)
        sol = min_power_precoder(complex_randn(rng, (3, 1)), 5.0, 1.0)
        assert sol.achieved_sinr[0] == pytest.approx(5.0, rel=1e-9)


class TestMultiUser:
    def test_orthogonal_channels_decouple(self):
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 2.0
        h[1, 1] = 1.5
        gamma, sigma2 = 4.0, 0.9
        sol = min_power_precoder(h, gamma, sigma2)
        expected = gamma * sigma2 * (1 / 4.0 + 1 / 2.25)
        assert sol.total_power == pytest.approx(expected, rel=1e-9)

    def test_constraints_tight(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = complex_randn(rng, (4, 2))
            sol = min_power_precoder(h, 10.0, 1.0)
            np.testing.assert_allclose(sol.achieved_sinr, 10.0, rtol=1e-6)

    def test_downscaling_violates(self):
        rng = np.random.default_rng(3)
        h = complex_randn(rng, (4, 2))
        sol = min_power_precoder(h, 10.0, 1.0)
        for k in range(2):
            w = sol.w.copy()
            w[:, k] *= 0.999
            assert achieved_sinr(w, h, 1.0)[k] < 10.0

    def test_duality_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = complex_randn(rng, (6, 3))
            gap, _ = duality_gap_and_slack(min_power_precoder(h, 8.0, 2.0), 8.0)
            assert gap < 1e-6

    def test_power_monotone_in_gamma_and_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = complex_randn(rng, (4, 2))
            p1 = min_power_precoder(h, 2.0, 1.0).total_power
            p2 = min_power_precoder(h, 4.0, 1.0).total_power
            p3 = min_power_precoder(h, 4.0, 2.0).total_power
            assert p1 < p2 < p3

    def test_reported_power_consistent(self):
        rng = np.random.default_rng(6)
        h = complex_randn(rng, (5, 3))
        sol = min_power_precoder(h, 6.0, 1.3)
        assert sol.total_power == pytest.approx(
            float(np.sum(np.abs(sol.w) ** 2)), rel=1e-10
        )


class TestInfeasible:
    def test_zero_channel(self):
        with pytest.raises(InfeasibleError):
            min_power_precoder(np.zeros((4, 1), dtype=complex), 10.0, 1.0)

    def test_identical_channels(self):
        # two users on the same channel cannot both reach SINR 10
        rng = np.random.default_rng(7)
        h1 = complex_randn(rng, (4, 1))
        h = np.concatenate([h1, h1], axis=1)
        with pytest.raises(InfeasibleError):
            min_power_precoder(h, 10.0, 1.0)

    def test_validation(self):
        rng = np.random.default_rng(8)
        h = complex_randn(rng, (4, 2))
        with pytest.raises(ValueError):
            min_power_precoder(h, 0.0, 1.0)
        with pytest.raises(ValueError):
            min_power_precoder(h, 1.0, 0.0)


class TestAchievedSinr:
    def test_zero_precoders(self):
        rng = np.random.default_rng(9)
        h = complex_randn(rng, (4, 2))
        np.testing.assert_array_equal(achieved_sinr(np.zeros((4, 2)), h, 1.0), 0.0)

    def test_single_user_mrt_at_power(self):
        rng = np.random.default_rng(10)
        h = complex_randn(rng, (4, 1))
        p, sigma2 = 2.5, 0.8
        w = np.sqrt(p) * h / np.linalg.norm(h)
        expected = p * np.linalg.norm(h) ** 2 / sigma2
        assert achieved_sinr(w, h, sigma2)[0] == pytest.approx(expected, rel=1e-12)

    def test_closure_with_solver(self):
        rng = np.random.default_rng(11)
        h = complex_randn(rng, (5, 3))
        sol = min_power_precoder(h, 7.0, 1.0)
        np.testing.assert_allclose(achieved_sinr(sol.w, h, 1.0), 7.0, rtol=1e-6)
