import math

import numpy as np
import pytest

from rissim.oracles import (
    achieved_sinr,
    complex_randn,
    duality_gap_and_slack,
    nt_space_precoder,
)
from rissim.precoding import InfeasibleError, min_power_precoder


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
        h = complex_randn(rng, (3, 1))
        sol = min_power_precoder(h, 5.0, 1.0)
        assert achieved_sinr(sol.w, h, 1.0)[0] == pytest.approx(5.0, rel=1e-9)


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
            np.testing.assert_allclose(achieved_sinr(sol.w, h, 1.0), 10.0, rtol=1e-6)

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
            gap, _ = duality_gap_and_slack(min_power_precoder(h, 8.0, 2.0), h, 8.0, 2.0)
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


class TestFirstStep:
    # The fixed point starts from zero uplink powers, so its first step gives
    # the single-user powers, q_k = gamma * noise / ||h_k||^2.

    def test_tolerance_above_one_stops_at_the_single_user_step(self):
        rng = np.random.default_rng(17)
        gamma, sigma2 = 0.5, 0.3
        for k in range(1, 5):
            h = complex_randn(rng, (16, k))
            sol = min_power_precoder(h, gamma, sigma2, tol=2.0)
            assert sol.iterations == 1
            single_user = gamma * sigma2 / np.sum(np.abs(h) ** 2, axis=0)
            assert sol.dual_total_power == pytest.approx(single_user.sum(), rel=1e-12)


class TestGramForm:
    # The K x K Gram solve against the N_t-space reference solver.

    def test_matches_nt_space_reference(self):
        rng = np.random.default_rng(12)
        for k in range(1, 5):
            for n_t in range(k, 17):
                h = complex_randn(rng, (n_t, k))
                for gamma in (1.0, 10.0, 100.0, 1e3, 1e4):
                    sol = min_power_precoder(h, gamma, 0.5)
                    ref = nt_space_precoder(h, gamma, 0.5)
                    assert sol.iterations == ref.iterations
                    assert sol.total_power == pytest.approx(ref.total_power, rel=1e-12)
                    # the reference's leave-one-out covariance A - q_i h_i h_i^H loses
                    # about log10(gamma) digits; the Gram form's noise * (M^-1)_ii does not
                    assert sol.dual_total_power == pytest.approx(
                        ref.dual_total_power, rel=max(1e-12, 1e-15 * gamma)
                    )
                    np.testing.assert_allclose(sol.w, ref.w, rtol=0, atol=1e-9 * np.abs(ref.w).max())
                    np.testing.assert_allclose(achieved_sinr(sol.w, h, 0.5), gamma, rtol=1e-9)

    @pytest.mark.parametrize("eps", [0.0, 1e-8], ids=["collinear", "near-collinear"])
    def test_near_collinear_both_raise(self, eps):
        rng = np.random.default_rng(13)
        for k in range(2, 5):
            for n_t in (k, 8, 16):
                h = complex_randn(rng, (n_t, k))
                h[:, -1] = h[:, 0] + eps * complex_randn(rng, n_t)
                for gamma in (1.0, 10.0):
                    with pytest.raises(InfeasibleError) as gram:
                        min_power_precoder(h, gamma, 1.0)
                    with pytest.raises(InfeasibleError) as ref:
                        nt_space_precoder(h, gamma, 1.0)
                    assert gram.value.kind == ref.value.kind


class TestInfeasible:
    def test_zero_channel(self):
        with pytest.raises(InfeasibleError) as exc:
            min_power_precoder(np.zeros((4, 1), dtype=complex), 10.0, 1.0)
        assert exc.value.kind == "zero_channel"

    def test_identical_channels(self):
        # two users on the same channel cannot both reach SINR 10
        rng = np.random.default_rng(7)
        h1 = complex_randn(rng, (4, 1))
        h = np.concatenate([h1, h1], axis=1)
        with pytest.raises(InfeasibleError) as exc:
            min_power_precoder(h, 10.0, 1.0)
        assert exc.value.kind == "diverged"

    def test_iteration_budget_exhausted(self):
        h = complex_randn(np.random.default_rng(14), (4, 2))
        with pytest.raises(InfeasibleError) as exc:
            min_power_precoder(h, 10.0, 1.0, max_iters=1)
        assert exc.value.kind == "not_converged"

    def test_invalid_allocation(self):
        # A tolerance above 1 accepts the first iterate, the single-user
        # powers; two users on one antenna cannot both reach SINR 4 > 1.
        with pytest.raises(InfeasibleError) as exc:
            min_power_precoder(np.ones((1, 2), dtype=complex), 4.0, 1.0, tol=2.0)
        assert exc.value.kind == "invalid_allocation"

    def test_validation(self):
        rng = np.random.default_rng(8)
        h = complex_randn(rng, (4, 2))
        with pytest.raises(ValueError):
            min_power_precoder(h, 0.0, 1.0)
        with pytest.raises(ValueError):
            min_power_precoder(h, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["gamma_thr", "noise_power"])
    def test_non_finite_target_or_noise_rejected(self, name, bad):
        # a caller error, not an infeasible instance
        h = complex_randn(np.random.default_rng(15), (4, 2))
        args = {"gamma_thr": 10.0, "noise_power": 1.0, name: bad}
        with pytest.raises(ValueError, match="finite"):
            min_power_precoder(h, **args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_channel_rejected(self, bad):
        h = complex_randn(np.random.default_rng(16), (4, 2))
        h[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            min_power_precoder(h, 10.0, 1.0)


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
