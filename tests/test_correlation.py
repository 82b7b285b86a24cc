import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rissim.channels import sample_iid_rayleigh
from rissim.correlation import (
    NotPositiveSemidefiniteError,
    matrix_sqrt_factor,
    sample_matrix_normal_factor,
    sinc_correlation,
)
from rissim.geometry import ArrayGeometry, distance_matrix
from rissim.oracles import (
    _halfspace_direction_yz,
    path_sum_covariance_error,
    sample_matrix_normal_vec,
    sqrt_factor_errors,
)

LAM = 0.06

SINC_PI_SQRT2 = math.sin(math.pi * math.sqrt(2)) / (math.pi * math.sqrt(2))


# Q = 1, a 3 x 5 UPA, a ULA, duplicated positions (zero spacing) and 32 x 32
GEOMETRIES = {
    "single": ArrayGeometry.single((0.0, 0.0, 0.0)),
    "upa-3x5": ArrayGeometry.upa(3, 5, 0.4 * LAM),
    "ula-7x1": ArrayGeometry.upa(7, 1, LAM / 2),
    "zero-spacing": ArrayGeometry(counts=(2, 2), spacing=(0.0, 0.3 * LAM)),
    "upa-32x32": ArrayGeometry.upa(32, 32, LAM / 2),
}


def empirical_vec_cov(sampler, rng, draws):
    h0 = sampler(rng)
    v = np.empty((draws, h0.size), dtype=complex)
    v[0] = h0.ravel()
    for i in range(1, draws):
        v[i] = sampler(rng).ravel()
    return (v[:, :, None] * np.conj(v[:, None, :])).mean(axis=0)


class TestSincCorrelation:
    def test_unit_diagonal(self):
        geom = ArrayGeometry.upa(3, 3, 0.4 * LAM)
        r = sinc_correlation(geom, LAM)
        np.testing.assert_allclose(np.diag(r), 1.0)
        np.testing.assert_allclose(r, r.T)

    def test_half_wavelength_rows_and_columns_decorrelate(self):
        geom = ArrayGeometry.upa(4, 4, LAM / 2)
        r = sinc_correlation(geom, LAM)
        pos = geom.element_positions
        for m in range(16):
            for n in range(16):
                same_row = abs(pos[m][1] - pos[n][1]) < 1e-12
                same_col = abs(pos[m][2] - pos[n][2]) < 1e-12
                if m != n and (same_row or same_col):
                    assert abs(r[m, n]) < 1e-12

    def test_diagonal_neighbor_value(self):
        geom = ArrayGeometry.upa(4, 4, LAM / 2)
        r = sinc_correlation(geom, LAM)
        # elements (0,0) and (1,1): indices 0 and 5, separation lambda/sqrt(2)
        assert r[0, 5] == pytest.approx(SINC_PI_SQRT2, abs=1e-12)
        assert r[0, 5] == pytest.approx(-0.217, abs=1e-3)

    def test_positive_semidefinite(self):
        geom = ArrayGeometry.upa(6, 6, LAM / 2)
        vals = np.linalg.eigvalsh(sinc_correlation(geom, LAM))
        assert vals.min() > -1e-8

    @pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    def test_exactly_symmetric_and_centrosymmetric(self, geom):
        r = sinc_correlation(geom, LAM)
        assert np.array_equal(r, r.T)
        assert np.array_equal(r, r[::-1, ::-1])

    @pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    def test_matches_element_distances(self, geom):
        # the sinc of the distances between element positions; at an origin
        # of zero the positions are the offsets the table uses
        pos = geom.element_positions
        dense = np.sinc(2.0 * math.pi / LAM * distance_matrix(pos, pos) / np.pi)
        assert np.abs(sinc_correlation(geom, LAM) - dense).max() <= 1e-14

    def test_peak_memory(self):
        # the (Q, Q) result; a (Q, Q) distance array, or a (Q, Q, 3) array
        # of element differences, would come on top
        geom = ArrayGeometry.upa(32, 32, LAM / 2)
        q = geom.size
        tracemalloc.start()
        try:
            sinc_correlation(geom, LAM)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * q * q * np.dtype(np.float64).itemsize


class TestMatrixSqrtFactor:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_factor(np.eye(3)), np.eye(3), atol=1e-12)

    def test_reconstruction(self):
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = matrix_sqrt_factor(r)
        np.testing.assert_allclose(f @ f.T, r, atol=1e-10)

    def test_rank_deficient_duplicate_positions(self):
        # zero spacing along one axis duplicates element positions
        geom = ArrayGeometry(counts=(2, 2), spacing=(0.0, 0.3 * LAM))
        r = sinc_correlation(geom, LAM)
        f = matrix_sqrt_factor(r)
        np.testing.assert_allclose(f @ f.T, r, atol=1e-8)

    @pytest.mark.parametrize(
        "r",
        [*(sinc_correlation(g, LAM) for g in GEOMETRIES.values()), np.eye(3)],
        ids=[*GEOMETRIES.keys(), "eye-3"],
    )
    def test_fold_matches_dense_root(self, r):
        f = matrix_sqrt_factor(r)
        assert f.shape == r.shape
        ref_err, rec_err = sqrt_factor_errors(r, f)
        # the root of a zero eigenvalue rounds to about sqrt(1e-16)
        assert ref_err <= 1e-8
        assert rec_err <= 1e-13

    @pytest.mark.parametrize(
        "r",
        [
            np.array([[1.0, 0.5], [0.5, 2.0]]),
            np.diag([1.0, 2.0, 3.0]),
            sinc_correlation(GEOMETRIES["upa-3x5"], LAM)[:-1, :-1],
        ],
        ids=["2x2", "diag-3", "cropped"],
    )
    def test_not_centrosymmetric_rejected(self, r):
        with pytest.raises(ValueError, match="centrosymmetric"):
            matrix_sqrt_factor(r)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            matrix_sqrt_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.fixture(scope="module")
def small_correlations():
    rx = ArrayGeometry.upa(3, 1, 0.3 * LAM)
    tx = ArrayGeometry.upa(2, 1, 0.25 * LAM)
    return sinc_correlation(rx, LAM), sinc_correlation(tx, LAM)


@pytest.fixture(scope="module")
def small_factors(small_correlations):
    return tuple(matrix_sqrt_factor(r) for r in small_correlations)


class TestMatrixNormalRoutes:
    def test_identity_reduces_to_iid(self):
        f_rx, f_tx = np.eye(3), np.eye(2)
        rng = np.random.default_rng(0)
        draws = 20000
        h = np.array([sample_matrix_normal_factor(rng, f_rx, f_tx, 2.0) for _ in range(draws)])
        # second moment of each entry ~ sigma_c^2, cross-correlation ~ 0
        np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), 4.0, rtol=0.05)
        cross = np.mean(h[:, 0, 0] * np.conj(h[:, 1, 1]))
        assert abs(cross) < 4.0 * 3.0 / math.sqrt(draws)

    def test_zero_sigma(self, small_factors):
        f_rx, f_tx = small_factors
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(
            sample_matrix_normal_factor(rng, f_rx, f_tx, 0.0), np.zeros((3, 2))
        )

    @pytest.mark.parametrize(
        "rx, tx",
        [
            (ArrayGeometry.upa(8, 8, LAM / 2), ArrayGeometry.upa(2, 2, LAM / 2)),  # Q x N_t
            (ArrayGeometry.single((0, 0, 0)), ArrayGeometry.upa(8, 8, LAM / 2)),  # 1 x Q
            (ArrayGeometry.single((0, 0, 0)), ArrayGeometry.single((1, 0, 0))),  # 1 x 1
            (ArrayGeometry.upa(2, 2, LAM / 2), ArrayGeometry.upa(8, 8, LAM / 2)),  # N x Q
        ],
    )
    def test_factor_route_matches_dense_product(self, rx, tx):
        f_rx = matrix_sqrt_factor(sinc_correlation(rx, LAM))
        f_tx = matrix_sqrt_factor(sinc_correlation(tx, LAM))
        rng_draw, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        h = sample_matrix_normal_factor(rng_draw, f_rx, f_tx, 1.3)
        dense = f_rx @ sample_iid_rayleigh(rng_ref, rx.size, tx.size, 1.3**2) @ f_tx.T
        assert h.shape == dense.shape and h.dtype == np.complex128
        assert np.linalg.norm(h - dense) <= 1e-12 * np.linalg.norm(dense)
        # same random stream consumed
        assert rng_draw.standard_normal() == rng_ref.standard_normal()

    def test_factor_route_covariance(self, small_correlations, small_factors):
        r_rx, r_tx = small_correlations
        f_rx, f_tx = small_factors
        rng = np.random.default_rng(2)
        sigma = 1.3
        cov = empirical_vec_cov(
            lambda g: sample_matrix_normal_factor(g, f_rx, f_tx, sigma), rng, 10**5
        )
        target = sigma**2 * np.kron(r_rx, r_tx)
        assert np.max(np.abs(cov - target)) < 0.05 * sigma**2

    def test_vec_route_covariance(self, small_correlations, small_factors):
        r_rx, r_tx = small_correlations
        f_rx, f_tx = small_factors
        rng = np.random.default_rng(3)
        cov = empirical_vec_cov(
            lambda g: sample_matrix_normal_vec(g, f_rx, f_tx, 1.0), rng, 10**5
        )
        target = np.kron(r_rx, r_tx)
        assert np.max(np.abs(cov - target)) < 0.05

    def test_vec_route_scalar_case(self):
        f1 = np.eye(1)
        rng = np.random.default_rng(4)
        draws = 10**5
        vals = np.array([sample_matrix_normal_vec(rng, f1, f1, 0.7)[0, 0] for _ in range(draws)])
        assert vals.shape == (draws,)
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(0.49, rel=0.02)

    def test_routes_match_in_moments(self, small_factors):
        # lighter version of the acceptance two-sample test
        f_rx, f_tx = small_factors
        rng = np.random.default_rng(5)
        draws = 20000
        a = np.array([sample_matrix_normal_factor(rng, f_rx, f_tx, 1.0) for _ in range(draws)])
        b = np.array([sample_matrix_normal_vec(rng, f_rx, f_tx, 1.0) for _ in range(draws)])
        va, vb = a.reshape(draws, -1), b.reshape(draws, -1)
        mean_gap = np.abs(va.mean(0) - vb.mean(0)).max()
        assert mean_gap < 4.0 / math.sqrt(draws)
        cov_a = (va[:, :, None] * np.conj(va[:, None, :])).mean(0)
        cov_b = (vb[:, :, None] * np.conj(vb[:, None, :])).mean(0)
        assert np.abs(cov_a - cov_b).max() < 10.0 / math.sqrt(draws)


class TestHalfspaceAngles:
    # _halfspace_direction_yz returns (d_y, d_z) = (cos(theta) sin(phi), sin(theta))
    # for the half-space angle density cos(theta) / (2 pi).

    def test_support(self):
        d_y, d_z = _halfspace_direction_yz(np.random.default_rng(6), 10000, np.float64)
        assert np.abs(d_y).max() <= 1.0 and np.abs(d_z).max() <= 1.0
        assert (d_y**2 + d_z**2).max() <= 1.0 + 1e-12

    def test_sin_theta_mean_zero(self):
        n = 10**5
        d_y, d_z = _halfspace_direction_yz(np.random.default_rng(7), n, np.float64)
        assert abs(np.mean(d_z)) < 3.0 / math.sqrt(3 * n)  # var(d_z) = 1/3
        assert abs(np.mean(d_y)) < 3.0 / math.sqrt(3 * n)  # var(d_y) = 1/3

    def test_theta_density_proportional_to_cos(self):
        # theta has density cos(theta)/2 exactly when d_z = sin(theta) is uniform on [-1, 1]
        n = 10**5
        _, d_z = _halfspace_direction_yz(np.random.default_rng(8), n, np.float64)
        edges = np.linspace(-1.0, 1.0, 21)
        observed, _ = np.histogram(d_z, bins=edges)
        expected = n / (len(edges) - 1)
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < stats.chi2.ppf(0.99, df=len(edges) - 2)


class TestPathSumLimit:
    def test_scalar_variance(self):
        geom = ArrayGeometry.single((0, 0, 0))
        rng = np.random.default_rng(9)
        err = path_sum_covariance_error(rng, 50, geom, geom, LAM, sigma_c=1.0, draws=10**5)
        # for 1x1 arrays the only entry is E|h|^2 vs sigma_c^2
        assert err < 0.02

    def test_error_shrinks_with_draws(self):
        rx = ArrayGeometry.upa(2, 1, LAM / 2)
        tx = ArrayGeometry.upa(2, 1, LAM / 2)
        err_small = path_sum_covariance_error(
            np.random.default_rng(10), 200, rx, tx, LAM, 1.0, draws=200
        )
        err_large = path_sum_covariance_error(
            np.random.default_rng(10), 2000, rx, tx, LAM, 1.0, draws=20000
        )
        assert err_large < err_small

    def test_kron_trace_identity(self, small_correlations):
        # trace of sigma^2 * N_tx * R_rx equals sigma^2 * N_tx * N_rx
        r_rx, r_tx = small_correlations
        sigma2 = 2.5
        u = sigma2 * len(r_tx) * r_rx
        assert np.trace(u) == pytest.approx(sigma2 * len(r_tx) * len(r_rx))

    def test_kron_of_psd_is_psd(self, small_correlations):
        r_rx, r_tx = small_correlations
        vals = np.linalg.eigvalsh(np.kron(r_rx, r_tx))
        assert vals.min() > -1e-8
