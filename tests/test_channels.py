import math
from dataclasses import replace

import numpy as np
import pytest

from rissim import units
from rissim.channels import (
    Box,
    ChannelModel,
    LinkParams,
    LinkRole,
    draw_clusters,
    los_matrix,
    lowrank_from_clusters,
    nearfield_from_clusters,
    nearfield_los,
    pathloss,
    sample_iid_rayleigh,
)
from rissim.geometry import ArrayGeometry, fraunhofer_distance
from rissim.harness import SimContext, draw_links
from rissim.oracles import dense_lowrank
from rissim.scenario import default_config, load_config

LAM = 0.06
ROLE = LinkRole.TX_TO_RIS
LOWRANK = ChannelModel.LOWRANK_GEOMETRIC
NEARFIELD = ChannelModel.NEARFIELD_GEOMETRIC
VOLUME = Box(lo=(5.0, -10.0, -5.0), hi=(25.0, 10.0, 5.0))


class TestPathloss:
    def test_reference_distance(self):
        p = LinkParams(beta_db=-40.0, cluster_volume=VOLUME, d0=1.0, eta=2.0)
        assert pathloss(p, 1.0) == pytest.approx(1e-4)

    def test_minus_46_db_at_10m(self):
        # -46 dB - 20*log10(10) = -66 dB
        p = LinkParams(beta_db=-46.0, cluster_volume=VOLUME, d0=1.0, eta=2.0)
        assert units.linear_to_db(pathloss(p, 10.0)) == pytest.approx(-66.0, abs=1e-9)

    def test_free_space_beta_at_5ghz(self):
        # free-space reference pathloss (lambda / 4 pi)^2 at 1 m
        lam = units.SPEED_OF_LIGHT / 5e9
        assert units.linear_to_db((lam / (4.0 * math.pi)) ** 2) == pytest.approx(-46.4, abs=0.05)

    def test_blockage_and_shadow_offsets(self):
        p = LinkParams(beta_db=0.0, cluster_volume=VOLUME, blockage_db=-40.0, shadow_db=-3.0)
        assert units.linear_to_db(pathloss(p, 1.0)) == pytest.approx(-43.0)

    def test_nonpositive_distance_rejected(self):
        p = LinkParams(beta_db=0.0, cluster_volume=VOLUME)
        with pytest.raises(ValueError):
            pathloss(p, 0.0)
        with pytest.raises(ValueError):
            pathloss(p, -3.0)

    @pytest.mark.parametrize(
        "changes",
        [
            dict(d0=1e6, eta=100.0),  # (d0/d)^eta overflows the float power
            dict(beta_db=3000.0, d0=1e3, eta=10.0),  # finite factors, infinite product
            dict(blockage_db=-math.inf, d0=1e6, eta=100.0),
        ],
    )
    def test_budget_not_finite_rejected(self, changes):
        p = LinkParams(**{"beta_db": 0.0, "cluster_volume": VOLUME, **changes})
        with pytest.raises(ValueError, match="power budget"):
            pathloss(p, 52.4)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LinkParams(beta_db=-math.inf, cluster_volume=VOLUME)
        with pytest.raises(ValueError):
            LinkParams(beta_db=0.0, cluster_volume=VOLUME, k_factor=-1.0)


class TestIidRayleigh:
    def test_zero_power(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_iid_rayleigh(rng, 3, 4, 0.0), 0.0)

    def test_entry_power(self):
        rng = np.random.default_rng(1)
        h = sample_iid_rayleigh(rng, 320, 320, 2.0)  # > 1e5 iid entries
        assert np.mean(np.abs(h) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_entries_uncorrelated(self):
        rng = np.random.default_rng(2)
        n = 10**5
        samples = np.array([sample_iid_rayleigh(rng, 2, 1, 1.0).ravel() for _ in range(n)])
        cross = np.mean(samples[:, 0] * np.conj(samples[:, 1]))
        assert abs(cross) < 3.0 / math.sqrt(n)

    def test_reproducible(self):
        a = sample_iid_rayleigh(np.random.default_rng(42), 4, 4, 1.0)
        b = sample_iid_rayleigh(np.random.default_rng(42), 4, 4, 1.0)
        np.testing.assert_array_equal(a, b)


class TestLosMatrix:
    def test_scalar_case(self):
        tx = ArrayGeometry.single((0, 0, 0))
        rx = ArrayGeometry.single((10, 0, 0))
        h = los_matrix(tx, rx, 0.25, LAM)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(0.5)

    def test_rank_one(self):
        tx = ArrayGeometry.upa(4, 4, LAM / 2)
        rx = ArrayGeometry.upa(2, 3, LAM / 2, origin=(4.0, -3.0, 2.0))
        h = los_matrix(tx, rx, 1.0, LAM)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] < 1e-10

    def test_frobenius_norm(self):
        tx = ArrayGeometry.upa(4, 2, LAM / 2)
        rx = ArrayGeometry.upa(3, 3, LAM / 2, origin=(5.0, 1.0, -1.5))
        h_p = 0.3
        h = los_matrix(tx, rx, h_p, LAM)
        assert np.linalg.norm(h) ** 2 == pytest.approx(h_p * 9 * 8, rel=1e-12)

    def test_far_field_limit_of_nearfield_los(self):
        # Deep in the far field the exact phases differ from the planar ones by one
        # common phase; only the propagation direction at both ends gives that.
        tx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (0.0, 0.0, 0.0))
        rx = ArrayGeometry.upa_centered(3, 2, LAM / 2, (1200.0, 900.0, 700.0))
        assert np.linalg.norm(rx.center) > 1e4 * fraunhofer_distance(rx.aperture, LAM)
        ratio = nearfield_los(tx, rx, 0.5, LAM) / los_matrix(tx, rx, 0.5, LAM)
        np.testing.assert_allclose(ratio, ratio[0, 0], atol=1e-2)

    @pytest.mark.parametrize(
        "tx_counts, rx_counts",
        [((4, 4), (8, 8)), ((3, 1), (5, 7)), ((5, 7), (3, 1)), ((8, 8), (1, 1)), ((1, 1), (4, 4))],
        ids=["4x4-8x8", "3x1-5x7", "5x7-3x1", "8x8-single", "single-4x4"],
    )
    def test_nearfield_los_matches_dense_distances(self, tx_counts, rx_counts):
        # bit for bit the phases of the dense element-pair distance matrix
        rng = np.random.default_rng(tx_counts[0] * 10 + rx_counts[0])
        tx_spacing, rx_spacing = rng.uniform(0.1 * LAM, LAM, size=2)
        tx = ArrayGeometry.upa_centered(*tx_counts, tx_spacing, rng.uniform(-2.0, 2.0, size=3))
        rx_center = (20.0, 5.0, 3.0) + rng.uniform(-2.0, 2.0, size=3)
        rx = ArrayGeometry.upa_centered(*rx_counts, rx_spacing, rx_center)
        h_p, kappa = 0.3, 2.0 * math.pi / LAM
        u_rx, u_tx = rx.element_positions, tx.element_positions
        reference = np.linalg.norm(u_rx[:, None] - u_tx[None], axis=-1)
        expected = math.sqrt(h_p) * np.exp(1j * kappa * reference)
        assert np.array_equal(nearfield_los(tx, rx, h_p, LAM), expected)


def far_apart_geoms():
    tx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (0.0, 0.0, 0.0))
    rx = ArrayGeometry.upa_centered(2, 1, LAM / 2, (30.0, 0.0, 0.0))
    return tx, rx


def link_setup(h_p=1.0, k_factor=0.0, n_clusters=5, n_subpaths=20, volume=VOLUME):
    """Config and context whose ``ROLE`` link has power budget ``h_p`` at any distance."""
    base = default_config()
    links = dict(base.links)
    links[ROLE] = LinkParams(
        beta_db=units.linear_to_db(h_p), cluster_volume=volume, eta=0.0, k_factor=k_factor
    )
    config = replace(
        base, carrier_hz=units.SPEED_OF_LIGHT / LAM, links=links,
        n_clusters=n_clusters, n_subpaths=n_subpaths,
    )
    return config, SimContext(config)


def draw(model, tx, rx, setup, trial=0):
    """The ``ROLE`` link between ``tx`` and ``rx`` as the sweep draws it."""
    config, ctx = setup
    return draw_links(model, [(ROLE, tx, rx, 0)], config, ctx, trial, {})[0]


class TestRician:
    def setup_method(self):
        self.tx, self.rx = far_apart_geoms()

    def planar_los(self, setup):
        return los_matrix(self.tx, self.rx, 1.0, setup[0].wavelength)

    def test_k_zero_is_pure_nlos(self):
        # K = 0 leaves the iid draw, from the same fading stream as iid Rayleigh
        setup = link_setup(k_factor=0.0)
        h = draw(ChannelModel.IID_RICIAN, self.tx, self.rx, setup)
        expected = draw(ChannelModel.IID_RAYLEIGH, self.tx, self.rx, setup)
        np.testing.assert_array_equal(h, expected)

    def test_k_infinite_is_los(self):
        setup = link_setup(k_factor=1e12)
        h = draw(ChannelModel.IID_RICIAN, self.tx, self.rx, setup)
        los = self.planar_los(setup)
        assert np.abs(h - los).max() / np.abs(los).max() < 1e-5

    def test_k10_power_split(self):
        k = 10.0
        setup = link_setup(k_factor=k)
        draws = 10**4
        total = 0.0
        for trial in range(draws):
            total += np.linalg.norm(draw(ChannelModel.IID_RICIAN, self.tx, self.rx, setup, trial)) ** 2
        expected = (k / (1 + k)) * np.linalg.norm(self.planar_los(setup)) ** 2 + (1 / (1 + k)) * 8.0
        assert total / draws == pytest.approx(expected, rel=0.03)

    def test_recovers_nlos_exactly(self):
        # sqrt(1+K)*H - sqrt(K)*los equals the nLOS draw it was built from
        k = 3.7
        setup = link_setup(k_factor=k)
        h = draw(ChannelModel.IID_RICIAN, self.tx, self.rx, setup)
        nlos = draw(ChannelModel.IID_RAYLEIGH, self.tx, self.rx, setup)
        np.testing.assert_allclose(
            math.sqrt(1 + k) * h - math.sqrt(k) * self.planar_los(setup), nlos, atol=1e-12
        )

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k_factor"):
            load_config("[link.ris_ue]\nk_factor = -0.1\n")


class TestClusters:
    def test_empty_volume_rejected(self):
        with pytest.raises(ValueError):
            Box(lo=(0, 0, 0), hi=(1, 0, 1))

    def test_draw_invariants(self):
        rng = np.random.default_rng(10)
        cs = draw_clusters(rng, VOLUME, 5, 20, h_p=2.0)
        assert cs.positions.shape == (5, 20, 3) and cs.phases.shape == (5, 20)
        assert cs.gains.shape == (5,)
        # the centroids are the draw's first call on its stream
        centroids = VOLUME.sample(np.random.default_rng(10), 5)
        assert np.all(centroids >= VOLUME.lo) and np.all(centroids <= VOLUME.hi)
        assert np.all(np.abs(cs.positions - centroids[:, None, :]) <= 1.0 + 1e-12)
        assert np.all((cs.phases >= 0) & (cs.phases < 2 * math.pi))

    def test_gain_moments(self):
        rng = np.random.default_rng(11)
        gains = np.concatenate(
            [draw_clusters(rng, VOLUME, 50, 1, h_p=3.0).gains for _ in range(200)]
        )
        assert gains.mean() == pytest.approx(0.0, abs=3 * math.sqrt(3.0 / gains.size))
        assert np.mean(gains**2) == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize("shape", [(5, 20), (3, 7), (1, 1)], ids=["5x20", "3x7", "1x1"])
    @pytest.mark.parametrize("role", list(LinkRole), ids=lambda role: role.value)
    def test_matches_plain_stream_reads(self, role, shape):
        volume = default_config().links[role].cluster_volume
        for seed in range(10):
            cs = draw_clusters(np.random.default_rng(seed), volume, *shape, 2.0)
            positions, phases, gains = plain_cluster_draw(
                np.random.default_rng(seed), volume, *shape, 2.0
            )
            assert np.array_equal(cs.positions, positions)
            assert np.array_equal(cs.phases, phases)
            assert np.array_equal(cs.gains, gains)


def plain_cluster_draw(rng, volume, n_clusters, n_subpaths, h_p):
    """Reference cluster draw: centroids, gains, then per cluster its positions and phases."""
    centroids = volume.sample(rng, n_clusters)
    gains = math.sqrt(h_p) * rng.standard_normal(n_clusters)
    positions, phases = [], []
    for centroid in centroids:
        positions.append(centroid + rng.uniform(-1.0, 1.0, size=(n_subpaths, 3)))
        phases.append(rng.uniform(0.0, 2.0 * math.pi, size=n_subpaths))
    return np.array(positions), np.array(phases), gains


class TestLowRankGeometric:
    def test_single_path_rank_one(self):
        tx, rx = far_apart_geoms()
        h = draw(LOWRANK, tx, rx, link_setup(n_clusters=1, n_subpaths=1), trial=13)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[0] > 0 and (s[1:] < 1e-12 * s[0]).all()

    def test_rank_bound(self):
        tx = ArrayGeometry.upa_centered(4, 4, LAM / 2, (0.0, 0.0, 0.0))
        rx = ArrayGeometry.upa_centered(4, 4, LAM / 2, (30.0, 0.0, 0.0))
        h = draw(LOWRANK, tx, rx, link_setup(n_clusters=2, n_subpaths=3), trial=14)
        s = np.linalg.svd(h, compute_uv=False)
        assert (s[6:] < 1e-10 * s[0]).all()

    def test_default_scale_spectrum_cluster_dominated(self):
        # 5 clusters x 20 sub-paths: sub-paths of one cluster are nearly
        # collinear in angle, so the top 5 singular values carry the energy
        tx = ArrayGeometry.upa_centered(4, 4, LAM / 2, (30.0, 0.0, 10.0))
        rx = ArrayGeometry.upa_centered(8, 8, LAM / 2, (0.0, 50.0, 5.0))
        vol = Box(lo=(0.0, 0.0, 0.0), hi=(40.0, 50.0, 10.0))
        h = draw(LOWRANK, tx, rx, link_setup(volume=vol), trial=21)
        s = np.linalg.svd(h, compute_uv=False)
        assert s.size == 16  # rank bounded by min(L*R, N_rx, N_tx)
        assert (s[:5] ** 2).sum() / (s**2).sum() > 0.95

    def test_subpath_on_array_center_rejected(self):
        tx, rx = far_apart_geoms()
        cs = draw_clusters(np.random.default_rng(22), VOLUME, 5, 20, h_p=1.0)
        cs.positions[1, 3] = rx.center
        with pytest.raises(ValueError, match="array center"):
            lowrank_from_clusters(cs, tx, rx, LAM)

    @pytest.mark.parametrize(
        "tx_counts, rx_counts, spacing",
        [
            ((4, 4), (8, 8), LAM / 2),
            ((4, 4), (32, 32), LAM / 2),
            ((3, 5), (3, 5), 0.4 * LAM),
            ((1, 7), (7, 1), LAM / 2),
            ((7, 1), (1, 7), LAM / 2),
            ((4, 4), (8, 8), 0.0),
            ((4, 4), (1, 1), LAM / 2),
            ((1, 1), (8, 8), LAM / 2),
            ((1, 1), (1, 1), LAM / 2),
        ],
        ids=["4x4-8x8", "4x4-32x32", "3x5-3x5", "1x7-7x1", "7x1-1x7", "zero-spacing",
             "single-rx", "single-tx", "single-both"],
    )
    def test_matches_dense_oracle(self, tx_counts, rx_counts, spacing):
        # the per-axis factors against one exponential per element and sub-path
        tx = ArrayGeometry.upa_centered(*tx_counts, spacing, (0.0, 1.0, 0.5))
        rx = ArrayGeometry.upa_centered(*rx_counts, spacing, (30.0, -2.0, 1.0))
        for seed in range(5):
            cs = draw_clusters(np.random.default_rng(seed), VOLUME, 5, 20, h_p=1.0)
            h = lowrank_from_clusters(cs, tx, rx, LAM)
            ref = dense_lowrank(cs, tx, rx, LAM)
            assert h.shape == ref.shape == (rx.size, tx.size)
            assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_power_normalization(self):
        tx, rx = far_apart_geoms()
        h_p = 0.5
        setup = link_setup(h_p=h_p)
        draws = 10**4
        total = sum(np.linalg.norm(draw(LOWRANK, tx, rx, setup, t)) ** 2 for t in range(draws))
        assert total / draws == pytest.approx(h_p * tx.size * rx.size, rel=0.05)


class TestNearFieldGeometric:
    def test_single_everything_magnitude(self):
        tx = ArrayGeometry.single((0.0, 0.0, 0.0))
        rx = ArrayGeometry.single((30.0, 0.0, 0.0))
        h = draw(NEARFIELD, tx, rx, link_setup(h_p=0.81, n_clusters=1, n_subpaths=1), trial=17)
        assert abs(h[0, 0]) == pytest.approx(0.9, rel=1e-12)

    def test_far_field_limit_matches_planar_model(self):
        # scatterers and both ends beyond 1e4 x the Fraunhofer distance
        tx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (0.0, 0.0, 0.0))
        rx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (600.0, 50.0, 0.0))
        assert 600.0 > 1e4 * fraunhofer_distance(tx.aperture, LAM)
        far_volume = Box(lo=(500.0, -400.0, -100.0), hi=(900.0, 400.0, 100.0))
        cs = draw_clusters(np.random.default_rng(18), far_volume, 3, 5, h_p=1.0)
        cs.gains[:] = 1.0  # align amplitudes: the spherical model uses sqrt(h_p)
        h_far = lowrank_from_clusters(cs, tx, rx, LAM)
        h_near = nearfield_from_clusters(cs, tx, rx, LAM)
        assert np.abs(np.angle(h_near / h_far)).max() < 1e-2

    def test_subpath_on_element_rejected(self):
        tx, rx = far_apart_geoms()
        cs = draw_clusters(np.random.default_rng(23), VOLUME, 5, 20, h_p=1.0)
        cs.positions[2, 7] = tx.element_positions[3]
        with pytest.raises(ValueError, match="antenna element"):
            nearfield_from_clusters(cs, tx, rx, LAM)

    def test_near_field_deviation_from_planar(self):
        # 32x32 half-wavelength surface at 5 GHz observed from 10 m
        lam = units.SPEED_OF_LIGHT / 5e9
        ris = ArrayGeometry.upa_centered(32, 32, lam / 2, (0.0, 0.0, 0.0))
        source = np.array([10.0, 0.0, 0.0])
        assert fraunhofer_distance(ris.aperture, lam) > 10.0
        exact = nearfield_los(ArrayGeometry.single(source), ris, 1.0, lam)[:, 0]
        planar = los_matrix(ArrayGeometry.single(source), ris, 1.0, lam)[:, 0]
        dev = np.angle(exact / planar)
        dev = np.angle(np.exp(1j * (dev - dev[0])))  # common phase is irrelevant
        assert np.abs(dev).max() > math.pi / 8

    def test_power_normalization(self):
        tx, rx = far_apart_geoms()
        h_p = 2.0
        setup = link_setup(h_p=h_p)
        draws = 4000
        total = sum(np.linalg.norm(draw(NEARFIELD, tx, rx, setup, t)) ** 2 for t in range(draws))
        assert total / draws == pytest.approx(h_p * tx.size * rx.size, rel=0.05)

    def test_nearfield_los_frobenius(self):
        tx = ArrayGeometry.upa_centered(2, 2, LAM / 2, (0.0, 0.0, 0.0))
        rx = ArrayGeometry.upa_centered(3, 1, LAM / 2, (5.0, 1.0, 0.0))
        h = nearfield_los(tx, rx, 0.7, LAM)
        assert np.linalg.norm(h) ** 2 == pytest.approx(0.7 * 12, rel=1e-12)

    def test_reproducible(self):
        tx, rx = far_apart_geoms()
        a = draw(NEARFIELD, tx, rx, link_setup(n_clusters=2, n_subpaths=3), trial=20)
        b = draw(NEARFIELD, tx, rx, link_setup(n_clusters=2, n_subpaths=3), trial=20)
        np.testing.assert_array_equal(a, b)
