import math

import numpy as np
import pytest

from rissim.oracles import brute_force_tiles, complex_randn, tile_instance
from rissim.ris import (
    Codebook,
    build_codebook,
    build_tile_partition,
    configure_tiles,
    min_singular_values,
)


class TestTilePartition:
    def test_cover_and_disjoint(self):
        tiles = build_tile_partition((4, 6), (2, 3))
        assert tiles.shape == (4, 6) and tiles.dtype == np.intp
        assert sorted(tiles.ravel()) == list(range(24))

    def test_tile_blocks_are_rectangles(self):
        tiles = build_tile_partition((4, 4), (2, 2))
        # first tile covers rows 0-1, cols 0-1 of the y-major grid
        np.testing.assert_array_equal(tiles[0], [0, 1, 4, 5])

    @pytest.mark.parametrize("ris, tile", [((4, 6), (2, 3)), ((6, 4), (3, 1)), ((8, 8), (8, 8))])
    def test_matches_nested_loop_ids(self, ris, tile):
        (n_y, n_z), (q_y, q_z) = ris, tile
        expected = [
            [(t_y * q_y + e_y) * n_z + (t_z * q_z + e_z) for e_y in range(q_y) for e_z in range(q_z)]
            for t_y in range(n_y // q_y)
            for t_z in range(n_z // q_z)
        ]
        np.testing.assert_array_equal(build_tile_partition(ris, tile), expected)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            build_tile_partition((4, 4), (3, 2))


class TestCodebook:
    def test_single_element_tile(self):
        cb = build_codebook((1, 1))
        assert len(cb) == 8
        np.testing.assert_allclose(
            sorted(cb.phases[:, 0]), 2 * math.pi * np.arange(8) / 8, atol=1e-12
        )

    def test_8x8_tile_size(self):
        assert len(build_codebook((8, 8))) == 512

    def test_4_element_tile_size(self):
        assert len(build_codebook((2, 2))) == 32

    def test_unit_modulus_and_range(self):
        cb = build_codebook((3, 2))
        assert np.all(cb.phases >= 0.0) and np.all(cb.phases < 2 * math.pi)
        np.testing.assert_allclose(np.abs(np.exp(1j * cb.phases)), 1.0, atol=1e-12)

    def test_phases_are_gradient_major(self):
        # entry g * 8 + b is gradient g plus offset b, wrapped into [0, 2*pi)
        cb = build_codebook((3, 2))
        assert cb.gradients.shape == (6, 6) and cb.offsets.shape == (8,)
        for m in range(len(cb)):
            g, b = divmod(m, 8)
            expected = np.mod(cb.gradients[g] + cb.offsets[b], 2 * math.pi)
            np.testing.assert_array_equal(cb.phases[m], expected)

    def test_gradients_present(self):
        # entry (k_y=1, k_z=0, b=0) of a 2x1 tile is phases [0, pi]
        cb = build_codebook((2, 1))
        np.testing.assert_allclose(cb.phases[8], [0.0, math.pi], atol=1e-12)


def gramians(stack):
    """(M, K, K) Gramians ``A^H A`` of a (M, N, K) batch."""
    return np.conj(stack).swapaxes(1, 2) @ stack


class TestMinSingularValues:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_svd(self, k):
        rng = np.random.default_rng(3)
        batch = complex_randn(rng, (40, 6, k))
        expected = np.array(
            [np.linalg.svd(m, compute_uv=False).min() for m in batch]
        )
        np.testing.assert_allclose(min_singular_values(gramians(batch)), expected, atol=1e-10)


class TestConfigureTiles:
    def make_instance(self, rng, ris=(4, 2), tile=(2, 2), n_t=4, n_ue=2):
        return tile_instance(rng, ris, tile, n_t, n_ue)

    def check_brute_force(self, seed, **sizes):
        args = self.make_instance(np.random.default_rng(seed), **sizes)
        greedy, eff = configure_tiles(*args)
        chosen, h_eff = brute_force_tiles(*args)
        np.testing.assert_array_equal(greedy, chosen)
        np.testing.assert_allclose(eff, h_eff, atol=1e-10)

    def test_single_entry_codebook(self):
        rng = np.random.default_rng(4)
        tiles = build_tile_partition((1, 2), (1, 2))
        codebook = Codebook(gradients=np.array([[0.1, 0.7]]), offsets=np.zeros(1))
        direct = complex_randn(rng, (3, 1))
        h_t = complex_randn(rng, (2, 3))
        h_r = complex_randn(rng, (2, 1))
        chosen, eff = configure_tiles(direct, h_t, h_r, tiles, codebook)
        assert chosen.tolist() == [0]
        _, expected = brute_force_tiles(direct, h_t, h_r, tiles, codebook)
        np.testing.assert_allclose(eff, expected, atol=1e-12)

    def test_matches_brute_force(self):
        self.check_brute_force(5)

    @pytest.mark.parametrize(
        "seed, ris, tile, n_ue",
        [
            *(
                pytest.param(50 + n_ue, ris, tile, n_ue, id=f"{n_ue}-{name}")
                for n_ue in (1, 2, 3, 4)
                for ris, tile, name in (((4, 2), (2, 2), "2x2"), ((6, 4), (3, 2), "3x2"))
            ),
            pytest.param(6, (4, 2), (2, 2), 1, id="seed6-1-2x2"),
            pytest.param(9, (4, 2), (2, 2), 2, id="seed9-2-2x2"),
        ],
    )
    def test_matches_brute_force_any_k(self, seed, ris, tile, n_ue):
        self.check_brute_force(seed, ris=ris, tile=tile, n_ue=n_ue)

    @pytest.mark.parametrize("n_ue", [1, 2, 4])
    def test_all_candidates_tied_pick_first(self, n_ue):
        # without reflected channels every candidate Gramian equals H^H H, so
        # nothing can be pruned and every tile keeps entry 0
        rng = np.random.default_rng(13)
        direct, h_t, h_r, tiles, codebook = self.make_instance(
            rng, ris=(8, 8), tile=(4, 4), n_ue=n_ue
        )
        chosen, eff = configure_tiles(direct, h_t, np.zeros_like(h_r), tiles, codebook)
        assert chosen.tolist() == [0] * len(tiles)
        np.testing.assert_array_equal(eff, direct)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ue", [3, 4, 6])
    def test_pruning_is_exact(self, n_ue, seed):
        # every choice is the argmax of min_singular_values over all 512
        # candidate Gramians of its tile, built here without the Gram form
        rng = np.random.default_rng(100 * n_ue + seed)
        direct, h_t, h_r, tiles, codebook = self.make_instance(
            rng, ris=(8, 24), tile=(8, 8), n_t=8, n_ue=n_ue
        )
        # path-loss scale, with the reflections dominating a blocked direct link
        direct, h_t, h_r = 1e-7 * direct, 1e-3 * h_t, 1e-3 * h_r
        chosen, eff = configure_tiles(direct, h_t, h_r, tiles, codebook)
        coeffs = np.exp(1j * codebook.phases)  # (512, 64)
        h_cur = direct.copy()
        for t, ids in enumerate(tiles):
            stack = np.stack(
                [
                    h_cur[:, j] + np.conj((coeffs * np.conj(h_r[ids, j])) @ h_t[ids])
                    for j in range(n_ue)
                ],
                axis=2,
            )  # (512, N_t, K)
            scores = min_singular_values(gramians(stack))
            assert chosen[t] == int(np.argmax(scores))
            h_cur = stack[chosen[t]]
        np.testing.assert_allclose(eff, h_cur, rtol=1e-10)

    def test_zero_ris_channels_leave_direct(self):
        rng = np.random.default_rng(7)
        direct, h_t, h_r, tiles, codebook = self.make_instance(rng)
        _, eff = configure_tiles(direct, h_t, np.zeros_like(h_r), tiles, codebook)
        np.testing.assert_allclose(eff, direct, atol=1e-12)

    def test_scaling_invariance(self):
        # scaling the direct channel and one side of the cascade scales every
        # candidate stacked matrix uniformly, so no selection may change
        rng = np.random.default_rng(8)
        direct, h_t, h_r, tiles, codebook = self.make_instance(rng)
        chosen, eff = configure_tiles(direct, h_t, h_r, tiles, codebook)
        c = 7.3
        scaled, eff_scaled = configure_tiles(c * direct, h_t, c * h_r, tiles, codebook)
        np.testing.assert_array_equal(chosen, scaled)
        np.testing.assert_allclose(eff_scaled, c * eff, rtol=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(10)
        direct, h_t, h_r, tiles, codebook = self.make_instance(rng)
        with pytest.raises(ValueError):
            configure_tiles(direct, h_t, h_r, tiles, Codebook(np.empty((0, 4)), np.zeros(8)))
        with pytest.raises(ValueError):
            configure_tiles(complex_randn(rng, (2, 3)), h_t, h_r, tiles, codebook)


class TestAssembleGamma:
    """The chosen element phases rebuild the channel the greedy search returns."""

    def configured(self, seed):
        direct, h_t, h_r, tiles, codebook = tile_instance(
            np.random.default_rng(seed), (4, 2), (2, 2), n_t=4, n_ue=2
        )
        chosen, eff = configure_tiles(direct, h_t, h_r, tiles, codebook)
        phases = np.full(tiles.size, np.nan)
        phases[tiles] = codebook.phases[chosen]
        return direct, h_t, h_r, phases, eff

    def test_diagonal_unit_modulus(self):
        # every element gets a phase in [0, 2 pi), so each reflection has unit modulus
        phases = self.configured(11)[3]
        assert phases.shape == (8,)
        assert np.all((phases >= 0) & (phases < 2 * math.pi))

    def test_reconstructs_incremental_channel(self):
        # monolithic h_d^H + h_r^H diag(exp(j omega)) H_t equals the tile-by-tile build
        direct, h_t, h_r, phases, eff = self.configured(12)
        reflected = (np.conj(h_r).T * np.exp(1j * phases)) @ h_t
        np.testing.assert_allclose(direct + np.conj(reflected).T, eff, atol=1e-10)
