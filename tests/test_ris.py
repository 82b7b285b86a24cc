import math

import numpy as np
import pytest

from rissim.ris import (
    Codebook,
    RisConfiguration,
    build_codebook,
    build_tile_partition,
    configure_tiles,
    min_singular_values,
    tile_effective_channel,
)


def complex_randn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def brute_force_selection(direct, h_t, h_r, partition, codebook):
    """Independent re-implementation of the per-tile argmax with full SVDs."""
    h_eff = direct.astype(complex).copy()
    chosen = []
    for ids in partition.element_ids:
        best_m, best_val = None, -1.0
        for m in range(len(codebook)):
            cols = []
            for j in range(h_eff.shape[1]):
                row = (np.conj(h_r[ids, j]) * np.exp(1j * codebook.phases[m])) @ h_t[ids]
                cols.append(h_eff[:, j] + np.conj(row))
            val = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False).min()
            if val > best_val:  # strict: ties keep the lowest index
                best_m, best_val = m, val
        chosen.append(best_m)
        for j in range(h_eff.shape[1]):
            h_eff[:, j] = tile_effective_channel(
                h_eff[:, j], h_t[ids], h_r[ids, j], codebook.phases[best_m]
            )
    return np.array(chosen), h_eff


class TestTilePartition:
    def test_cover_and_disjoint(self):
        part = build_tile_partition((4, 6), (2, 3))
        assert part.n_tiles == 4
        all_ids = np.concatenate(part.element_ids)
        assert sorted(all_ids) == list(range(24))

    def test_tile_blocks_are_rectangles(self):
        part = build_tile_partition((4, 4), (2, 2))
        # first tile covers rows 0-1, cols 0-1 of the y-major grid
        np.testing.assert_array_equal(part.element_ids[0], [0, 1, 4, 5])

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            build_tile_partition((4, 4), (3, 2))

    def test_orders(self):
        fwd = build_tile_partition((4, 4), (2, 2), order="raster")
        rev = build_tile_partition((4, 4), (2, 2), order="reversed")
        np.testing.assert_array_equal(fwd.element_ids[0], rev.element_ids[-1])
        with pytest.raises(ValueError):
            build_tile_partition((4, 4), (2, 2), order="spiral")


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
            np.testing.assert_array_equal(cb.entry_phases(m), expected)

    def test_gradients_present(self):
        # entry (k_y=1, k_z=0, b=0) of a 2x1 tile is phases [0, pi]
        cb = build_codebook((2, 1))
        np.testing.assert_allclose(cb.phases[8], [0.0, math.pi], atol=1e-12)


class TestTileEffectiveChannel:
    def test_zero_reflection_keeps_direct(self):
        rng = np.random.default_rng(0)
        h_k = complex_randn(rng, 4)
        h_t = complex_randn(rng, (3, 4))
        out = tile_effective_channel(h_k, h_t, np.zeros(3, complex), np.zeros(3))
        np.testing.assert_allclose(out, h_k)

    def test_single_element_magnitude_phase_invariant(self):
        rng = np.random.default_rng(1)
        h_t = complex_randn(rng, (1, 1))
        h_r = complex_randn(rng, 1)
        mags = []
        for omega in np.linspace(0, 2 * math.pi, 7):
            out = tile_effective_channel(np.zeros(1, complex), h_t, h_r, np.array([omega]))
            mags.append(abs(out[0]))
        np.testing.assert_allclose(mags, abs(h_r[0]) * abs(h_t[0, 0]), atol=1e-12)

    def test_matches_full_composition(self):
        # contribution of one tile equals the full reflected product with all
        # other elements' channels zeroed
        rng = np.random.default_rng(2)
        n_t, q = 3, 8
        ids = np.array([2, 3, 6, 7])
        h_t = complex_randn(rng, (q, n_t))
        h_r = complex_randn(rng, q)
        omega = rng.uniform(0, 2 * math.pi, size=4)
        h_k = complex_randn(rng, n_t)
        out = tile_effective_channel(h_k, h_t[ids], h_r[ids], omega)
        h_r_masked = np.zeros(q, complex)
        h_r_masked[ids] = h_r[ids]
        gamma = np.zeros((q, q), complex)
        gamma[ids, ids] = np.exp(1j * omega)
        row_full = np.conj(h_k) + np.conj(h_r_masked) @ gamma @ h_t
        np.testing.assert_allclose(np.conj(out), row_full, atol=1e-12)


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
        partition = build_tile_partition(ris, tile)
        codebook = build_codebook(tile)
        q = partition.n_elements
        direct = complex_randn(rng, (n_t, n_ue))
        h_t = complex_randn(rng, (q, n_t))
        h_r = complex_randn(rng, (q, n_ue))
        return direct, h_t, h_r, partition, codebook

    def test_single_entry_codebook(self):
        rng = np.random.default_rng(4)
        partition = build_tile_partition((1, 2), (1, 2))
        codebook = Codebook(
            tile_shape=(1, 2), gradients=np.array([[0.1, 0.7]]), offsets=np.zeros(1)
        )
        direct = complex_randn(rng, (3, 1))
        h_t = complex_randn(rng, (2, 3))
        h_r = complex_randn(rng, (2, 1))
        config, eff = configure_tiles(direct, h_t, h_r, partition, codebook)
        assert config.chosen_indices.tolist() == [0]
        expected = tile_effective_channel(direct[:, 0], h_t, h_r[:, 0], codebook.phases[0])
        np.testing.assert_allclose(eff[:, 0], expected, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        args = self.make_instance(rng)
        config, eff = configure_tiles(*args)
        chosen, h_eff = brute_force_selection(*args)
        np.testing.assert_array_equal(config.chosen_indices, chosen)
        np.testing.assert_allclose(eff, h_eff, atol=1e-10)

    @pytest.mark.parametrize(
        "ris, tile", [((4, 2), (2, 2)), ((6, 4), (3, 2))], ids=["2x2", "3x2"]
    )
    @pytest.mark.parametrize("n_ue", [1, 2, 3, 4])
    def test_matches_brute_force_any_k(self, ris, tile, n_ue):
        rng = np.random.default_rng(50 + n_ue)
        args = self.make_instance(rng, ris=ris, tile=tile, n_ue=n_ue)
        config, eff = configure_tiles(*args)
        chosen, h_eff = brute_force_selection(*args)
        np.testing.assert_array_equal(config.chosen_indices, chosen)
        np.testing.assert_allclose(eff, h_eff, atol=1e-10)

    @pytest.mark.parametrize("n_ue", [1, 2, 4])
    def test_all_candidates_tied_pick_first(self, n_ue):
        # without reflected channels every candidate Gramian equals H^H H, so
        # nothing can be pruned and every tile keeps entry 0
        rng = np.random.default_rng(13)
        direct, h_t, h_r, partition, codebook = self.make_instance(
            rng, ris=(8, 8), tile=(4, 4), n_ue=n_ue
        )
        config, eff = configure_tiles(direct, h_t, np.zeros_like(h_r), partition, codebook)
        assert config.chosen_indices.tolist() == [0] * partition.n_tiles
        np.testing.assert_array_equal(eff, direct)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ue", [3, 4, 6])
    def test_pruning_is_exact(self, n_ue, seed):
        # every choice is the argmax of min_singular_values over all 512
        # candidate Gramians of its tile, built here without the Gram form
        rng = np.random.default_rng(100 * n_ue + seed)
        direct, h_t, h_r, partition, codebook = self.make_instance(
            rng, ris=(8, 24), tile=(8, 8), n_t=8, n_ue=n_ue
        )
        # path-loss scale, with the reflections dominating a blocked direct link
        direct, h_t, h_r = 1e-7 * direct, 1e-3 * h_t, 1e-3 * h_r
        config, eff = configure_tiles(direct, h_t, h_r, partition, codebook)
        coeffs = np.exp(1j * codebook.phases)  # (512, 64)
        h_cur = direct.copy()
        for t, ids in enumerate(partition.element_ids):
            stack = np.stack(
                [
                    h_cur[:, j] + np.conj((coeffs * np.conj(h_r[ids, j])) @ h_t[ids])
                    for j in range(n_ue)
                ],
                axis=2,
            )  # (512, N_t, K)
            scores = min_singular_values(gramians(stack))
            assert config.chosen_indices[t] == int(np.argmax(scores))
            h_cur = stack[config.chosen_indices[t]]
        np.testing.assert_allclose(eff, h_cur, rtol=1e-10)

    def test_matches_brute_force_single_ue(self):
        rng = np.random.default_rng(6)
        args = self.make_instance(rng, n_ue=1)
        config, _ = configure_tiles(*args)
        chosen, _ = brute_force_selection(*args)
        np.testing.assert_array_equal(config.chosen_indices, chosen)

    def test_zero_ris_channels_leave_direct(self):
        rng = np.random.default_rng(7)
        direct, h_t, h_r, partition, codebook = self.make_instance(rng)
        _, eff = configure_tiles(direct, h_t, np.zeros_like(h_r), partition, codebook)
        np.testing.assert_allclose(eff, direct, atol=1e-12)

    def test_scaling_invariance(self):
        # scaling the direct channel and one side of the cascade scales every
        # candidate stacked matrix uniformly, so no selection may change
        rng = np.random.default_rng(8)
        direct, h_t, h_r, partition, codebook = self.make_instance(rng)
        config, eff = configure_tiles(direct, h_t, h_r, partition, codebook)
        c = 7.3
        scaled, eff_scaled = configure_tiles(c * direct, h_t, c * h_r, partition, codebook)
        np.testing.assert_array_equal(config.chosen_indices, scaled.chosen_indices)
        np.testing.assert_allclose(eff_scaled, c * eff, rtol=1e-12)

    def test_per_tile_optimality(self):
        # no codebook entry beats the chosen one at its own tile iteration
        rng = np.random.default_rng(9)
        direct, h_t, h_r, partition, codebook = self.make_instance(rng)
        config, _ = configure_tiles(direct, h_t, h_r, partition, codebook)
        h_eff = direct.copy()
        for t, ids in enumerate(partition.element_ids):
            vals = []
            for m in range(len(codebook)):
                cols = [
                    tile_effective_channel(h_eff[:, j], h_t[ids], h_r[ids, j], codebook.phases[m])
                    for j in range(h_eff.shape[1])
                ]
                vals.append(np.linalg.svd(np.stack(cols, axis=1), compute_uv=False).min())
            best = config.chosen_indices[t]
            assert vals[best] >= max(vals) - 1e-12
            assert best == int(np.argmax(vals))
            for j in range(h_eff.shape[1]):
                h_eff[:, j] = tile_effective_channel(
                    h_eff[:, j], h_t[ids], h_r[ids, j], codebook.phases[best]
                )

    def test_validation(self):
        rng = np.random.default_rng(10)
        direct, h_t, h_r, partition, codebook = self.make_instance(rng)
        with pytest.raises(ValueError):
            configure_tiles(
                direct, h_t, h_r, partition, Codebook((2, 2), np.empty((0, 4)), np.zeros(8))
            )
        with pytest.raises(ValueError):
            configure_tiles(complex_randn(rng, (2, 3)), h_t, h_r, partition, codebook)


class TestAssembleGamma:
    """The chosen element phases rebuild the channel the greedy search returns."""

    def configured(self, seed):
        rng = np.random.default_rng(seed)
        partition = build_tile_partition((4, 2), (2, 2))
        codebook = build_codebook((2, 2))
        direct = complex_randn(rng, (4, 2))
        h_t = complex_randn(rng, (8, 4))
        h_r = complex_randn(rng, (8, 2))
        config, eff = configure_tiles(direct, h_t, h_r, partition, codebook)
        return direct, h_t, h_r, config, eff

    def test_diagonal_unit_modulus(self):
        # every element gets a phase in [0, 2 pi), so each reflection has unit modulus
        config = self.configured(11)[3]
        assert config.element_phases.shape == (8,)
        assert np.all((config.element_phases >= 0) & (config.element_phases < 2 * math.pi))

    def test_reconstructs_incremental_channel(self):
        # monolithic h_d^H + h_r^H diag(exp(j omega)) H_t equals the tile-by-tile build
        direct, h_t, h_r, config, eff = self.configured(12)
        reflected = (np.conj(h_r).T * np.exp(1j * config.element_phases)) @ h_t
        np.testing.assert_allclose(direct + np.conj(reflected).T, eff, atol=1e-10)
