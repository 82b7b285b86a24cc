import math

import numpy as np
import pytest

from rissim import ris
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

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 3e-9 + 4e-9j])
    def test_k2_close_eigenvalues_to_full_precision(self, eps):
        # eigenvalues 1 +- |eps|: a trace/determinant form loses up to
        # sqrt(machine eps) of the smaller one here
        grams = np.array([[[1.0, eps], [np.conj(eps), 1.0]]], dtype=complex)
        expected = np.sqrt(np.linalg.eigvalsh(grams)[:, 0])
        np.testing.assert_allclose(min_singular_values(grams), expected, rtol=1e-14, atol=0)


class TestConfigureTiles:
    def make_instance(self, rng, ris=(4, 2), tile=(2, 2), n_t=4, n_ue=2):
        return tile_instance(rng, ris, tile, n_t, n_ue)

    def check_brute_force(self, seed, **sizes):
        args = self.make_instance(np.random.default_rng(seed), **sizes)
        greedy, eff, min_sv = configure_tiles(*args)
        chosen, h_eff = brute_force_tiles(*args)
        np.testing.assert_array_equal(greedy, chosen)
        np.testing.assert_allclose(eff, h_eff, atol=1e-10)
        # the returned score is the configured channel's minimum singular value
        assert min_sv == pytest.approx(np.linalg.svd(eff, compute_uv=False).min(), rel=1e-10)

    def test_single_entry_codebook(self):
        rng = np.random.default_rng(4)
        tiles = build_tile_partition((1, 2), (1, 2))
        codebook = Codebook(gradients=np.array([[0.1, 0.7]]), offsets=np.zeros(1))
        direct = complex_randn(rng, (3, 1))
        h_t = complex_randn(rng, (2, 3))
        h_r = complex_randn(rng, (2, 1))
        chosen, eff, _ = configure_tiles(direct, h_t, h_r, tiles, codebook)
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
        chosen, eff, _ = configure_tiles(direct, h_t, np.zeros_like(h_r), tiles, codebook)
        assert chosen.tolist() == [0] * len(tiles)
        np.testing.assert_array_equal(eff, direct)

    @pytest.mark.parametrize("n_ue", [1, 2, 4])
    def test_tie_across_offsets_goes_to_the_lowest_codebook_index(self, monkeypatch, n_ue):
        # Scores come in the Gram product's offset-major order, entry (b, g) at
        # b * G + g.  A tie between (b=0, g=1) and (b=1, g=0) goes to codebook
        # index g * B + b = 1, not to 8, which comes first offset-major.
        def tied_scores(grams):
            scores = np.zeros(len(grams))
            scores[[1, len(grams) // ris.WAVEFRONT_PHASE_COUNT]] = 1.0
            return scores

        monkeypatch.setattr(ris, "_candidate_scores", tied_scores)
        args = self.make_instance(np.random.default_rng(14), ris=(8, 8), tile=(4, 4), n_ue=n_ue)
        chosen, _, _ = configure_tiles(*args)
        assert chosen.tolist() == [1] * len(args[3])

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
        chosen, eff, _ = configure_tiles(direct, h_t, h_r, tiles, codebook)
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
        _, eff, _ = configure_tiles(direct, h_t, np.zeros_like(h_r), tiles, codebook)
        np.testing.assert_allclose(eff, direct, atol=1e-12)

    def test_scaling_invariance(self):
        # scaling the direct channel and one side of the cascade scales every
        # candidate stacked matrix uniformly, so no selection may change
        rng = np.random.default_rng(8)
        direct, h_t, h_r, tiles, codebook = self.make_instance(rng)
        chosen, eff, _ = configure_tiles(direct, h_t, h_r, tiles, codebook)
        c = 7.3
        scaled, eff_scaled, _ = configure_tiles(c * direct, h_t, c * h_r, tiles, codebook)
        np.testing.assert_array_equal(chosen, scaled)
        np.testing.assert_allclose(eff_scaled, c * eff, rtol=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(10)
        direct, h_t, h_r, tiles, codebook = self.make_instance(rng)
        with pytest.raises(ValueError):
            configure_tiles(direct, h_t, h_r, tiles, Codebook(np.empty((0, 4)), np.zeros(8)))
        with pytest.raises(ValueError, match="tile partition"):
            configure_tiles(direct, h_t[:0], h_r[:0], tiles[:0], codebook)
        with pytest.raises(ValueError):
            configure_tiles(complex_randn(rng, (2, 3)), h_t, h_r, tiles, codebook)


def hermitian_batch(rng, m, k, rank=None):
    """(m, k, k) Gramians of complex Gaussian (k + 2, rank) factors, padded to k columns
    by copies of the first, so ``rank < k`` gives exactly rank-deficient Grams."""
    rank = k if rank is None else rank
    factor = complex_randn(rng, (m, k + 2, rank))
    stack = np.concatenate([factor, np.repeat(factor[:, :, :1], k - rank, axis=2)], axis=2)
    return gramians(stack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPivotTest:
    """``_lambda_min_above`` is Sylvester's criterion: λ_min(G) > τ, as ``eigvalsh`` says."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_agrees_with_eigvalsh(self, k):
        rng = np.random.default_rng(20 + k)
        grams = hermitian_batch(rng, 200, k)
        lam = np.linalg.eigvalsh(grams)[:, 0]
        trace = np.trace(grams, axis1=1, axis2=2).real
        # thresholds spread over the spectrum, away from lambda_min by more
        # than rounding
        for tau in np.linspace(-1.0, 2.0, 13) * np.median(lam):
            keep = np.abs(lam - tau) > 1e-9 * trace
            expected = lam > tau
            np.testing.assert_array_equal(ris._lambda_min_above(grams, tau)[keep], expected[keep])

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_one_part_in_a_million_either_side_of_lambda_min(self, k):
        rng = np.random.default_rng(30 + k)
        grams = hermitian_batch(rng, 50, k)
        lam = np.linalg.eigvalsh(grams)[:, 0]
        for g, lam_min in zip(grams, lam):
            assert ris._lambda_min_above(g[None], lam_min * (1.0 - 1e-6)).tolist() == [True]
            assert ris._lambda_min_above(g[None], lam_min * (1.0 + 1e-6)).tolist() == [False]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_exactly_rank_deficient(self, k, rank):
        # repeated columns (or none at all) make lambda_min zero up to
        # rounding: above any tau a millionth of the trace below it, not above
        # one a millionth above it
        rng = np.random.default_rng(40 + k + rank)
        grams = hermitian_batch(rng, 30, k, rank=max(rank, 1))
        if rank == 0:
            grams = np.zeros_like(grams)
        scale = 1e-6 * max(np.trace(grams, axis1=1, axis2=2).real.max(), 1.0)
        assert ris._lambda_min_above(grams, -scale).all()
        assert not ris._lambda_min_above(grams, scale).any()
        # a zero pivot is not positive
        assert not ris._lambda_min_above(np.zeros((3, k, k), dtype=complex), 0.0).any()

    @pytest.mark.parametrize("k", [3, 6])
    def test_empty_batch(self, k):
        above = ris._lambda_min_above(np.empty((0, k, k), dtype=complex), 1.0)
        assert above.shape == (0,) and above.dtype == bool

    def test_reads_the_lower_triangle(self):
        # like eigvalsh, only the lower triangle and the diagonal's real part count
        rng = np.random.default_rng(50)
        grams = hermitian_batch(rng, 100, 4)
        tau = np.median(np.linalg.eigvalsh(grams)[:, 0])
        scrambled = grams.copy()
        rows, cols = np.triu_indices(4, 1)
        scrambled[:, rows, cols] = complex_randn(rng, (100, len(rows)))
        scrambled[:, range(4), range(4)] += 1j
        np.testing.assert_array_equal(
            ris._lambda_min_above(scrambled, tau), ris._lambda_min_above(grams, tau)
        )

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_free(self, scale):
        # a candidate that fails a pivot keeps its scale, so Grams near the
        # ends of the float range neither overflow nor change their answer
        rng = np.random.default_rng(51)
        grams = hermitian_batch(rng, 100, 6)
        tau = np.median(np.linalg.eigvalsh(grams)[:, 0])
        np.testing.assert_array_equal(
            ris._lambda_min_above(scale * grams, scale * tau), ris._lambda_min_above(grams, tau)
        )


def _steering(counts, u, v):
    y, z = np.meshgrid(np.arange(counts[0]), np.arange(counts[1]), indexing="ij")
    return np.exp(1j * np.pi * (u * y + v * z)).ravel()


def geometric_instance(rng, n_ue, ris_counts=(16, 16), n_t=8, spread=0.05, paths=12):
    """Tile-search inputs shaped like the geometric models' channels: a
    low-rank BS-to-surface link of a few plane waves, UEs a small angle apart
    (near-collinear columns of ``h_r``) and a weak direct link."""
    h_t = sum(
        rng.standard_normal()
        * np.outer(
            _steering(ris_counts, *rng.uniform(-1.0, 1.0, 2)),
            _steering((n_t, 1), rng.uniform(-1.0, 1.0), 0.0),
        )
        for _ in range(paths)
    )
    u, v = rng.uniform(-1.0, 1.0, 2)
    h_r = np.stack(
        [_steering(ris_counts, *((u, v) + spread * rng.standard_normal(2))) for _ in range(n_ue)],
        axis=1,
    )
    direct = 1e-3 * complex_randn(rng, (n_t, n_ue))
    tiles = build_tile_partition(ris_counts, (8, 8))
    return direct, h_t, h_r, tiles, build_codebook((8, 8))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCandidateScores:
    """Every K >= 3 candidate that can win is scored exactly, so the choice is
    the exhaustive ``eigvalsh`` argmax over all candidates."""

    def exhaustive_check(self, monkeypatch, args):
        """Chosen indices, and per pivot test the candidates it took and passed."""
        tested = []
        scorer, pivot_test = ris._candidate_scores, ris._lambda_min_above

        def counted(grams, tau):
            above = pivot_test(grams, tau)
            tested.append((len(above), int(above.sum())))
            return above

        def checked(grams):
            scores = scorer(grams)
            exact = min_singular_values(grams)
            best = np.flatnonzero(exact == exact.max())
            np.testing.assert_array_equal(np.flatnonzero(scores == scores.max()), best)
            assert scores[best[0]] == exact[best[0]]
            return scores

        monkeypatch.setattr(ris, "_candidate_scores", checked)
        monkeypatch.setattr(ris, "_lambda_min_above", counted)
        chosen, _, _ = configure_tiles(*args)
        return chosen, tested

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_ue", [3, 4, 6])
    def test_geometric_choice_is_the_exhaustive_argmax(self, monkeypatch, n_ue, seed):
        args = geometric_instance(np.random.default_rng(10 * n_ue + seed), n_ue)
        _, tested = self.exhaustive_check(monkeypatch, args)
        # over a hundred candidates clear the interlacing bound, and the pivot
        # test both keeps and drops some of them
        taken, passed = np.sum(tested, axis=0)
        assert taken > 100 and 0 < passed < taken

    @pytest.mark.parametrize("n_ue", [3, 4])
    def test_duplicated_candidates_tie_to_the_lowest_index(self, monkeypatch, n_ue):
        # every gradient appears twice, so each candidate has an exact twin
        # G/2 * B entries later; the first of the tied pair wins
        direct, h_t, h_r, tiles, codebook = geometric_instance(np.random.default_rng(60), n_ue)
        half = codebook.gradients[::2]
        doubled = Codebook(gradients=np.concatenate([half, half]), offsets=codebook.offsets)
        chosen, _ = self.exhaustive_check(monkeypatch, (direct, h_t, h_r, tiles, doubled))
        assert (chosen < len(doubled) // 2).all()
        reference, _ = brute_force_tiles(direct, h_t, h_r, tiles, doubled)
        np.testing.assert_array_equal(chosen, reference)


def table_bytes(table):
    """The bytes of a reflection table: the gathered ``conj(h_t)``, then each
    UE column of ``D_g`` with its row of the ``D_g^H D_g`` lower triangle."""
    return [table[0].tobytes()] + [(column.tobytes(), rows.tobytes()) for column, rows in table[1:]]


class TestReflectionTable:
    """A call given the reflection table that narrower or wider calls on the
    same channels left behind returns the bytes of a call that builds it."""

    @pytest.mark.parametrize("n_t", [8, 6])
    @pytest.mark.parametrize("n_ue", [3, 4])
    def test_prefix_table_gives_the_fresh_result(self, monkeypatch, n_ue, n_t):
        # Q=256, four 8x8 tiles; channels for one UE more than the call reads
        direct, h_t, h_r, tiles, codebook = geometric_instance(
            np.random.default_rng(10 * n_ue + n_t), n_ue + 1, n_t=n_t
        )
        grams = []
        scorer = ris._candidate_scores

        def recorded(stack):
            grams.append(stack.tobytes())
            return scorer(stack)

        monkeypatch.setattr(ris, "_candidate_scores", recorded)

        def search(k, table):
            grams.clear()
            chosen, eff, _ = configure_tiles(direct[:, :k], h_t, h_r[:, :k], tiles, codebook, table)
            return chosen.tobytes(), eff.tobytes(), list(grams)

        built = []
        fresh = search(n_ue, built)
        assert search(n_ue, None) == fresh
        assert len(built) == 1 + n_ue
        for width in (0, 1, n_ue - 1, n_ue, n_ue + 1):
            table = []
            if width:
                search(width, table)
            # every candidate's Gramian, so also D_g^H D_g, is the fresh one
            assert search(n_ue, table) == fresh
            assert len(table) == 1 + max(width, n_ue)
            assert table_bytes(table[: 1 + n_ue]) == table_bytes(built)

    @pytest.mark.parametrize("n_t", [3, 6, 8, 16])
    def test_gram_rows_do_not_depend_on_the_call_that_adds_them(self, n_t):
        # Q=256; each build order adds column k in calls of other widths,
        # after other columns, or after a narrower call that only reads
        n_ue = min(n_t, 4)
        direct, h_t, h_r, tiles, codebook = geometric_instance(
            np.random.default_rng(70 + n_t), n_ue, n_t=n_t
        )
        orders = {(n_ue,), (1, n_ue), tuple(range(1, n_ue + 1)), (n_ue - 1, 1, n_ue), (2, 1, n_ue)}
        built = []
        for order in sorted(orders):
            table = []
            for k in order:
                configure_tiles(direct[:, :k], h_t, h_r[:, :k], tiles, codebook, table)
            built.append(table_bytes(table))
        assert len(built[0]) == 1 + n_ue
        assert all(b == built[0] for b in built)
        # row k holds entries (k, j <= k) of every tile's D_g^H D_g
        for k, (column, rows) in enumerate(table[1:]):
            assert rows.shape == (len(tiles), len(codebook.gradients), k + 1)
            for j in range(k + 1):
                expected = np.sum(np.conj(column) * table[1 + j][0], axis=-1)
                np.testing.assert_allclose(
                    rows[:, :, j], expected, rtol=1e-12, atol=1e-12 * np.abs(rows).max()
                )


    def test_columns_share_one_array(self):
        # the K=2 and K=4 calls each copy the earlier columns into their own
        # d_all; the table keeps views of the widest call's copy only
        direct, h_t, h_r, tiles, codebook = geometric_instance(np.random.default_rng(80), 4)
        table = []
        for k in (1, 2, 4):
            configure_tiles(direct[:, :k], h_t, h_r[:, :k], tiles, codebook, table)
        base = table[1][0].base
        assert len(table) == 5 and all(column.base is base for column, _ in table[1:])


class TestAssembleGamma:
    """The chosen element phases rebuild the channel the greedy search returns."""

    def configured(self, seed):
        direct, h_t, h_r, tiles, codebook = tile_instance(
            np.random.default_rng(seed), (4, 2), (2, 2), n_t=4, n_ue=2
        )
        chosen, eff, _ = configure_tiles(direct, h_t, h_r, tiles, codebook)
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
