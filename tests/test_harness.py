import logging
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from rissim import correlation, harness, seeding, units
from rissim.channels import ChannelModel, LinkRole
from rissim.geometry import ArrayGeometry, fraunhofer_distance
from rissim.precoding import InfeasibleError
from rissim.ris import configure_tiles
from rissim.harness import (
    SimContext,
    aggregate,
    aggregate_csv,
    draw_links,
    noise_power,
    raw_csv,
    run_sweep,
    run_trial,
    ue_positions,
)
from rissim.scenario import default_config, tile_grid_for, with_q
from rissim.seeding import derive_rng


def cell_trials(config, model):
    """All trials of one (model, Q, n_ue) cell, run on a fresh context."""
    ctx = SimContext(config)
    return [run_trial(config, i, model=model, ctx=ctx) for i in range(config.trials)]


def small_config(**kw):
    base = dict(trials=4, sweep_q=[8], tile_shape=(2, 2), ris_tiles=(2, 1),
                bs_counts=(2, 2), ue_count=2)
    base.update(kw)
    return replace(default_config(), **base)


def with_direct_k(cfg, k_factor):
    links = dict(cfg.links)
    links[LinkRole.DIRECT] = replace(links[LinkRole.DIRECT], k_factor=k_factor)
    return replace(cfg, links=links)


class TestNoisePower:
    def test_default_budget(self):
        # -174 dBm/Hz + 10log10(20e6) + 6 dB = -94.99 dBm
        cfg = default_config()
        assert noise_power(cfg) == pytest.approx(3.1698e-13, rel=1e-4)
        assert units.watts_to_dbm(noise_power(cfg)) == pytest.approx(-94.99, abs=0.01)

    def test_one_hertz(self):
        cfg = replace(default_config(), bandwidth_hz=1.0, noise_figure_db=0.0)
        assert units.watts_to_dbm(noise_power(cfg)) == pytest.approx(-174.0)

    def test_doubling_bandwidth(self):
        cfg = default_config()
        cfg2 = replace(cfg, bandwidth_hz=2 * cfg.bandwidth_hz)
        gain_db = units.watts_to_dbm(noise_power(cfg2)) - units.watts_to_dbm(noise_power(cfg))
        assert gain_db == pytest.approx(10 * math.log10(2.0), abs=1e-9)


class TestTileGrid:
    def test_square_values(self):
        assert tile_grid_for(64, (8, 8)) == (1, 1)
        assert tile_grid_for(256, (8, 8)) == (2, 2)
        assert tile_grid_for(1024, (8, 8)) == (4, 4)
        assert tile_grid_for(128, (8, 8)) == (2, 1)

    def test_indivisible(self):
        with pytest.raises(ValueError):
            tile_grid_for(100, (8, 8))

    def test_with_q(self):
        cfg = with_q(default_config(), 256)
        assert cfg.q_total == 256


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        a = run_trial(cfg, 3, model=ChannelModel.NEARFIELD_GEOMETRIC)
        b = run_trial(cfg, 3, model=ChannelModel.NEARFIELD_GEOMETRIC)
        assert a.total_power_watts == b.total_power_watts
        assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)

    def test_model_selector(self):
        cfg = small_config(models=[ChannelModel.IID_RAYLEIGH])
        r = run_trial(cfg, 0)
        assert r.model == "iid_rayleigh"
        with pytest.raises(ValueError):
            run_trial(small_config(), 0)  # several models, none chosen

    def test_fully_blocked_links_flag_infeasible(self):
        cfg = small_config()
        links = dict(cfg.links)
        for role in (LinkRole.DIRECT, LinkRole.RIS_TO_RX):
            links[role] = replace(links[role], blockage_db=-math.inf)
        cfg = replace(cfg, links=links)
        r = run_trial(cfg, 0, model=ChannelModel.IID_RAYLEIGH)
        assert not r.feasible
        assert math.isnan(r.total_power_watts)
        assert r.infeasible_kind == "zero_channel"
        assert r.iterations == 0
        assert math.isnan(r.duality_gap)
        assert r.min_sv == 0.0  # the search's score of an all-zero channel

    def test_precoder_quality_recorded(self, monkeypatch):
        configured = []

        def capture(*args):
            out = configure_tiles(*args)
            configured.append(out[1])
            return out

        monkeypatch.setattr(harness, "configure_tiles", capture)
        r = run_trial(small_config(), 1, model=ChannelModel.CORRELATED_RAYLEIGH)
        assert r.feasible
        assert 0.0 <= r.duality_gap < 1e-6
        # the Gram-form score of the tile search is the same quantity
        gram = np.conj(configured[0]).T @ configured[0]
        assert r.min_sv == pytest.approx(math.sqrt(np.linalg.eigvalsh(gram)[0]), rel=1e-10)

    def test_infeasible_trial_records_the_search_score(self, monkeypatch):
        configured = []

        def capture(*args):
            out = configure_tiles(*args)
            configured.append(out)
            return out

        def diverge(*args, **kwargs):
            raise InfeasibleError("forced divergence", "diverged")

        monkeypatch.setattr(harness, "configure_tiles", capture)
        monkeypatch.setattr(harness, "min_power_precoder", diverge)
        r = run_trial(small_config(), 1, model=ChannelModel.CORRELATED_RAYLEIGH)
        assert not r.feasible and r.infeasible_kind == "diverged"
        assert math.isfinite(r.min_sv) and r.min_sv > 0.0
        (_, effective, score), = configured
        assert r.min_sv == score
        sv = np.linalg.svd(effective, compute_uv=False).min()
        assert r.min_sv == pytest.approx(sv, rel=1e-10)

    def test_result_fields(self):
        cfg = small_config()
        r = run_trial(cfg, 1, model=ChannelModel.IID_RICIAN)
        assert (r.q, r.n_ue, r.trial, r.seed) == (8, 2, 1, cfg.master_seed)
        assert r.feasible and r.total_power_watts > 0
        assert r.wall_time > 0
        assert r.iterations >= 1 and r.infeasible_kind is None


class TestPairedRandomness:
    def test_ue_positions_shared_across_counts(self):
        cfg = small_config()
        p1 = ue_positions(cfg, 5, 1)
        p4 = ue_positions(cfg, 5, 4)
        np.testing.assert_array_equal(p1[0], p4[0])

    def test_ue_positions_in_area(self):
        cfg = small_config()
        for trial in range(10):
            pos = ue_positions(cfg, trial, 8)
            assert np.all(np.abs(pos[:, 0] - 10.0) <= 4.0)
            assert np.all(np.abs(pos[:, 1] - 50.0) <= 4.0)
            np.testing.assert_array_equal(pos[:, 2], 1.0)

    def test_streams_independent_of_model_and_q(self):
        # the cluster stream depends only on (seed, trial, stream, link, ue)
        a = derive_rng(1234, 7, 1, 2, 0).standard_normal(5)
        b = derive_rng(1234, 7, 1, 2, 0).standard_normal(5)
        c = derive_rng(1234, 7, 1, 2, 1).standard_normal(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_iid_below_correlated_on_paired_seeds(self):
        cfg = replace(default_config(), trials=50, ue_count=2)
        iid = cell_trials(cfg, ChannelModel.IID_RAYLEIGH)
        corr = cell_trials(cfg, ChannelModel.CORRELATED_RAYLEIGH)
        mean = lambda rs: np.mean([r.total_power_watts for r in rs if r.feasible])
        assert mean(iid) < mean(corr)

    @pytest.mark.parametrize("model", list(ChannelModel), ids=lambda m: m.value)
    def test_one_stream_per_link(self, monkeypatch, model):
        calls = []
        derive = seeding.derive_rng
        monkeypatch.setattr(seeding, "derive_rng", lambda *p: calls.append(p) or derive(*p))
        run_trial(small_config(), 0, model=model)
        # two UE positions, then one stream for each of the 1 + 2 * 2 links
        assert len(calls) == 7
        geometric = model in (ChannelModel.LOWRANK_GEOMETRIC, ChannelModel.NEARFIELD_GEOMETRIC)
        stream = seeding.STREAM_CLUSTERS if geometric else seeding.STREAM_FADING
        assert {path[2] for path in calls[2:]} == {stream}


class TestNearFieldWarning:
    def test_warns_on_a_later_draw_inside_the_boundary(self, caplog):
        # At Q=1024 the surface's Fraunhofer boundary is 57.6 m.  In a 100 m
        # square around (60, 50, 1) the first UE of seed 0 lies outside it,
        # and later UEs lie inside.
        cfg = replace(
            default_config(), models=[ChannelModel.IID_RICIAN], sweep_q=[1024],
            sweep_n_ue=[2], trials=20, ue_center=(60.0, 50.0, 1.0), ue_side=100.0,
            master_seed=0,
        )
        ctx = SimContext(with_q(cfg, 1024))
        boundary = fraunhofer_distance(ctx.ris_geom.aperture, cfg.wavelength)
        assert boundary == pytest.approx(57.6, abs=0.05)
        assert np.linalg.norm(ue_positions(cfg, 0, 1)[0] - ctx.ris_geom.center) > boundary
        with caplog.at_level(logging.WARNING, logger="rissim.harness"):
            run_sweep(cfg)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1, messages
        assert "iid_rician on link ris_ue" in messages[0]


class TestAggregation:
    def make_results(self):
        cfg = small_config(trials=6)
        return cell_trials(cfg, ChannelModel.IID_RAYLEIGH)

    def test_aggregate_matches_recomputation(self):
        results = self.make_results()
        agg = aggregate(results)
        powers = np.array([r.total_power_watts for r in results if r.feasible])
        assert agg.mean_ptx_dbm == pytest.approx(
            10 * math.log10(powers.mean()) + 30.0, abs=1e-12
        )
        dbm = 10 * np.log10(powers) + 30.0
        assert agg.std_ptx_db == pytest.approx(float(dbm.std()), abs=1e-12)
        assert agg.trials == 6
        assert agg.feasible_frac == 1.0

    def test_infeasible_excluded(self):
        results = self.make_results()
        results[0] = replace(results[0], feasible=False, total_power_watts=math.nan)
        agg = aggregate(results)
        powers = [r.total_power_watts for r in results[1:]]
        assert agg.feasible_frac == pytest.approx(5 / 6)
        assert agg.mean_ptx_dbm == pytest.approx(units.watts_to_dbm(np.mean(powers)))

    def test_all_infeasible(self):
        results = [
            replace(r, feasible=False, total_power_watts=math.nan)
            for r in self.make_results()
        ]
        agg = aggregate(results)
        assert math.isnan(agg.mean_ptx_dbm) and math.isnan(agg.std_ptx_db)
        assert agg.feasible_frac == 0.0


class TestSweep:
    def test_single_point(self):
        cfg = small_config(models=[ChannelModel.IID_RAYLEIGH], sweep_q=[8], sweep_n_ue=[2])
        res = run_sweep(cfg)
        assert len(res.aggregates) == 1
        assert len(res.raw) == cfg.trials

    def test_axes_cartesian(self):
        cfg = small_config(
            models=[ChannelModel.IID_RAYLEIGH, ChannelModel.LOWRANK_GEOMETRIC],
            sweep_q=[4, 8],
            sweep_n_ue=[1, 2],
            trials=2,
        )
        res = run_sweep(cfg)
        assert len(res.aggregates) == 8
        assert len(res.raw) == 16
        assert [a.q for a in res.aggregates[:4]] == [4, 4, 8, 8]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(small_config(sweep_q=[]))

    @pytest.mark.parametrize(
        "axes",
        [
            dict(sweep_q=[8, 6]),  # 6 is not a multiple of the 2x2 tile
            dict(sweep_n_ue=[2, 5]),  # N_t = 4
            dict(models=[ChannelModel.IID_RAYLEIGH, ChannelModel.IID_RAYLEIGH]),
            dict(sweep_q=[8, 4, 8]),
            dict(sweep_n_ue=[1, 2, 1]),
        ],
    )
    def test_bad_axis_fails_before_first_trial(self, monkeypatch, axes):
        trials = []

        def no_trial(*args, **kwargs):
            trials.append(args)
            raise RuntimeError("a trial ran before the sweep was checked")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        cfg = small_config(models=[ChannelModel.IID_RAYLEIGH], sweep_n_ue=[2])
        with pytest.raises(ValueError):
            run_sweep(replace(cfg, **axes))
        assert trials == []

    def test_csv_headers_and_determinism(self):
        cfg = small_config(models=[ChannelModel.IID_RICIAN], trials=3)
        r1, r2 = run_sweep(cfg), run_sweep(cfg)
        c1, c2 = aggregate_csv(r1.aggregates), aggregate_csv(r2.aggregates)
        assert c1 == c2
        assert c1.splitlines()[0] == "model,Q,n_ue,trials,feasible_frac,mean_ptx_dbm,std_ptx_db,seed"
        assert raw_csv(r1.raw) == raw_csv(r2.raw)
        assert raw_csv(r1.raw).splitlines()[0] == "model,Q,n_ue,trial,feasible,ptx_watts,seed"

    def test_raw_rows_match_aggregate_count(self):
        cfg = small_config(models=[ChannelModel.IID_RAYLEIGH], trials=5)
        res = run_sweep(cfg)
        text = raw_csv(res.raw)
        assert len(text.strip().splitlines()) == 6  # header + 5 trials


class TestContextPerQ:
    def test_factor_built_once_and_output_unchanged(self, monkeypatch):
        built = []
        factor = correlation.matrix_sqrt_factor

        def counting_factor(geom, wavelength):
            built.append(geom.size)
            return factor(geom, wavelength)

        monkeypatch.setattr(correlation, "matrix_sqrt_factor", counting_factor)
        model = ChannelModel.CORRELATED_RAYLEIGH
        cfg = small_config(models=[model], sweep_q=[8, 16], sweep_n_ue=[1, 2, 4], trials=3)
        shared = run_sweep(cfg)
        # RIS (8, 16) and BS (4) factors, once per Q; a single antenna's
        # factor is [[1.0]] and is never built
        assert sorted(built) == [4, 4, 8, 16]

        fresh = [
            cell_trials(replace(with_q(cfg, q), ue_count=n_ue, models=[model]), model)
            for q in cfg.sweep_q
            for n_ue in cfg.sweep_n_ue
        ]
        assert aggregate_csv(shared.aggregates) == aggregate_csv([aggregate(c) for c in fresh])
        assert raw_csv(shared.raw) == raw_csv([r for c in fresh for r in c])


class TestSharedTrialDraw:
    MODELS = [ChannelModel.CORRELATED_RAYLEIGH, ChannelModel.NEARFIELD_GEOMETRIC]

    def sweep_config(self, sweep_n_ue=(1, 2, 4)):
        return small_config(models=self.MODELS, sweep_q=[8, 16], sweep_n_ue=list(sweep_n_ue),
                            trials=3)

    def test_links_drawn_once_per_trial_and_model_and_q(self, monkeypatch):
        drawn, derived, qs = [], [], []
        draw, derive, trial_fn = harness.draw_links, seeding.derive_rng, harness.run_trial

        def counting_trial(config, *args, **kwargs):
            qs.append(config.q_total)
            return trial_fn(config, *args, **kwargs)

        def counting_draw(model, links, config, ctx, trial, inputs):
            drawn.append((config.q_total, trial, model, len(links)))
            return draw(model, links, config, ctx, trial, inputs)

        def counting_derive(*path):
            derived.append((qs[-1], path))
            return derive(*path)

        monkeypatch.setattr(harness, "run_trial", counting_trial)
        monkeypatch.setattr(harness, "draw_links", counting_draw)
        monkeypatch.setattr(seeding, "derive_rng", counting_derive)
        models = list(ChannelModel)
        cfg = replace(self.sweep_config(), models=models)
        res = run_sweep(cfg)
        assert len(res.raw) == 5 * 2 * 3 * 3
        # Q, then trial, then model: one draw of the BS-to-surface link and
        # 2 x 4 UE links per (Q, trial, model)
        assert drawn == [
            (q, trial, model, 9) for q in (8, 16) for trial in range(3) for model in models
        ]
        # Each (Q, trial, stream, link, UE) is derived once, by the first
        # model that reads it: the UE positions and the fading cores by iid
        # Rayleigh, the clusters by low-rank.
        seed = cfg.master_seed
        paths = [(seeding.STREAM_UE_POSITION, j) for j in range(4)]
        for stream in (seeding.STREAM_FADING, seeding.STREAM_CLUSTERS):
            paths.append((stream, seeding.LINK_IDS["bs_ris"], 0))
            paths += [(stream, seeding.LINK_IDS[link], j) for link in ("bs_ue", "ris_ue")
                      for j in range(4)]
        expected = [(q, (seed, t, *p)) for q in (8, 16) for t in range(3) for p in paths]
        assert sorted(derived) == sorted(expected)

    def test_model_order_does_not_change_rows(self):
        models = list(ChannelModel)
        cfg = small_config(models=models, sweep_q=[4, 8], sweep_n_ue=[1, 2], trials=2)
        together = run_sweep(cfg)
        reversed_order = run_sweep(replace(cfg, models=models[::-1]))
        assert [a.model for a in reversed_order.aggregates[::4]] == [m.value for m in models[::-1]]

        def rows(res, model):
            raw = [r for r in res.raw if r.model == model.value]
            aggregates = [a for a in res.aggregates if a.model == model.value]
            powers = [r.total_power_watts.hex() for r in raw]
            return raw_csv(raw), aggregate_csv(aggregates), powers

        for model in models:
            alone = run_sweep(replace(cfg, models=[model]))
            assert len(alone.raw) == 2 * 2 * 2
            assert rows(together, model) == rows(alone, model) == rows(reversed_order, model)

    def test_smaller_cells_take_leading_columns_of_the_largest(self, monkeypatch):
        calls = []

        def capture(direct, h_t, h_r, tiles, codebook, table):
            calls.append((direct.shape[1], direct.copy(), h_t.copy(), h_r.copy()))
            return configure_tiles(direct, h_t, h_r, tiles, codebook, table)

        monkeypatch.setattr(harness, "configure_tiles", capture)
        # default sizes: Q=64, N_t=16, where the width of the surface-factor
        # product moves the last bit of a correlated draw
        cfg = replace(default_config(), models=[ChannelModel.CORRELATED_RAYLEIGH],
                      sweep_n_ue=[1, 2, 4], trials=3)
        run_sweep(cfg)
        assert [c[0] for c in calls] == [1, 2, 4] * 3
        for trial in range(3):
            *smaller, (_, direct, h_t, h_r) = calls[3 * trial:3 * trial + 3]
            for k, d, t, r in smaller:
                np.testing.assert_array_equal(d, direct[:, :k])
                np.testing.assert_array_equal(t, h_t)
                np.testing.assert_array_equal(r, h_r[:, :k])

    def test_cell_order_does_not_change_rows(self):
        ascending = run_sweep(self.sweep_config((1, 2, 4)))
        shuffled = run_sweep(self.sweep_config((4, 1, 2)))

        def by_cell(res):
            return sorted(
                (replace(r, wall_time=0.0) for r in res.raw),
                key=lambda r: (r.model, r.q, r.n_ue, r.trial),
            )

        assert by_cell(shuffled) == by_cell(ascending)
        key = lambda a: (a.model, a.q, a.n_ue)
        assert sorted(shuffled.aggregates, key=key) == sorted(ascending.aggregates, key=key)
        assert [a.n_ue for a in shuffled.aggregates[:3]] == [4, 1, 2]

    def test_ue_count_order_does_not_change_results_at_several_tiles(self):
        # Q=256 is four tiles and N_t=16; the cells of a trial share its
        # reflection table in every order, and each matches the cell run
        # alone on a fresh context
        cfg = replace(default_config(), models=self.MODELS, sweep_q=[256], trials=2)
        sized = with_q(cfg, 256)
        alone = {
            (model.value, n_ue): cell_trials(replace(sized, ue_count=n_ue, sweep_n_ue=[4]), model)
            for model in self.MODELS
            for n_ue in (1, 2, 3, 4)
        }
        for order in [(1, 2, 4), (4, 1, 2), (1, 4, 3)]:
            res = run_sweep(replace(cfg, sweep_n_ue=list(order)))
            assert len(res.raw) == 2 * 3 * 2
            for r in res.raw:
                expected = alone[r.model, r.n_ue][r.trial]
                assert replace(r, wall_time=0.0) == replace(expected, wall_time=0.0)

    def test_slot_holds_one_models_channels_and_table(self):
        sized = with_q(replace(default_config(), sweep_q=[256], sweep_n_ue=[1, 2, 4]), 256)
        ctx = SimContext(sized)
        a, b = self.MODELS

        def run(n_ue, trial, model):
            run_trial(replace(sized, ue_count=n_ue), trial, model=model, ctx=ctx)
            slot = ctx.trial_inputs(sized, trial)
            assert slot["channels"][0] == model
            return slot, slot["table"]

        def table_bytes(table):
            # the gathered conj(h_t), then each D_g column with its D_g^H D_g row
            return [table[0].tobytes()] + [(c.tobytes(), rows.tobytes()) for c, rows in table[1:]]

        def fresh_table(slot, n_ue):
            _, h_t, direct, h_r = slot["channels"]
            table = []
            configure_tiles(direct[:, :n_ue], h_t, h_r[:, :n_ue], ctx.tiles, ctx.codebook, table)
            return table_bytes(table)

        slot, table = run(1, 0, a)
        assert len(table) == 2
        first_rows = table[1][1]
        # the K=2 cell appends column 1 to the K=1 cell's table, and the
        # widest cell columns 2 and 3; the table and its Gram rows stay
        assert run(2, 0, a)[1] is table and len(table) == 3 and table[1][1] is first_rows
        assert run(4, 0, a)[1] is table and len(table) == 5
        # another model's draw starts its own table
        slot, table = run(2, 0, b)
        assert len(table) == 3 and table_bytes(table) == fresh_table(slot, 2)
        # a new trial starts from an empty slot
        slot, table = run(1, 1, a)
        assert table_bytes(table) == fresh_table(slot, 1)
        assert set(slot) == {"draw", "channels", "table"}

    def test_slot_holds_the_latest_trial_only(self):
        cfg = replace(small_config(sweep_n_ue=[1, 4]), ue_count=1)
        ctx = SimContext(cfg)
        model = ChannelModel.IID_RAYLEIGH
        run_trial(cfg, 0, model=model, ctx=ctx)
        run_trial(cfg, 1, model=model, ctx=ctx)
        slot = ctx.trial_inputs(cfg, 1)
        # drawn for max(n_ue) = 4 UEs although the cell uses one
        assert len(slot["draw"]["ues"]) == 4
        held, h_t, direct, h_r = slot["channels"]
        assert held == model and direct.shape == (4, 4) and h_r.shape == (8, 4)
        # nothing of trial 0 is left: its slot comes back empty
        assert ctx.trial_inputs(cfg, 0) == {}

    def test_slot_drops_draw_inputs_once_every_model_has_drawn(self):
        # the UE geometries, link set-ups, cores or clusters and the UE-link
        # LOS terms (RIS-to-UE K = 1) go as one once the context's last
        # model has drawn; its channels and table stay for the wider cells
        for models in ([ChannelModel.NEARFIELD_GEOMETRIC], self.MODELS):
            cfg = small_config(models=models, sweep_n_ue=[1, 2], ue_count=1)
            ctx = SimContext(cfg)
            slot = ctx.trial_inputs(cfg, 0)
            for model in models[:-1]:
                run_trial(cfg, 0, model=model, ctx=ctx)
                assert {"ues", (LinkRole.RIS_TO_RX, 1)} <= set(slot["draw"])
            last = models[-1]
            first = run_trial(cfg, 0, model=last, ctx=ctx)
            assert set(slot) == {"channels", "table"} and len(slot["table"]) == 2
            # the K=2 cell reads the kept channels and gives the fresh result
            wide = replace(cfg, ue_count=2)
            second = run_trial(wide, 0, model=last, ctx=ctx)
            expected = [run_trial(c, 0, model=last) for c in (cfg, wide)]
            assert [replace(r, wall_time=0.0) for r in (first, second)] == [
                replace(r, wall_time=0.0) for r in expected
            ]

    def test_two_model_trial_leaves_only_the_last_models_channels(self, monkeypatch):
        cfg = small_config(models=self.MODELS, sweep_n_ue=[1, 2], ue_count=2)
        ctx = SimContext(cfg)
        a, b = self.MODELS
        first = weakref.ref(harness.trial_channels(cfg, 0, a, ctx)[0])
        draw, alive_at_draw = harness.draw_links, []

        def checking_draw(*args):
            alive_at_draw.append(first() is not None)
            return draw(*args)

        monkeypatch.setattr(harness, "draw_links", checking_draw)
        h_t, direct, h_r = harness.trial_channels(cfg, 0, b, ctx)
        # model a's arrays are gone before model b draws
        assert alive_at_draw == [False]
        slot = ctx.trial_inputs(cfg, 0)
        assert set(slot) == {"channels", "table"} and slot["table"] == []
        held, *channels = slot["channels"]
        assert held == b and all(x is y for x, y in zip(channels, (h_t, direct, h_r)))
        # asking for b again reads the slot
        assert all(x is y for x, y in zip(harness.trial_channels(cfg, 0, b, ctx), channels))
        assert alive_at_draw == [False]

    def test_unordered_ue_counts_build_each_table_column_once(self, monkeypatch):
        # Q=256 is four tiles; the K=4 cell runs first, and the K=1 and K=2
        # cells read its columns
        built = []

        def counting(direct, h_t, h_r, tiles, codebook, table):
            before = max(len(table), 1)  # table[0] is conj(h_t), not a column
            out = configure_tiles(direct, h_t, h_r, tiles, codebook, table)
            built.append(len(table) - before)
            return out

        monkeypatch.setattr(harness, "configure_tiles", counting)
        cfg = replace(default_config(), models=self.MODELS, sweep_q=[256], sweep_n_ue=[4, 1, 2],
                      trials=2)
        run_sweep(cfg)
        assert built == [4, 0, 0] * (2 * len(self.MODELS))

    @pytest.mark.parametrize(
        "a, b",
        [
            (ChannelModel.IID_RICIAN, ChannelModel.NEARFIELD_GEOMETRIC),
            (ChannelModel.LOWRANK_GEOMETRIC, ChannelModel.CORRELATED_RAYLEIGH),
        ],
        ids=["rician-nearfield", "lowrank-correlated"],
    )
    def test_interleaved_calls_match_fresh_contexts(self, a, b):
        cfg = replace(small_config(sweep_n_ue=[1, 2]), ue_count=1)
        wider = replace(cfg, sweep_n_ue=[1, 4])
        calls = [
            (cfg, a, 0), (cfg, b, 0), (cfg, a, 1), (cfg, a, 0),
            (replace(cfg, master_seed=cfg.master_seed + 1), a, 0),
            (wider, a, 0), (replace(wider, ue_count=4), a, 0),
        ]
        ctx = SimContext(cfg)
        for config, model, trial in calls:
            shared = run_trial(config, trial, model=model, ctx=ctx)
            fresh = run_trial(config, trial, model=model, ctx=SimContext(config))
            assert replace(shared, wall_time=0.0) == replace(fresh, wall_time=0.0)


class TestSimContext:
    def test_correlation_cache_shared(self):
        cfg = small_config()
        ctx = SimContext(cfg)
        a = ctx.correlation_factor(ctx.ris_geom)
        b = ctx.correlation_factor(ctx.ris_geom)
        assert a is b

    @pytest.mark.parametrize(
        "model, los_name",
        [(ChannelModel.IID_RICIAN, "los_matrix"), (ChannelModel.NEARFIELD_GEOMETRIC, "nearfield_los")],
        ids=["planar", "nearfield"],
    )
    def test_bs_to_surface_los_computed_once(self, monkeypatch, model, los_name):
        # The shipped direct link has K = 0 and so no LOS; here it has one.
        cfg = with_direct_k(small_config(), 0.5)
        calls = []
        los_fn = getattr(harness, los_name)
        monkeypatch.setattr(harness, los_name, lambda tx, *a: calls.append(tx.size) or los_fn(tx, *a))
        cell_trials(cfg, model)
        # the 4-antenna BS to the surface once; each UE's two links every trial
        assert calls.count(4) == 1 + 2 * cfg.trials
        assert calls.count(cfg.q_total) == 2 * cfg.trials

    @pytest.mark.parametrize("k_factor, direct_calls", [(0.0, 0), (0.5, 2)])
    def test_los_built_only_for_a_link_with_a_los_term(self, monkeypatch, k_factor, direct_calls):
        # One trial of every model: the direct links (BS to a single-antenna
        # UE) get a LOS matrix per UE and LOS function only when K > 0.
        cfg = with_direct_k(small_config(), k_factor)
        calls = []
        for name in ("los_matrix", "nearfield_los"):
            fn = getattr(harness, name)
            monkeypatch.setattr(
                harness, name,
                lambda tx, rx, *a, fn=fn, name=name: calls.append((name, tx.size, rx.size))
                or fn(tx, rx, *a),
            )
        ctx = SimContext(cfg)
        for model in ChannelModel:
            run_trial(cfg, 0, model=model, ctx=ctx)
        direct = [c for c in calls if c[1:] == (4, 1)]
        assert sorted(direct) == [("los_matrix", 4, 1)] * direct_calls + [
            ("nearfield_los", 4, 1)
        ] * direct_calls
        # the surface links keep theirs: BS to surface and one per UE, per function
        assert len(calls) - len(direct) == 2 * (1 + 2)

    def test_link_budget_computed_once_per_trial_and_link(self, monkeypatch):
        cfg = small_config()
        calls = []
        budget = harness.pathloss
        monkeypatch.setattr(harness, "pathloss", lambda link, d: calls.append(d) or budget(link, d))
        ctx = SimContext(cfg)
        for model in ChannelModel:
            run_trial(cfg, 0, model=model, ctx=ctx)
        # the BS-to-surface link and the two links of each of the 2 UEs
        assert len(calls) == 1 + 2 * 2
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize(
        "model", [ChannelModel.IID_RICIAN, ChannelModel.NEARFIELD_GEOMETRIC],
        ids=["rician", "nearfield"],
    )
    @pytest.mark.parametrize(
        "counts, offset", [((3, 1), (0.0, 0.0, 0.0)), ((2, 1), (0.0, 4.0, 1.0))],
        ids=["3x1", "moved"],
    )
    def test_direct_draw_to_another_array_is_fresh(self, model, counts, offset):
        # The same (role, ue_index) drawn to a 2x1 array, then to another
        # array on the same context and trial, as a caller outside the sweep
        # does: each draw equals one on a fresh context.
        cfg = small_config()

        def draw(ctx, counts, offset):
            rx = ArrayGeometry.upa_centered(
                *counts, cfg.element_spacing, np.add(cfg.ris_center, offset)
            )
            link = (LinkRole.TX_TO_RIS, ctx.bs_geom, rx, 0)
            return draw_links(model, [link], cfg, ctx, 0, {})[0]

        ctx = SimContext(cfg)
        for args in (((2, 1), (0.0, 0.0, 0.0)), (counts, offset)):
            h = draw(ctx, *args)
            expected = draw(SimContext(cfg), *args)
            assert h.shape == expected.shape == (args[0][0] * args[0][1], 4)
            np.testing.assert_array_equal(h, expected)

    def test_geometry_matches_config(self):
        cfg = small_config()
        ctx = SimContext(cfg)
        assert ctx.ris_geom.size == cfg.q_total
        assert ctx.bs_geom.size == 4
        np.testing.assert_allclose(ctx.bs_geom.center, cfg.bs_center, atol=1e-12)
