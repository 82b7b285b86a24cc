"""Scenario config checks and the INI field table.

Bad link and cluster settings must fail when the config is built, whether
in code or from an INI, so a sweep never starts on them.  The INI text is
produced and read by one field table; the properties here check it over
generated configs.
"""

import configparser
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rissim import channels, harness
from rissim.channels import Box, ChannelModel, LinkParams, LinkRole
from rissim.cli import main
from rissim.scenario import (
    ScenarioConfig,
    _closest_distances,
    default_config,
    dump_config,
    load_config,
)

BAD_FLOATS = [math.nan, math.inf, -math.inf]
VOLUME = Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0))


class TestLinkParams:
    @pytest.mark.parametrize("name", ["beta_db", "d0", "eta", "k_factor"])
    @pytest.mark.parametrize("value", BAD_FLOATS)
    def test_not_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            LinkParams(**{"beta_db": 0.0, "cluster_volume": VOLUME, name: value})

    @pytest.mark.parametrize("name", ["blockage_db", "shadow_db"])
    # 10^(_MAX_GAIN_DB/10) itself overflows a float
    @pytest.mark.parametrize("value", [math.nan, math.inf, 4000.0, channels._MAX_GAIN_DB])
    def test_nan_or_inf_offset_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            LinkParams(beta_db=0.0, cluster_volume=VOLUME, **{name: value})

    @pytest.mark.parametrize(
        "offsets",
        [
            dict(shadow_db=3000.0),
            dict(blockage_db=2000.0, shadow_db=1000.0),
            dict(blockage_db=100.0),
        ],
    )
    def test_db_budget_rejected(self, offsets):
        # each term is below the bound, their sum is not
        with pytest.raises(ValueError, match="beta_db \\+ blockage_db \\+ shadow_db"):
            LinkParams(beta_db=3000.0, cluster_volume=VOLUME, **offsets)

    @pytest.mark.parametrize(
        "section, key, value, name",
        [
            ("link.bs_ris", "beta_db", "nan", "beta"),
            ("link.bs_ris", "beta_db", "4000", "beta_db"),  # past the largest float
            ("link.bs_ris", "beta_db", repr(channels._MAX_GAIN_DB), "beta_db"),
            ("link.ris_ue", "k_factor", "nan", "k_factor"),
            ("link.bs_ue", "blockage_db", "inf", "blockage_db"),
        ],
    )
    def test_bad_value_in_ini_rejected(self, section, key, value, name):
        with pytest.raises(ValueError, match=name):
            load_config(f"[{section}]\n{key} = {value}\n")


class TestLinkBudgets:
    # At Q = 64 and N_t = 16 the direct budget must stay below 1500.2 dB and
    # the cascaded bs_ris + ris_ue budget below 1444.1 dB.

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[link.bs_ris]\nbeta_db = 3000\n", "bs_ris \\+ ris_ue"),
            ("[link.ris_ue]\nbeta_db = 800\n[link.bs_ris]\nbeta_db = 800\n", "bs_ris \\+ ris_ue"),
            ("[link.bs_ue]\nbeta_db = 1600\n", "bs_ue link budget"),
            # 1490.3 - 46 = 1444.3 dB
            ("[link.bs_ris]\nbeta_db = 1490.3\n", "bs_ris \\+ ris_ue"),
            # below the bound at Q = 64, not at Q = 4096
            ("[link.bs_ris]\nbeta_db = 1466\n[sweep]\nq = 64, 4096\n", "Q=4096"),
            # (d0/d)^eta at the closest distance: bs_ris 58.5 m, ris_ue 7.2 m, bs_ue 49.5 m
            ("[link.bs_ris]\nd0 = 1e100\neta = 3\n", "bs_ris \\+ ris_ue"),
            ("[link.ris_ue]\nd0 = 1e50\neta = 30\n", "bs_ris \\+ ris_ue"),
            ("[link.bs_ue]\nd0 = 1e100\neta = 20\n", "bs_ue link budget"),
        ],
    )
    def test_budget_past_float_range_rejected(self, text, name):
        with pytest.raises(ValueError, match=name):
            load_config(text)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[ue]\narea_center = 30, 0, 10\n", "reaches the BS"),
            # the 8 m square around (4, 50, 5) has the surface center on its edge
            ("[ue]\narea_center = 4, 50, 5\n", "reaches the surface"),
            ("[bs]\ncenter = 0, 50, 5\n", "coincide"),
        ],
    )
    def test_zero_length_link_rejected(self, text, name):
        with pytest.raises(ValueError, match=name):
            load_config(text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_budget_below_bound_runs_clean(self):
        config = default_config()
        links = dict(config.links)
        links[LinkRole.DIRECT] = replace(links[LinkRole.DIRECT], beta_db=1540.0, blockage_db=-40.0)
        links[LinkRole.TX_TO_RIS] = replace(links[LinkRole.TX_TO_RIS], beta_db=1490.0)
        config = replace(config, links=links, trials=2)
        ctx = harness.SimContext(config)
        for model in ChannelModel:
            for i in range(config.trials):
                assert harness.run_trial(config, i, model=model, ctx=ctx).feasible

class TestClusterSettings:
    @pytest.mark.parametrize(
        "lo, hi",
        [
            ((0.0, math.nan, 0.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.0, 0.0), (1.0, math.inf, 1.0)),
            ((0.0, 0.0), (1.0, 1.0)),
        ],
    )
    def test_bad_box_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="cluster volume"):
            Box(lo=lo, hi=hi)

    @pytest.mark.parametrize(
        "text",
        ["0, 40, nan, 60, 0, 10", "0, 40, 0, 60, 0", "0, 40, 0, 60, 0, 10, 20", "0, 40, 0, 60, 0, inf"],
    )
    def test_bad_volume_in_ini_rejected(self, text):
        with pytest.raises(ValueError, match="cluster_volume"):
            load_config(f"[link.bs_ue]\ncluster_volume = {text}\n")

    @pytest.mark.parametrize(
        "changes, name",
        [
            (dict(n_clusters=0), "n_clusters"),
            (dict(n_subpaths=0), "n_subpaths"),
            (dict(bs_counts=(4, 0)), "bs_counts"),
            (dict(tile_shape=(-8, 8)), "tile_shape"),
            (dict(master_seed=-1), "master_seed"),
            (dict(ris_tiles=(1, 0)), "ris_tiles"),
        ],
    )
    def test_bad_setting_rejected(self, changes, name):
        with pytest.raises(ValueError, match=name):
            replace(default_config(), **changes)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[clusters]\ncount = 0\n", "n_clusters"),
            ("[clusters]\nsubpaths = 0\n", "n_subpaths"),
        ],
    )
    def test_bad_setting_in_ini_rejected(self, text, name):
        with pytest.raises(ValueError, match=name):
            load_config(text)

    def test_bad_ini_fails_before_first_trial(self, tmp_path, monkeypatch, capsys):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **k: trials.append(a))
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\ntrials = 2\n[clusters]\ncount = 0\n")
        assert main(["run", "--config", str(ini)]) == 2
        assert "n_clusters" in capsys.readouterr().err
        assert trials == []


class TestUnknownKeys:
    # Q and the UE count come from [sweep] only, so the per-cell keys are
    # unknown; every run uses the raster tile order and Gaussian cluster gains.
    @pytest.mark.parametrize(
        "text, key",
        [
            ("[run]\ntrails = 5\n", "trails"),
            ("[system]\ncarier_hz = 1e9\n", "carier_hz"),
            ("[ue]\ncount = 4\n", "count"),
            ("[ris]\ntiles_y = 4\n", "tiles_y"),
            ("[ris]\ntile_order = raster\n", "tile_order"),
            ("[clusters]\ngain_distribution = gaussian\n", "gain_distribution"),
        ],
    )
    def test_unknown_key_rejected(self, text, key):
        with pytest.raises(ValueError, match=key):
            load_config(text)


# -- field table properties ---------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
# terms of at most 100 dB keep every budget below its bound, even a
# cascaded one at Q = 10^24 and N_t = 10^12, and so does a distance term
# (d0/d)^eta of at most 100 dB at the link's closest distance d
level_db = st.floats(max_value=100.0, allow_nan=False, allow_infinity=False)
offset_db = level_db | st.just(-math.inf)
count = st.integers(1, 10**6)
points = st.tuples(finite, finite, finite)
counts = st.tuples(count, count)
# sorted rather than filtered on order, which rejected half of all draws
spans = st.tuples(finite, finite).filter(lambda p: p[0] != p[1]).map(sorted)


@st.composite
def boxes(draw):
    lo, hi = zip(*(draw(spans) for _ in range(3)))
    return Box(lo=lo, hi=hi)


@st.composite
def link_params(draw, closest):
    d0 = draw(positive)
    excess = math.log10(d0) - math.log10(closest)
    eta = nonnegative if excess <= 0.0 else st.floats(0.0, min(10.0 / excess, sys.float_info.max))
    return LinkParams(
        beta_db=draw(level_db), cluster_volume=draw(boxes()), d0=d0,
        eta=draw(eta), k_factor=draw(nonnegative), blockage_db=draw(offset_db),
        shadow_db=draw(offset_db),
    )


@st.composite
def configs(draw):
    bs_center, ris_center, ue_center = draw(points), draw(points), draw(points)
    ue_side = draw(positive)
    closest = _closest_distances(bs_center, ris_center, ue_center, ue_side)
    assume(min(closest.values()) > 0.0)
    links = {role: draw(link_params(closest[role])) for role in LinkRole}
    return ScenarioConfig(
        carrier_hz=draw(positive),
        bandwidth_hz=draw(positive),
        noise_figure_db=draw(finite),
        n0_dbm_per_hz=draw(finite),
        gamma_thr=draw(positive),
        bs_counts=draw(counts),
        bs_center=bs_center,
        ris_tiles=draw(counts),
        tile_shape=draw(counts),
        ris_center=ris_center,
        spacing_wavelengths=draw(positive),
        ue_count=draw(count),
        ue_center=ue_center,
        ue_side=ue_side,
        links=links,
        n_clusters=draw(count),
        n_subpaths=draw(count),
        precoder_max_iters=draw(count),
        precoder_tol=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        trials=draw(count),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        models=draw(st.lists(st.sampled_from(list(ChannelModel)), min_size=1, unique=True)),
        sweep_q=draw(st.lists(count, min_size=1)),
        sweep_n_ue=draw(st.lists(count, min_size=1)),
    )


@settings(deadline=None)
@given(configs())
def test_dump_load_dump_is_identity(config):
    text = dump_config(config)
    assert dump_config(load_config(text)) == text


def _numeric_keys():
    cp = configparser.ConfigParser()
    cp.read_string(dump_config(default_config()))
    keys = []
    for section in cp.sections():
        for key, text in cp.items(section):
            try:
                [float(tok) for tok in text.split(",")]
            except ValueError:
                continue
            keys.append((section, key, text))
    return keys


NUMERIC_KEYS = _numeric_keys()


def test_every_numeric_key_is_covered():
    # all keys but models
    assert len(NUMERIC_KEYS) == 43


@pytest.mark.parametrize("section, key, text", NUMERIC_KEYS, ids=[f"{s}.{k}" for s, k, _ in NUMERIC_KEYS])
@settings(deadline=None, max_examples=20)
@given(bad=st.sampled_from(["nan", "inf"]), data=st.data())
def test_nan_or_inf_value_rejected(section, key, text, bad, data):
    tokens = [tok.strip() for tok in text.split(",")]
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = bad
    with pytest.raises(ValueError):
        load_config(f"[{section}]\n{key} = {', '.join(tokens)}\n")
