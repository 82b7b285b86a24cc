import rissim

PUBLIC_NAMES = {
    "ArrayGeometry",
    "Box",
    "ChannelModel",
    "InfeasibleError",
    "LinkParams",
    "LinkRole",
    "ScenarioConfig",
    "build_codebook",
    "build_tile_partition",
    "configure_tiles",
    "default_config",
    "full_config",
    "load_config",
    "min_power_precoder",
    "run_sweep",
    "run_trial",
}


def test_public_names_are_pinned():
    # A change to the public surface must be a visible edit of this set.
    assert len(rissim.__all__) == len(PUBLIC_NAMES) == 16
    assert set(rissim.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in rissim.__all__ if not hasattr(rissim, name)]
    assert missing == []
