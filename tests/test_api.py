import rissim

PUBLIC_NAMES = {
    "ArrayGeometry",
    "Box",
    "ChannelModel",
    "Codebook",
    "InfeasibleError",
    "LinkParams",
    "LinkRole",
    "PrecodingSolution",
    "ScenarioConfig",
    "achieved_sinr",
    "build_codebook",
    "build_tile_partition",
    "configure_tiles",
    "default_config",
    "fraunhofer_distance",
    "full_config",
    "load_config",
    "los_matrix",
    "matrix_sqrt_factor",
    "min_power_precoder",
    "nearfield_los",
    "noise_power",
    "pathloss",
    "run_sweep",
    "run_trial",
    "sample_iid_rayleigh",
    "sample_matrix_normal_factor",
    "sinc_correlation",
    "steering_vector",
}


def test_public_names_are_pinned():
    # A change to the public surface must be a visible edit of this set.
    assert len(rissim.__all__) == len(PUBLIC_NAMES) == 29
    assert set(rissim.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in rissim.__all__ if not hasattr(rissim, name)]
    assert missing == []
