"""Link-level simulator for RIS-assisted downlink MIMO systems.

Channel models of increasing fidelity (iid Rayleigh through near-field
geometric), tile/codebook surface configuration, SINR-constrained
power-minimization precoding, and a reproducible Monte Carlo sweep harness.
"""

from .channels import (
    Box,
    ChannelModel,
    LinkParams,
    LinkRole,
    los_matrix,
    nearfield_los,
    pathloss,
    sample_iid_rayleigh,
)
from .correlation import (
    matrix_sqrt_factor,
    sample_matrix_normal_factor,
    sinc_correlation,
)
from .geometry import ArrayGeometry, fraunhofer_distance, steering_vector
from .harness import noise_power, run_sweep, run_trial
from .precoding import InfeasibleError, PrecodingSolution, achieved_sinr, min_power_precoder
from .ris import (
    Codebook,
    build_codebook,
    build_tile_partition,
    configure_tiles,
)
from .scenario import ScenarioConfig, default_config, full_config, load_config

__version__ = "0.1.0"

__all__ = [
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
]
