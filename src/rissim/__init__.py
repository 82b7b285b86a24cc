"""Link-level simulator for RIS-assisted downlink MIMO systems.

Channel models of increasing fidelity (iid Rayleigh through near-field
geometric), tile/codebook surface configuration, SINR-constrained
power-minimization precoding, and a reproducible Monte Carlo sweep harness.
The pipeline's names are exported here; every other name lives in its module.
"""

from .channels import Box, ChannelModel, LinkParams, LinkRole
from .geometry import ArrayGeometry
from .harness import run_sweep, run_trial
from .precoding import InfeasibleError, min_power_precoder
from .ris import build_codebook, build_tile_partition, configure_tiles
from .scenario import ScenarioConfig, default_config, full_config, load_config

__version__ = "0.1.0"

__all__ = [
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
]
