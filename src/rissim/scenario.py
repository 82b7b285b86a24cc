"""Scenario configuration: shipped defaults, INI loading, and presets.

The default scenario is a coverage-extension deployment: a 4x4 UPA base
station at [30, 0, 10] m serves UEs in an 8 m x 8 m square around
[10, 50, 1] m via a reflecting surface centered at [0, 50, 5] m, all arrays
at half-wavelength spacing, 5 GHz carrier, 20 MHz bandwidth.  The direct
link is heavily attenuated (-40 dB blockage) and carries no line-of-sight
component, while the surface keeps strong Rician links to both ends.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

from . import units
from .channels import Box, ChannelModel, LinkParams, LinkRole

DEFAULT_BETA_DB = -46.0


@dataclass
class UeArea:
    """Square deployment area for UEs at a fixed height."""

    center: tuple[float, float, float] = (10.0, 50.0, 1.0)
    side: float = 8.0


@dataclass
class LinkConfig:
    params: LinkParams
    cluster_volume: Box


def _default_links() -> dict[LinkRole, LinkConfig]:
    beta = units.db_to_linear(DEFAULT_BETA_DB)
    return {
        LinkRole.DIRECT: LinkConfig(
            params=LinkParams(beta=beta, d0=1.0, eta=3.5, k_factor=0.0, blockage_db=-40.0),
            cluster_volume=Box(lo=(0.0, 0.0, 0.0), hi=(40.0, 60.0, 10.0)),
        ),
        LinkRole.TX_TO_RIS: LinkConfig(
            params=LinkParams(beta=beta, d0=1.0, eta=2.0, k_factor=10.0),
            cluster_volume=Box(lo=(0.0, 0.0, 0.0), hi=(40.0, 50.0, 10.0)),
        ),
        LinkRole.RIS_TO_RX: LinkConfig(
            params=LinkParams(beta=beta, d0=1.0, eta=2.8, k_factor=1.0),
            cluster_volume=Box(lo=(0.0, 40.0, 0.0), hi=(40.0, 60.0, 10.0)),
        ),
    }


@dataclass
class ScenarioConfig:
    """Every physical and run-control parameter of a simulation."""

    carrier_hz: float = 5e9
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 6.0
    n0_dbm_per_hz: float = -174.0
    gamma_thr: float = 10.0

    bs_counts: tuple[int, int] = (4, 4)
    bs_center: tuple[float, float, float] = (30.0, 0.0, 10.0)
    ris_tiles: tuple[int, int] = (1, 1)
    tile_shape: tuple[int, int] = (8, 8)
    ris_center: tuple[float, float, float] = (0.0, 50.0, 5.0)
    spacing_wavelengths: float = 0.5
    tile_order: str = "raster"

    ue_count: int = 2
    ue_area: UeArea = field(default_factory=UeArea)

    links: dict[LinkRole, LinkConfig] = field(default_factory=_default_links)
    n_clusters: int = 5
    n_subpaths: int = 20
    gain_distribution: str = "gaussian"

    precoder_max_iters: int = 500
    precoder_tol: float = 1e-10

    trials: int = 200
    master_seed: int = 1234
    models: list[ChannelModel] = field(default_factory=lambda: list(ChannelModel))
    sweep_q: list[int] = field(default_factory=lambda: [64])
    sweep_n_ue: list[int] = field(default_factory=lambda: [2])

    def __post_init__(self):
        positive = [
            (name, getattr(self, name))
            for name in (
                "carrier_hz", "bandwidth_hz", "gamma_thr", "spacing_wavelengths", "precoder_tol"
            )
        ]
        positive.append(("ue_area.side", self.ue_area.side))
        for name, value in positive:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.precoder_max_iters < 1:
            raise ValueError(f"precoder_max_iters must be >= 1, got {self.precoder_max_iters!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.ue_count < 1:
            raise ValueError("ue_count must be >= 1")

    @property
    def wavelength(self) -> float:
        return units.SPEED_OF_LIGHT / self.carrier_hz

    @property
    def element_spacing(self) -> float:
        return self.spacing_wavelengths * self.wavelength

    @property
    def ris_counts(self) -> tuple[int, int]:
        return (self.ris_tiles[0] * self.tile_shape[0], self.ris_tiles[1] * self.tile_shape[1])

    @property
    def q_total(self) -> int:
        n_y, n_z = self.ris_counts
        return n_y * n_z


def tile_grid_for(q: int, tile_shape: tuple[int, int]) -> tuple[int, int]:
    """Most-square tile grid realizing ``q`` elements with the given tile shape."""
    tile_size = tile_shape[0] * tile_shape[1]
    if q < 1 or q % tile_size:
        raise ValueError(f"q={q} is not a multiple of the tile size {tile_size}")
    n_tiles = q // tile_size
    t_z = int(math.isqrt(n_tiles))
    while n_tiles % t_z:
        t_z -= 1
    return (n_tiles // t_z, t_z)


def with_q(config: ScenarioConfig, q: int) -> ScenarioConfig:
    """Copy of ``config`` resized to ``q`` RIS elements (fixed tile shape)."""
    return replace(config, ris_tiles=tile_grid_for(q, config.tile_shape))


def default_config() -> ScenarioConfig:
    """Desk-scale defaults: 200 trials, single 8x8 tile (64 elements)."""
    return ScenarioConfig()


def full_config() -> ScenarioConfig:
    """Full-scale averaging preset: 1000 trials and a Q sweep up to 4096."""
    return ScenarioConfig(trials=1000, sweep_q=[64, 256, 1024, 4096])


PRESETS = {"desk": default_config, "full": full_config}


# ---------------------------------------------------------------------------
# INI round trip
# ---------------------------------------------------------------------------

_LINK_SECTIONS = {
    LinkRole.DIRECT: "link.bs_ue",
    LinkRole.TX_TO_RIS: "link.bs_ris",
    LinkRole.RIS_TO_RX: "link.ris_ue",
}


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _fmt_seq(values) -> str:
    return ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in values)


def dump_config(config: ScenarioConfig) -> str:
    """Render a config as INI text; :func:`load_config` reads it back."""
    cp = configparser.ConfigParser()
    cp["system"] = {
        "carrier_hz": _fmt(config.carrier_hz),
        "bandwidth_hz": _fmt(config.bandwidth_hz),
        "noise_figure_db": _fmt(config.noise_figure_db),
        "n0_dbm_per_hz": _fmt(config.n0_dbm_per_hz),
        "gamma_thr": _fmt(config.gamma_thr),
    }
    cp["bs"] = {
        "n_y": str(config.bs_counts[0]),
        "n_z": str(config.bs_counts[1]),
        "center": _fmt_seq(config.bs_center),
    }
    cp["ris"] = {
        "tiles_y": str(config.ris_tiles[0]),
        "tiles_z": str(config.ris_tiles[1]),
        "tile_n_y": str(config.tile_shape[0]),
        "tile_n_z": str(config.tile_shape[1]),
        "center": _fmt_seq(config.ris_center),
        "spacing_wavelengths": _fmt(config.spacing_wavelengths),
        "tile_order": config.tile_order,
    }
    cp["ue"] = {
        "count": str(config.ue_count),
        "area_center": _fmt_seq(config.ue_area.center),
        "area_side": _fmt(config.ue_area.side),
    }
    for role, section in _LINK_SECTIONS.items():
        link = config.links[role]
        box = link.cluster_volume
        cp[section] = {
            "beta_db": _fmt(units.linear_to_db(link.params.beta)),
            "d0": _fmt(link.params.d0),
            "eta": _fmt(link.params.eta),
            "k_factor": _fmt(link.params.k_factor),
            "blockage_db": _fmt(link.params.blockage_db),
            "shadow_db": _fmt(link.params.shadow_db),
            "cluster_volume": _fmt_seq(
                [box.lo[0], box.hi[0], box.lo[1], box.hi[1], box.lo[2], box.hi[2]]
            ),
        }
    cp["clusters"] = {
        "count": str(config.n_clusters),
        "subpaths": str(config.n_subpaths),
        "gain_distribution": config.gain_distribution,
    }
    cp["precoder"] = {
        "max_iters": str(config.precoder_max_iters),
        "tol": _fmt(config.precoder_tol),
    }
    cp["run"] = {
        "trials": str(config.trials),
        "master_seed": str(config.master_seed),
        "models": ", ".join(m.value for m in config.models),
    }
    cp["sweep"] = {
        "q": _fmt_seq(config.sweep_q),
        "n_ue": _fmt_seq(config.sweep_n_ue),
    }
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def load_config(source, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Build a config from INI text or a file path, on top of ``base`` defaults.

    Only the keys present in the file override the base; unknown sections or
    keys raise so typos do not silently fall back to defaults.
    """
    config = base if base is not None else default_config()
    cp = configparser.ConfigParser()
    if isinstance(source, str) and "\n" in source:
        cp.read_string(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            cp.read_file(fh)

    known = {
        "system", "bs", "ris", "ue", "clusters", "precoder", "run", "sweep",
        *_LINK_SECTIONS.values(),
    }
    unknown = set(cp.sections()) - known
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")

    def get(section, key, cast, current):
        if cp.has_option(section, key):
            return cast(cp.get(section, key))
        return current

    kw: dict = {}
    kw["carrier_hz"] = get("system", "carrier_hz", float, config.carrier_hz)
    kw["bandwidth_hz"] = get("system", "bandwidth_hz", float, config.bandwidth_hz)
    kw["noise_figure_db"] = get("system", "noise_figure_db", float, config.noise_figure_db)
    kw["n0_dbm_per_hz"] = get("system", "n0_dbm_per_hz", float, config.n0_dbm_per_hz)
    kw["gamma_thr"] = get("system", "gamma_thr", float, config.gamma_thr)

    kw["bs_counts"] = (
        get("bs", "n_y", int, config.bs_counts[0]),
        get("bs", "n_z", int, config.bs_counts[1]),
    )
    kw["bs_center"] = tuple(get("bs", "center", _floats, list(config.bs_center)))
    kw["ris_tiles"] = (
        get("ris", "tiles_y", int, config.ris_tiles[0]),
        get("ris", "tiles_z", int, config.ris_tiles[1]),
    )
    kw["tile_shape"] = (
        get("ris", "tile_n_y", int, config.tile_shape[0]),
        get("ris", "tile_n_z", int, config.tile_shape[1]),
    )
    kw["ris_center"] = tuple(get("ris", "center", _floats, list(config.ris_center)))
    kw["spacing_wavelengths"] = get(
        "ris", "spacing_wavelengths", float, config.spacing_wavelengths
    )
    kw["tile_order"] = get("ris", "tile_order", str, config.tile_order)

    kw["ue_count"] = get("ue", "count", int, config.ue_count)
    kw["ue_area"] = UeArea(
        center=tuple(get("ue", "area_center", _floats, list(config.ue_area.center))),
        side=get("ue", "area_side", float, config.ue_area.side),
    )

    links = {}
    for role, section in _LINK_SECTIONS.items():
        old = config.links[role]
        beta_db = get(section, "beta_db", float, units.linear_to_db(old.params.beta))
        vol = get(
            section,
            "cluster_volume",
            _floats,
            [old.cluster_volume.lo[0], old.cluster_volume.hi[0],
             old.cluster_volume.lo[1], old.cluster_volume.hi[1],
             old.cluster_volume.lo[2], old.cluster_volume.hi[2]],
        )
        links[role] = LinkConfig(
            params=LinkParams(
                beta=units.db_to_linear(beta_db),
                d0=get(section, "d0", float, old.params.d0),
                eta=get(section, "eta", float, old.params.eta),
                k_factor=get(section, "k_factor", float, old.params.k_factor),
                blockage_db=get(section, "blockage_db", float, old.params.blockage_db),
                shadow_db=get(section, "shadow_db", float, old.params.shadow_db),
            ),
            cluster_volume=Box(lo=(vol[0], vol[2], vol[4]), hi=(vol[1], vol[3], vol[5])),
        )
    kw["links"] = links

    kw["n_clusters"] = get("clusters", "count", int, config.n_clusters)
    kw["n_subpaths"] = get("clusters", "subpaths", int, config.n_subpaths)
    kw["gain_distribution"] = get("clusters", "gain_distribution", str, config.gain_distribution)

    kw["precoder_max_iters"] = get("precoder", "max_iters", int, config.precoder_max_iters)
    kw["precoder_tol"] = get("precoder", "tol", float, config.precoder_tol)

    kw["trials"] = get("run", "trials", int, config.trials)
    kw["master_seed"] = get("run", "master_seed", int, config.master_seed)
    if cp.has_option("run", "models"):
        names = [tok.strip() for tok in cp.get("run", "models").split(",") if tok.strip()]
        kw["models"] = [ChannelModel(name) for name in names]
    else:
        kw["models"] = list(config.models)
    kw["sweep_q"] = get("sweep", "q", _ints, list(config.sweep_q))
    kw["sweep_n_ue"] = get("sweep", "n_ue", _ints, list(config.sweep_n_ue))

    return ScenarioConfig(**kw)
