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
import sys
from dataclasses import dataclass, field, replace

from . import units
from .channels import Box, ChannelModel, LinkParams, LinkRole


def _default_links() -> dict[LinkRole, LinkParams]:
    return {
        LinkRole.DIRECT: LinkParams(
            beta_db=-46.0, eta=3.5, blockage_db=-40.0,
            cluster_volume=Box(lo=(0.0, 0.0, 0.0), hi=(40.0, 60.0, 10.0)),
        ),
        LinkRole.TX_TO_RIS: LinkParams(
            beta_db=-46.0, eta=2.0, k_factor=10.0,
            cluster_volume=Box(lo=(0.0, 0.0, 0.0), hi=(40.0, 50.0, 10.0)),
        ),
        LinkRole.RIS_TO_RX: LinkParams(
            beta_db=-46.0, eta=2.8, k_factor=1.0,
            cluster_volume=Box(lo=(0.0, 40.0, 0.0), hi=(40.0, 60.0, 10.0)),
        ),
    }


@dataclass
class ScenarioConfig:
    """Every physical and run-control parameter of a simulation.

    ``ris_tiles`` and ``ue_count`` are the size of one sweep cell:
    :func:`rissim.harness.run_sweep` sets them from ``sweep_q`` and
    ``sweep_n_ue``, so they have no INI key.
    """

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

    ue_count: int = 2
    ue_center: tuple[float, float, float] = (10.0, 50.0, 1.0)
    ue_side: float = 8.0

    links: dict[LinkRole, LinkParams] = field(default_factory=_default_links)
    n_clusters: int = 5
    n_subpaths: int = 20

    precoder_max_iters: int = 500
    precoder_tol: float = 1e-10

    trials: int = 200
    master_seed: int = 1234
    models: list[ChannelModel] = field(default_factory=lambda: list(ChannelModel))
    sweep_q: list[int] = field(default_factory=lambda: [64])
    sweep_n_ue: list[int] = field(default_factory=lambda: [2])

    def __post_init__(self):
        positive = (
            "carrier_hz", "bandwidth_hz", "gamma_thr", "spacing_wavelengths", "precoder_tol", "ue_side"
        )
        for name in positive:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # The precoder's first step moves every dual power by all of itself
        # (a relative change of 1), so a tolerance of 1 or more would stop it
        # at the single-user powers.
        if not self.precoder_tol < 1.0:
            raise ValueError(f"precoder_tol must be below 1, got {self.precoder_tol!r}")
        for name in ("noise_figure_db", "n0_dbm_per_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("bs_center", "ris_center", "ue_center"):
            point = getattr(self, name)
            if len(point) != 3 or not all(map(math.isfinite, point)):
                raise ValueError(f"{name} must be 3 finite coordinates, got {point!r}")
        for name in ("precoder_max_iters", "trials", "ue_count", "n_clusters", "n_subpaths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("bs_counts", "tile_shape", "ris_tiles"):
            if not all(n >= 1 for n in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed!r}")
        self._check_link_budgets()

    def _check_link_budgets(self) -> None:
        """Reject link budgets whose channels overflow the tile search.

        The search forms ``(a - d)^2 + 4 |b|^2 <= tr^2`` of each user pair's
        Gram minor ``[[a, b], [conj(b), d]]``, ``tr = a + d``, so that trace
        must stay below ``sqrt(F)``, ``F`` the largest float.  An entry of a
        link with linear budget ``g`` has ``|h|^2 <= T * g`` but with
        probability ``exp(-T)`` (the exponential tail of CN; ``T = 100``).
        An effective-channel entry adds the direct entry to ``Q`` cascaded
        products, so ``|h_eff|^2 <= 2 * (T * g_d + Q^2 * T^2 * g_c)`` with
        ``g_c`` the product of the ``bs_ris`` and ``ris_ue`` budgets; a Gram
        diagonal sums ``N_t`` of these and the trace is at most twice the
        larger diagonal.  ``tr^2 < F`` therefore holds when
        ``N_t * T * g_d`` and ``N_t * Q^2 * T^2 * g_c`` both stay below
        ``sqrt(F) / 8``, at the largest ``Q`` the config can run.  Each
        budget takes its distance term ``(d0/d)^eta`` at the smallest
        distance the link allows (:func:`_closest_distances`), or 1 where
        that distance is beyond ``d0``; a link that can have zero length
        (a UE square that reaches an array center) is rejected.
        """
        closest = _closest_distances(self.bs_center, self.ris_center, self.ue_center, self.ue_side)
        reaches = {
            LinkRole.DIRECT: "the UE square reaches the BS center",
            LinkRole.TX_TO_RIS: "the BS and surface centers coincide",
            LinkRole.RIS_TO_RX: "the UE square reaches the surface center",
        }
        for role, d in closest.items():
            if d == 0.0:
                raise ValueError(f"{reaches[role]}, so the {role.value} link can have zero length")

        def link_db(role):
            link = self.links[role]
            distance_db = 10.0 * link.eta * (math.log10(link.d0) - math.log10(closest[role]))
            return link.budget_db + max(0.0, distance_db)

        q = max([self.q_total, *self.sweep_q])
        n_t = self.bs_counts[0] * self.bs_counts[1]
        limit_db = 10.0 * math.log10(math.sqrt(sys.float_info.max) / (8.0 * n_t))
        cascaded = (LinkRole.TX_TO_RIS, LinkRole.RIS_TO_RX)
        budgets = [
            ("bs_ue", (LinkRole.DIRECT,), limit_db - 20.0),
            ("bs_ris + ris_ue", cascaded, limit_db - 40.0 - 20.0 * math.log10(q)),
        ]
        for name, roles, bound_db in budgets:
            total_db = sum(link_db(role) for role in roles)
            if total_db >= bound_db:
                at = ", ".join(f"{role.value} {closest[role]:g} m" for role in roles)
                raise ValueError(
                    f"{name} link budget {total_db:.1f} dB must be below {bound_db:.1f} dB "
                    f"so the tile search stays finite at Q={q}, N_t={n_t} "
                    f"(distance terms taken at the closest distances: {at})"
                )

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


def _closest_distances(bs_center, ris_center, ue_center, ue_side) -> dict[LinkRole, float]:
    """Smallest distance at which each link's pathloss is evaluated.

    The BS-to-surface distance is fixed by the two array centers; a UE can
    be anywhere in its square (side ``ue_side`` around ``ue_center``, at
    its height), so the other two links are bounded by the distance from
    the array center to that square.
    """
    half = ue_side / 2.0
    cx, cy, cz = ue_center

    def to_ue_square(point):
        dx = max(0.0, abs(point[0] - cx) - half)
        dy = max(0.0, abs(point[1] - cy) - half)
        return math.hypot(dx, dy, point[2] - cz)

    return {
        LinkRole.DIRECT: to_ue_square(bs_center),
        LinkRole.TX_TO_RIS: math.dist(bs_center, ris_center),
        LinkRole.RIS_TO_RX: to_ue_square(ris_center),
    }


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


def _fmt(x: float) -> str:
    """12 significant digits, or all of them where 12 would change the value,
    so the text always loads back to the same float."""
    text = format(x, ".12g")
    return text if float(text) == x else repr(x)


def _fmt_seq(values) -> str:
    return ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in values)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_box(text: str) -> Box:
    v = _floats(text)
    if len(v) != 6:
        raise ValueError(f"needs 6 values (lo, hi for x, y, z), got {len(v)}")
    return Box(lo=v[0::2], hi=v[1::2])


def _parse_models(text: str) -> list[ChannelModel]:
    return [ChannelModel(tok.strip()) for tok in text.split(",") if tok.strip()]


# Codecs: (parse the INI text, format the value).
_FLOAT = (float, _fmt)
_INT = (int, str)
_FLOATS = (_floats, _fmt_seq)
_INTS = (_ints, _fmt_seq)
_BOX = (_parse_box, lambda box: _fmt_seq([c for pair in zip(box.lo, box.hi) for c in pair]))
_MODELS = (_parse_models, lambda models: ", ".join(m.value for m in models))

# Every INI key as (section, key, path to the config value, codec), in the
# order the INI lists them.  A path step is an attribute name, a tuple index
# or a dict key.  The table drives dump, load and the unknown-key check.
_FIELDS = [
    ("system", "carrier_hz", ("carrier_hz",), _FLOAT),
    ("system", "bandwidth_hz", ("bandwidth_hz",), _FLOAT),
    ("system", "noise_figure_db", ("noise_figure_db",), _FLOAT),
    ("system", "n0_dbm_per_hz", ("n0_dbm_per_hz",), _FLOAT),
    ("system", "gamma_thr", ("gamma_thr",), _FLOAT),
    ("bs", "n_y", ("bs_counts", 0), _INT),
    ("bs", "n_z", ("bs_counts", 1), _INT),
    ("bs", "center", ("bs_center",), _FLOATS),
    ("ris", "tile_n_y", ("tile_shape", 0), _INT),
    ("ris", "tile_n_z", ("tile_shape", 1), _INT),
    ("ris", "center", ("ris_center",), _FLOATS),
    ("ris", "spacing_wavelengths", ("spacing_wavelengths",), _FLOAT),
    ("ue", "area_center", ("ue_center",), _FLOATS),
    ("ue", "area_side", ("ue_side",), _FLOAT),
    *(
        (f"link.{role.value}", key, ("links", role, key), codec)
        for role in LinkRole
        for key, codec in (
            ("beta_db", _FLOAT),
            ("d0", _FLOAT),
            ("eta", _FLOAT),
            ("k_factor", _FLOAT),
            ("blockage_db", _FLOAT),
            ("shadow_db", _FLOAT),
            ("cluster_volume", _BOX),
        )
    ),
    ("clusters", "count", ("n_clusters",), _INT),
    ("clusters", "subpaths", ("n_subpaths",), _INT),
    ("precoder", "max_iters", ("precoder_max_iters",), _INT),
    ("precoder", "tol", ("precoder_tol",), _FLOAT),
    ("run", "trials", ("trials",), _INT),
    ("run", "master_seed", ("master_seed",), _INT),
    ("run", "models", ("models",), _MODELS),
    ("sweep", "q", ("sweep_q",), _INTS),
    ("sweep", "n_ue", ("sweep_n_ue",), _INTS),
]
_FIELD_BY_KEY = {(section, key): (path, parse) for section, key, path, (parse, _) in _FIELDS}


def _get(obj, path):
    for step in path:
        obj = obj[step] if isinstance(obj, (tuple, dict)) else getattr(obj, step)
    return obj


def _updated(obj, updates: dict):
    """Copy of ``obj`` with nested ``{step: value or {step: ...}}`` updates.

    Each dataclass on an updated path is rebuilt with ``replace``, so it
    checks its new values.
    """

    def new(step, old):
        sub = updates[step]
        return _updated(old, sub) if isinstance(sub, dict) else sub

    if isinstance(obj, tuple):
        return tuple(new(i, v) if i in updates else v for i, v in enumerate(obj))
    if isinstance(obj, dict):
        return {k: new(k, v) if k in updates else v for k, v in obj.items()}
    return replace(obj, **{name: new(name, getattr(obj, name)) for name in updates})


def dump_config(config: ScenarioConfig) -> str:
    """Render a config as INI text; :func:`load_config` reads it back."""
    cp = configparser.ConfigParser()
    for section, key, path, (_, fmt) in _FIELDS:
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, fmt(_get(config, path)))
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def load_config(source, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Build a config from INI text or a file path, on top of ``base`` defaults.

    Only the keys present in the file override the base; unknown sections or
    keys raise so typos do not silently fall back to defaults.  The result
    is checked like any directly built config.
    """
    config = base if base is not None else default_config()
    cp = configparser.ConfigParser()
    if isinstance(source, str) and "\n" in source:
        cp.read_string(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            cp.read_file(fh)

    unknown = set(cp.sections()) - {section for section, _ in _FIELD_BY_KEY}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    updates: dict = {}
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in _FIELD_BY_KEY:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            path, parse = _FIELD_BY_KEY[section, key]
            text = cp.get(section, key)
            try:
                value = parse(text)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"[{section}] {key} = {text}: {exc}") from exc
            node = updates
            for step in path[:-1]:
                node = node.setdefault(step, {})
            node[path[-1]] = value
    return _updated(config, updates)
