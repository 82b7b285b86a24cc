"""Monte Carlo trial loop, model/parameter sweeps, aggregation, CSV export.

One trial places the UEs, draws the three links (direct, BS-to-surface,
surface-to-UE) under the selected channel model, configures the surface
tile by tile, and solves the minimum-power precoder.  Sweeps pair the
per-trial randomness across models and surface sizes: UE positions, fading
cores and cluster draws depend only on (master seed, trial index, link,
UE), which isolates the channel-model delta from Monte Carlo noise.  A
sweep runs each surface size on one :class:`SimContext`, trial by trial,
within a trial model by model, and within a model UE count by UE count.
The context's per-trial slot holds two entries.  ``"draw"`` holds the
trial's model-independent inputs, computed once and read by every model:
the UE positions, each link's power budget and near-field test, its fading
core or clusters, and its scaled LOS term; it goes once the context's last
model has drawn.  ``"channels"`` holds the channels of the model drawn
last, drawn for ``max(n_ue)`` UEs, and their tile-search reflection table:
every UE-count cell of that model takes the first ``n_ue`` columns of both.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import correlation, seeding, units
from .channels import (
    ChannelModel,
    LinkRole,
    draw_clusters,
    los_matrix,
    lowrank_from_clusters,
    nearfield_from_clusters,
    nearfield_los,
    pathloss,
    sample_iid_rayleigh,
)
# sinc_correlation is not called here; perfbench's tracer wraps this binding by name.
from .correlation import sample_matrix_normal_factor, sinc_correlation  # noqa: F401
from .geometry import ArrayGeometry, fraunhofer_distance
from .precoding import InfeasibleError, min_power_precoder
from .ris import build_codebook, build_tile_partition, configure_tiles, reflection_table
from .scenario import ScenarioConfig, tile_grid_for, with_q

logger = logging.getLogger(__name__)

_PLANAR_MODELS = (
    ChannelModel.IID_RICIAN,
    ChannelModel.CORRELATED_RAYLEIGH,
    ChannelModel.LOWRANK_GEOMETRIC,
)
_GEOMETRIC_MODELS = (ChannelModel.LOWRANK_GEOMETRIC, ChannelModel.NEARFIELD_GEOMETRIC)


@dataclass(slots=True)
class TrialResult:
    model: str
    q: int
    n_ue: int
    trial: int
    feasible: bool
    total_power_watts: float  # nan when infeasible
    seed: int
    wall_time: float  # shared draws and the reflection table: the cell that builds them
    iterations: int = 0  # precoder iterations; 0 when infeasible
    infeasible_kind: str | None = None  # InfeasibleError.kind, None when feasible
    duality_gap: float = math.nan  # |P - P_dual| / P of the precoder; nan when infeasible
    min_sv: float = math.nan  # the tile search's score of the configured channel; recorded for every trial


@dataclass(slots=True)
class AggregateRow:
    model: str
    q: int
    n_ue: int
    trials: int
    feasible_frac: float
    mean_ptx_dbm: float  # mean over linear watts of feasible trials, in dBm
    std_ptx_db: float  # std of per-trial dBm values over feasible trials
    seed: int


@dataclass
class SweepResult:
    aggregates: list[AggregateRow]
    raw: list[TrialResult]


def noise_power(config: ScenarioConfig) -> float:
    """Receiver noise power ``W * N_0 * N_f`` in watts."""
    dbm = (
        config.n0_dbm_per_hz
        + 10.0 * math.log10(config.bandwidth_hz)
        + config.noise_figure_db
    )
    return units.dbm_to_watts(dbm)


class SimContext:
    """Caches shared by every trial of one Q in a sweep, across models and UE counts.

    :func:`run_sweep` builds one context per Q and runs each (model,
    ``n_ue``) cell of that Q on it.  The array geometries, tile table,
    codebook and noise power are fixed for the context, and it keeps two
    caches, one per lifetime:

    * per Q, one dict that lives as long as the context: each array
      shape's correlation factor under its ``(counts, spacing)``
      (:meth:`correlation_factor`), and the BS-to-surface LOS term
      ``sqrt(K/(1+K)) * los`` under its LOS function (:func:`draw_links`).
      They depend only on the context's fixed arrays, so at most one
      surface size's factors are held at a time;
    * per trial, one slot (:meth:`trial_inputs`) that holds one trial, and
      one model of it, at a time (:func:`trial_channels`).  It has two
      entries.  ``"draw"`` is the dict that :func:`draw_links` fills for
      every model that draws: ``"ues"``, the trial's UE geometries, and
      per link its set-up, fading core or clusters and LOS term; it is
      deleted as one when the context's last model,
      ``ctx.config.models[-1]``, draws.  ``"channels"`` is ``(model, h_t,
      direct, h_r, table)`` of the model drawn last, for the largest UE
      count, with ``table`` their :func:`rissim.ris.reflection_table`;
      the UE-count cells of that model slice them, and another model's
      draw replaces them.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        spacing = config.element_spacing
        self.bs_geom = ArrayGeometry.upa_centered(
            config.bs_counts[0], config.bs_counts[1], spacing, config.bs_center
        )
        n_y, n_z = config.ris_counts
        self.ris_geom = ArrayGeometry.upa_centered(n_y, n_z, spacing, config.ris_center)
        self.tiles = build_tile_partition(config.ris_counts, config.tile_shape)
        self.codebook = build_codebook(config.tile_shape)
        self.noise_power = noise_power(config)
        self._per_q: dict = {}
        self._trial: tuple[tuple | None, dict] = (None, {})
        self._flagged: set = set()

    def trial_inputs(self, config: ScenarioConfig, trial: int) -> dict:
        """The per-trial slot of ``trial``, the dict that :func:`trial_channels` fills.

        The slot is keyed by (master seed, trial, draw size) and replaced by
        an empty one when that key changes, so only one trial is held and a
        stale trial's entries are never read.
        """
        key = (config.master_seed, trial, _draw_size(config))
        if key != self._trial[0]:
            self._trial = (key, {})
        return self._trial[1]

    def correlation_factor(self, geom: ArrayGeometry) -> tuple | None:
        """Cached ``(counts, blocks)`` square-root factor of a geometry's sinc correlation.

        ``blocks`` are the four block roots that
        :func:`rissim.correlation.matrix_sqrt_factor` folds from the
        geometry's sinc table at the config's wavelength, without building
        the dense correlation.  Correlations depend only on element
        separations, so the factor is kept in the per-Q dict under element
        counts and spacing.  A single antenna's factor is ``[[1.0]]``; it is
        never built, and ``None`` stands for it (see
        :func:`rissim.correlation.sample_matrix_normal_factor`).
        """
        if geom.size == 1:
            return None
        key = (geom.counts, geom.spacing)
        if key not in self._per_q:
            factor = correlation.matrix_sqrt_factor(geom, self.config.wavelength)
            self._per_q[key] = (geom.counts, factor)
        return self._per_q[key]

    def flag_near_field(
        self, model: ChannelModel, role: LinkRole, distance: float, inside: list[tuple[str, float]]
    ):
        """Warn when a far-field model is evaluated inside the near field.

        ``inside`` lists the ``(side, boundary)`` of each link end whose
        Fraunhofer boundary exceeds ``distance``.  The warnings come once
        per (model, link) and context, so once per Q in a sweep.
        """
        key = (model, role)
        if not inside or key in self._flagged:
            return
        self._flagged.add(key)
        for name, boundary in inside:
            logger.warning(
                "far-field model %s on link %s: %s-side distance %.1f m is inside "
                "the Fraunhofer boundary %.1f m",
                model.value, role.value, name, distance, boundary,
            )


def draw_links(
    model: ChannelModel,
    links: list[tuple[LinkRole, ArrayGeometry, ArrayGeometry, int]],
    config: ScenarioConfig,
    ctx: SimContext,
    trial: int,
    inputs: dict,
) -> list[np.ndarray]:
    """Channel matrices, each ``(N_rx, N_tx)``, of ``links`` under ``model``.

    Each link is ``(role, tx_geom, rx_geom, ue_index)``.  This is where each
    model is composed from the primitives in :mod:`rissim.channels`: iid
    Rayleigh is the fading draw alone; the other models mix their nLOS draw
    (iid, correlated, or a cluster sum) with the planar or spherical LOS
    matrix by the link's K-factor,
    ``sqrt(K/(1+K)) * los + sqrt(1/(1+K)) * nlos``.  A link with ``K = 0``
    has no LOS term, so its channel is its nLOS draw and no LOS matrix is
    built for it.  The geometric models
    read the link's clusters, the others its fading core: a unit complex
    Gaussian that iid and Rician scale by ``sqrt(h_p/2)`` and the correlated
    model passes to :func:`sample_matrix_normal_factor`, all links in one
    call, so links that share a factor share one product with it.  Each
    link is seeded from (master seed, trial, link, UE) alone, never from the
    model, Q or the other links, and only the stream the model uses is
    derived.

    ``inputs`` is the trial's draw dict.  Each link's set-up, the power budget
    ``h_p`` at its center distance and the near-field test of the planar
    models, is read from it under ``(role, ue_index)``; cores and clusters
    under their seed path; and UE-link LOS terms ``sqrt(K/(1+K)) * los``
    under ``(los_fn, role, ue_index)``.  What is missing is computed and
    stored there, so the models of a trial share one set-up per link.
    Those keys do not name the arrays, so a dict holds the links of one set
    of arrays: :func:`trial_channels` passes the ``"draw"`` entry of
    ``ctx.trial_inputs(config, trial)``, and a caller that draws links of
    its own passes a new ``{}``.  Only the LOS term of ``ctx``'s own
    BS-to-surface link, the very ``ctx.bs_geom`` and ``ctx.ris_geom``
    objects, is kept on ``ctx``, per Q.
    """
    wl = config.wavelength
    geometric = model in _GEOMETRIC_MODELS
    stream = seeding.STREAM_CLUSTERS if geometric else seeding.STREAM_FADING
    budgets, nlos = [], []
    for role, tx_geom, rx_geom, ue_index in links:
        link = config.links[role]
        setup = inputs.get((role, ue_index))
        if setup is None:
            distance = float(np.linalg.norm(rx_geom.center - tx_geom.center))
            h_p = pathloss(link, distance)
            ends = [
                (name, fraunhofer_distance(geom.aperture, wl) if geom.aperture > 0 else 0.0)
                for name, geom in (("tx", tx_geom), ("rx", rx_geom))
            ]
            inside = [(name, boundary) for name, boundary in ends if distance < boundary]
            setup = inputs[role, ue_index] = (h_p, distance, inside)
        h_p, distance, inside = setup
        budgets.append(h_p)
        if model in _PLANAR_MODELS:
            ctx.flag_near_field(model, role, distance, inside)

        path = (stream, seeding.LINK_IDS[role.value], ue_index)
        drawn = inputs.get(path)
        if drawn is None:
            rng = seeding.derive_rng(config.master_seed, trial, *path)
            if geometric:
                drawn = draw_clusters(
                    rng, link.cluster_volume, config.n_clusters, config.n_subpaths, h_p
                )
            else:
                # h_p = 2 scales by 1: standard normal real and imaginary parts
                drawn = sample_iid_rayleigh(rng, rx_geom.size, tx_geom.size, 2.0)
            inputs[path] = drawn

        if model in (ChannelModel.IID_RAYLEIGH, ChannelModel.IID_RICIAN):
            nlos.append(math.sqrt(h_p / 2.0) * drawn)
        elif model == ChannelModel.CORRELATED_RAYLEIGH:
            f_rx, f_tx = ctx.correlation_factor(rx_geom), ctx.correlation_factor(tx_geom)
            nlos.append((drawn, f_rx, f_tx, math.sqrt(h_p)))  # drawn below, all at once
        elif model == ChannelModel.LOWRANK_GEOMETRIC:
            nlos.append(lowrank_from_clusters(drawn, tx_geom, rx_geom, wl))
        elif model == ChannelModel.NEARFIELD_GEOMETRIC:
            nlos.append(nearfield_from_clusters(drawn, tx_geom, rx_geom, wl))
        else:
            raise ValueError(f"unknown channel model {model!r}")

    if model == ChannelModel.IID_RAYLEIGH:
        # Pure scatter everywhere; the K-factor is deliberately ignored.
        return nlos
    if model == ChannelModel.CORRELATED_RAYLEIGH:
        nlos = sample_matrix_normal_factor(nlos)
    los_fn = nearfield_los if model == ChannelModel.NEARFIELD_GEOMETRIC else los_matrix
    out = []
    for (role, tx_geom, rx_geom, ue_index), h_p, scatter in zip(links, budgets, nlos):
        k = config.links[role].k_factor
        if k == 0.0:
            out.append(scatter)
            continue
        cache, key = inputs, (los_fn, role, ue_index)
        if tx_geom is ctx.bs_geom and rx_geom is ctx.ris_geom:
            cache, key = ctx._per_q, los_fn
        los_term = cache.get(key)
        if los_term is None:
            los_term = cache[key] = math.sqrt(k / (1.0 + k)) * los_fn(tx_geom, rx_geom, h_p, wl)
        out.append(los_term + math.sqrt(1.0 / (1.0 + k)) * scatter)
    return out


def _draw_size(config: ScenarioConfig) -> int:
    """UEs a trial draws links for: the largest of ``ue_count`` and ``sweep_n_ue``."""
    return max([config.ue_count, *config.sweep_n_ue])


def ue_positions(config: ScenarioConfig, trial: int, count: int) -> np.ndarray:
    """Positions of a trial's first ``count`` UEs: uniform in the square area, fixed height.

    UE ``j`` gets its own seed path, so its position is identical across
    models and across sweep cells with different UE counts.
    """
    cx, cy, cz = config.ue_center
    half = config.ue_side / 2.0
    out = np.empty((count, 3))
    for j in range(count):
        rng = seeding.derive_rng(config.master_seed, trial, seeding.STREAM_UE_POSITION, j)
        out[j] = (
            cx + rng.uniform(-half, half),
            cy + rng.uniform(-half, half),
            cz,
        )
    return out


def trial_channels(
    config: ScenarioConfig, trial_index: int, model: ChannelModel, ctx: SimContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``(h_t, direct, h_r, table)`` of one trial under ``model``, for the draw size's UEs.

    That is ``max(ue_count, *sweep_n_ue)`` UEs: ``direct`` is ``(N_t, k_draw)``
    and ``h_r`` ``(Q, k_draw)``, one column per UE, and ``table`` is their
    :func:`rissim.ris.reflection_table` on ``ctx``'s tiles and codebook, so
    each UE-count cell slices the same bits.  They stay in the trial's slot
    on ``ctx`` until another model asks, which drops them before it draws;
    the slot's ``"draw"`` dict (:class:`SimContext`) keeps what the models
    share until ``ctx.config.models[-1]`` has drawn.
    """
    slot = ctx.trial_inputs(config, trial_index)
    if slot.get("channels", (None,))[0] != model:
        slot.pop("channels", None)
        k_draw = _draw_size(config)
        draw = slot.setdefault("draw", {})
        if "ues" not in draw:
            positions = ue_positions(config, trial_index, k_draw)
            draw["ues"] = [ArrayGeometry.single(p) for p in positions]
        ues = draw["ues"]
        links = [(LinkRole.TX_TO_RIS, ctx.bs_geom, ctx.ris_geom, 0)]
        links += [(LinkRole.DIRECT, ctx.bs_geom, ue, j) for j, ue in enumerate(ues)]
        links += [(LinkRole.RIS_TO_RX, ctx.ris_geom, ue, j) for j, ue in enumerate(ues)]
        h_t, *rows = draw_links(model, links, config, ctx, trial_index, draw)
        # h_{d,k} and h_{r,k} are columns, with h^H the received row
        direct = np.vstack(rows[:k_draw]).T.conj()
        h_r = np.vstack(rows[k_draw:]).T.conj()
        table = reflection_table(h_t, h_r, ctx.tiles, ctx.codebook)
        slot["channels"] = (model, h_t, direct, h_r, table)
        if model == ctx.config.models[-1]:
            del slot["draw"]
    return slot["channels"][1:]


def run_trial(
    config: ScenarioConfig,
    trial_index: int,
    model: ChannelModel | None = None,
    ctx: SimContext | None = None,
) -> TrialResult:
    """One Monte Carlo trial; deterministic given (config, trial_index, model).

    The channels come from :func:`trial_channels`, drawn for the draw size,
    and the trial uses their first ``ue_count`` UEs, so every UE-count cell
    of a sweep sees the same channel bits, in the sweep or on its own.  The
    tile search reads the leading columns of the channels' reflection table.
    Its score of the configured channel is the trial's ``min_sv``, feasible
    or not.
    """
    if model is None:
        if len(config.models) != 1:
            raise ValueError("config selects several models; pass one explicitly")
        model = config.models[0]
    if ctx is None:
        ctx = SimContext(config)
    t0 = time.perf_counter()

    h_t, direct, h_r, table = trial_channels(config, trial_index, model, ctx)
    k = config.ue_count
    _, h_eff, min_sv = configure_tiles(direct[:, :k], h_t, h_r[:, :k], ctx.tiles, ctx.codebook, table)
    iterations, kind, gap = 0, None, math.nan
    try:
        solution = min_power_precoder(
            h_eff,
            config.gamma_thr,
            ctx.noise_power,
            max_iters=config.precoder_max_iters,
            tol=config.precoder_tol,
        )
        feasible, power, iterations = True, solution.total_power, solution.iterations
        gap = abs(power - solution.dual_total_power) / power
    except InfeasibleError as exc:
        feasible, power, kind = False, math.nan, exc.kind

    return TrialResult(
        model=model.value,
        q=config.q_total,
        n_ue=k,
        trial=trial_index,
        feasible=feasible,
        total_power_watts=power,
        seed=config.master_seed,
        wall_time=time.perf_counter() - t0,
        iterations=iterations,
        infeasible_kind=kind,
        duality_gap=gap,
        min_sv=min_sv,
    )


def aggregate(results: list[TrialResult]) -> AggregateRow:
    """Collapse the trials of one sweep cell into a summary row.

    The mean is taken over linear watts of the feasible trials and reported
    in dBm; the spread is the population standard deviation of the per-trial
    dBm values.  Cells with no feasible trial report NaN for both.
    """
    if not results:
        raise ValueError("no trials to aggregate")
    first = results[0]
    powers = np.array([r.total_power_watts for r in results if r.feasible])
    if powers.size:
        mean_dbm = units.watts_to_dbm(float(powers.mean()))
        dbm = 10.0 * np.log10(powers) + 30.0
        std_db = float(dbm.std())
    else:
        mean_dbm = math.nan
        std_db = math.nan
    return AggregateRow(
        model=first.model,
        q=first.q,
        n_ue=first.n_ue,
        trials=len(results),
        feasible_frac=powers.size / len(results),
        mean_ptx_dbm=mean_dbm,
        std_ptx_db=std_db,
        seed=first.seed,
    )


def _check_sweep(config: ScenarioConfig) -> None:
    """Raise ``ValueError`` for a sweep that would fail in one of its cells.

    Checks every axis up front: non-empty and without repeats, every Q a
    multiple of the tile size, and every UE count between 1 and N_t.
    """
    axes = {"models": config.models, "sweep_q": config.sweep_q, "sweep_n_ue": config.sweep_n_ue}
    for name, values in axes.items():
        if not values:
            raise ValueError("sweep axes must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError(f"{name} repeats a value: {values}")
    for q in config.sweep_q:
        tile_grid_for(q, config.tile_shape)
    n_t = config.bs_counts[0] * config.bs_counts[1]
    for n_ue in config.sweep_n_ue:
        if not 1 <= n_ue <= n_t:
            raise ValueError(f"n_ue={n_ue} is outside 1..N_t={n_t}")


def run_sweep(config: ScenarioConfig) -> SweepResult:
    """Cartesian sweep over (model, Q, N_UE) with paired per-trial seeds.

    The whole sweep is checked (:func:`_check_sweep`) before its first trial.
    Each Q runs on one :class:`SimContext`, trial-major: trial ``i`` of every
    model, and of every UE-count cell of that model in ``sweep_n_ue`` order,
    before trial ``i + 1``.  So the models share the trial's inputs and the
    UE-count cells of a model share its draw (:func:`trial_channels`).  Rows
    come out cell by cell in (model, Q, N_UE) order, as if each cell had run
    on its own.
    """
    _check_sweep(config)
    results: dict[tuple, list[TrialResult]] = {}
    for q in config.sweep_q:
        sized = with_q(config, q)
        ctx = SimContext(sized)
        cells = {n_ue: replace(sized, ue_count=n_ue) for n_ue in config.sweep_n_ue}
        keys = [(model, q, n_ue) for model in config.models for n_ue in cells]
        results.update((key, []) for key in keys)
        for i in range(sized.trials):
            for model, _, n_ue in keys:
                results[model, q, n_ue].append(run_trial(cells[n_ue], i, model=model, ctx=ctx))
        for model, _, n_ue in keys:
            logger.info(
                "cell model=%s q=%d n_ue=%d: %d trials in %.1f s",
                model.value, q, n_ue, sized.trials,
                sum(r.wall_time for r in results[model, q, n_ue]),
            )
    ordered = [
        results[model, q, n_ue]
        for model in config.models
        for q in config.sweep_q
        for n_ue in config.sweep_n_ue
    ]
    aggregates = [aggregate(rows) for rows in ordered]
    raw = [r for rows in ordered for r in rows]
    return SweepResult(aggregates=aggregates, raw=raw)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

AGGREGATE_HEADER = "model,Q,n_ue,trials,feasible_frac,mean_ptx_dbm,std_ptx_db,seed"
RAW_HEADER = "model,Q,n_ue,trial,feasible,ptx_watts,seed"


def _num(x: float) -> str:
    return format(x, ".10g")


def aggregate_csv(rows: list[AggregateRow]) -> str:
    lines = [AGGREGATE_HEADER]
    for r in rows:
        lines.append(
            f"{r.model},{r.q},{r.n_ue},{r.trials},{_num(r.feasible_frac)},"
            f"{_num(r.mean_ptx_dbm)},{_num(r.std_ptx_db)},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def raw_csv(results: list[TrialResult]) -> str:
    lines = [RAW_HEADER]
    for r in results:
        lines.append(
            f"{r.model},{r.q},{r.n_ue},{r.trial},{int(r.feasible)},"
            f"{_num(r.total_power_watts)},{r.seed}"
        )
    return "\n".join(lines) + "\n"
