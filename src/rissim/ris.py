"""Tile partitioning, phase codebooks, and greedy RIS configuration.

The surface is split into rectangular tiles that are configured one at a
time: for each tile the codebook entry maximizing the minimum singular value
of the stacked effective BS-to-UE channel matrix is chosen by exhaustive
evaluation, so the search cost is linear in the codebook size per tile and
independent of the total element count otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WAVEFRONT_PHASE_COUNT = 8  # three-bit global phase offsets per tile


@dataclass
class TilePartition:
    """Disjoint rectangular tiles covering an ``N_y x N_z``-element surface.

    ``element_ids[t]`` lists the global (y-major) element indices of tile
    ``t``, themselves in y-major order within the tile.
    """

    ris_counts: tuple[int, int]
    tile_shape: tuple[int, int]
    element_ids: list[np.ndarray]

    @property
    def n_tiles(self) -> int:
        return len(self.element_ids)

    @property
    def tile_size(self) -> int:
        return self.tile_shape[0] * self.tile_shape[1]

    @property
    def n_elements(self) -> int:
        return self.ris_counts[0] * self.ris_counts[1]


def build_tile_partition(
    ris_counts: tuple[int, int],
    tile_shape: tuple[int, int],
    order: str = "raster",
) -> TilePartition:
    """Partition the surface into a grid of equally shaped tiles.

    The element counts must be integer multiples of the tile shape along each
    axis.  Tiles are visited in raster (y-major) order by default; ``order``
    may be ``"reversed"`` to flip the visit sequence.
    """
    n_y, n_z = ris_counts
    q_y, q_z = tile_shape
    if q_y < 1 or q_z < 1:
        raise ValueError("tile shape must be positive")
    if n_y % q_y or n_z % q_z:
        raise ValueError(
            f"surface {ris_counts} is not divisible into {tile_shape} tiles"
        )
    tiles_y, tiles_z = n_y // q_y, n_z // q_z
    element_ids = []
    for t_y in range(tiles_y):
        for t_z in range(tiles_z):
            ids = [
                (t_y * q_y + e_y) * n_z + (t_z * q_z + e_z)
                for e_y in range(q_y)
                for e_z in range(q_z)
            ]
            element_ids.append(np.array(ids, dtype=np.intp))
    if order == "reversed":
        element_ids = element_ids[::-1]
    elif order != "raster":
        raise ValueError(f"unknown tile order {order!r}")
    return TilePartition(ris_counts=ris_counts, tile_shape=tile_shape, element_ids=element_ids)


@dataclass
class Codebook:
    """Per-tile phase configurations: DFT gradients times global offsets.

    ``phases[m]`` holds the per-element phase vector of entry ``m`` over a
    tile, flattened y-major.  Entry ordering is gradient-major: entry
    ``(k_y, k_z, b)`` sits at index ``(k_y * Q_z + k_z) * 8 + b``.
    """

    tile_shape: tuple[int, int]
    phases: np.ndarray  # (M, tile_size), values in [0, 2*pi)
    _coefficients: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.phases.shape[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Cached unit-modulus reflection coefficients ``exp(j*phases)``."""
        if self._coefficients is None:
            self._coefficients = np.exp(1j * self.phases)
        return self._coefficients


def build_codebook(tile_shape) -> Codebook:
    """Reflection/wavefront product codebook for one tile.

    The reflection set contains every 2-D DFT linear phase gradient over the
    ``Q_y x Q_z`` tile, ``2*pi*(k_y*q_y/Q_y + k_z*q_z/Q_z)``; the wavefront
    set adds one of eight global offsets ``2*pi*b/8`` to all elements, giving
    ``8 * Q_y * Q_z`` entries in total.  The gradients are index-based, so
    neither the wavelength nor the element spacing enters the construction.
    """
    q_y, q_z = tile_shape
    if q_y < 1 or q_z < 1:
        raise ValueError("tile shape must be positive")
    e_y = np.repeat(np.arange(q_y), q_z)  # y-major element coordinates
    e_z = np.tile(np.arange(q_z), q_y)
    entries = []
    for k_y in range(q_y):
        for k_z in range(q_z):
            gradient = 2.0 * math.pi * (k_y * e_y / q_y + k_z * e_z / q_z)
            for b in range(WAVEFRONT_PHASE_COUNT):
                offset = 2.0 * math.pi * b / WAVEFRONT_PHASE_COUNT
                entries.append(np.mod(gradient + offset, 2.0 * math.pi))
    return Codebook(tile_shape=(q_y, q_z), phases=np.array(entries))


@dataclass
class RisConfiguration:
    """Chosen codebook index per tile and the assembled per-element phases."""

    partition: TilePartition
    codebook: Codebook
    chosen_indices: np.ndarray  # (n_tiles,)
    element_phases: np.ndarray  # (Q,)


@dataclass
class EffectiveChannel:
    """Stacked per-UE effective channels ``H = [h_1, ..., h_K]`` of shape (N_t, K)."""

    h: np.ndarray

    @property
    def n_ue(self) -> int:
        return self.h.shape[1]


def tile_effective_channel(
    h_k: np.ndarray, h_t_tile: np.ndarray, h_rk_tile: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Add one tile's reflected contribution to a UE's effective channel.

    Implements ``h_k^H <- h_k^H + h_rk^H diag(exp(j*omega)) H_t`` and returns
    the updated column vector ``h_k``.
    """
    row = (np.conj(h_rk_tile) * np.exp(1j * omega)) @ h_t_tile  # (N_t,)
    return h_k + np.conj(row)


def min_singular_values(stack: np.ndarray) -> np.ndarray:
    """Minimum singular value of each matrix in a (M, N, K) batch, K <= N.

    Computed from the K x K Gramian; K = 1 and K = 2 use closed forms, larger
    K falls back to a batched Hermitian eigensolve.
    """
    m, n, k = stack.shape
    if k == 1:
        return np.linalg.norm(stack[:, :, 0], axis=1)
    gram = np.einsum("mnk,mnl->mkl", np.conj(stack), stack)
    if k == 2:
        tr = np.real(gram[:, 0, 0] + gram[:, 1, 1])
        det = np.real(gram[:, 0, 0] * gram[:, 1, 1]) - np.abs(gram[:, 0, 1]) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam_min = 0.5 * (tr - disc)
    else:
        lam_min = np.linalg.eigvalsh(gram)[:, 0]
    return np.sqrt(np.maximum(lam_min, 0.0))


def configure_tiles(
    direct: np.ndarray,
    h_t: np.ndarray,
    h_r: np.ndarray,
    partition: TilePartition,
    codebook: Codebook,
) -> tuple[RisConfiguration, EffectiveChannel]:
    """Greedy per-tile codebook selection maximizing the minimum singular value.

    Parameters
    ----------
    direct : (N_t, K) stacked direct-link channels ``h_{d,k}``.
    h_t : (Q, N_t) BS-to-RIS channel.
    h_r : (Q, K) per-UE RIS-to-UE channels as columns ``h_{r,k}``.
    partition, codebook : tile layout and per-tile phase configurations.

    For every tile, all codebook entries are evaluated against the current
    effective channel and the entry with the largest minimum singular value
    of ``[h_1, ..., h_K]`` wins (ties broken by lowest index).  Requires
    ``K <= N_t`` so the stacked matrix can stay full column rank.
    """
    if len(codebook) == 0:
        raise ValueError("empty codebook")
    n_t, n_ue = direct.shape
    if n_ue < 1:
        raise ValueError("need at least one UE")
    if n_ue > n_t:
        raise ValueError(f"n_ue={n_ue} exceeds transmit antennas n_t={n_t}")
    if h_t.shape != (partition.n_elements, n_t) or h_r.shape != (partition.n_elements, n_ue):
        raise ValueError("channel dimensions do not match the tile partition")

    coeffs = codebook.coefficients  # (M, q)
    h_eff = direct.astype(complex).copy()  # (N_t, K)
    chosen = np.empty(partition.n_tiles, dtype=np.intp)
    element_phases = np.empty(partition.n_elements, dtype=float)
    for t, ids in enumerate(partition.element_ids):
        h_t_tile = h_t[ids]  # (q, N_t)
        # Candidate effective channels for every codebook entry at once:
        # rows of (coeffs * conj(h_rk)) @ h_t_tile are the per-entry
        # reflected contributions h_rk^H diag(e^{j w}) H_t.
        stack = np.empty((len(codebook), n_t, n_ue), dtype=complex)
        for k in range(n_ue):
            contrib = (coeffs * np.conj(h_r[ids, k])) @ h_t_tile  # (M, N_t)
            stack[:, :, k] = h_eff[:, k] + np.conj(contrib)
        best = int(np.argmax(min_singular_values(stack)))
        chosen[t] = best
        h_eff = stack[best]
        element_phases[ids] = codebook.phases[best]
    config = RisConfiguration(
        partition=partition,
        codebook=codebook,
        chosen_indices=chosen,
        element_phases=element_phases,
    )
    return config, EffectiveChannel(h=h_eff)


def assemble_gamma(config: RisConfiguration) -> np.ndarray:
    """Dense diagonal reflection matrix ``diag(exp(j*omega_q))`` over all elements.

    Every diagonal entry has unit modulus (passive lossless reflection); all
    off-diagonal entries are exactly zero.
    """
    if config.element_phases.shape[0] != config.partition.n_elements:
        raise ValueError("configuration does not cover all elements")
    if np.isnan(config.element_phases).any():
        raise ValueError("unconfigured tile: missing element phases")
    return np.diag(np.exp(1j * config.element_phases))
