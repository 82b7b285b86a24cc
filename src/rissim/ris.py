"""Tile partitioning, phase codebooks, and greedy RIS configuration.

The surface is split into rectangular tiles that are configured one at a
time: for each tile the codebook entry maximizing the minimum singular value
of the stacked effective BS-to-UE channel matrix ``H = [h_1, ..., h_K]`` is
chosen by exhaustive evaluation, so the search cost is linear in the codebook
size per tile and independent of the total element count otherwise.

Each codebook entry is a DFT phase gradient ``g`` plus one of eight global
offsets ``theta_b``, so its reflected contribution to ``H`` is
``e^{-j theta_b} D_g``: the offset only scales the gradient's contribution.
``D_g`` and ``D_g^H D_g`` do not depend on the effective channel, so they
are computed for every tile before the search: each UE column of ``D_g`` is
one matrix product per tile, and each entry ``(k, j)`` of ``D_g^H D_g`` one
dot product over the N_t antennas, made once per UE pair when column ``k``
joins, so it has the same bytes in every call that reads it.  Each
candidate is scored through its ``K x K`` Gramian

    H_gb^H H_gb = H^H H + e^{-j theta_b} H^H D_g + e^{j theta_b} D_g^H H + D_g^H D_g,

so the eight offsets cost only ``K x K`` work.  ``K = 2`` is scored in
closed form, from the root of ``(a - d)^2 + 4 |b|^2``, which does not
cancel when the two eigenvalues are close.  For ``K >= 3`` the exact
score needs an eigensolve, and two exact tests decide which candidates get
one.  The few with the highest interlacing bounds are solved first: Cauchy
interlacing bounds each candidate's smallest Gram eigenvalue by that of any
of its 2 x 2 principal minors, in the same closed form, and their best
exact score is the floor.  A candidate whose bound falls short of the floor
(less a rounding margin) cannot win.  The others take a pivot test, one
batched LDL^H elimination of ``G - tau I`` with ``tau`` two margins below
the squared floor: by Sylvester's criterion its pivots are all positive
exactly when the smallest eigenvalue exceeds ``tau``, and only those
candidates are solved.  Neither test drops a candidate that can win, so
the choice, including lowest-index tie-breaking, is the one an exhaustive
evaluation makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

WAVEFRONT_PHASE_COUNT = 8  # three-bit global phase offsets per tile

# Candidates solved exactly, by bound, to set the pruning floor (K >= 3).
_FLOOR_CANDIDATES = 8
# Pruning margin as a multiple of the tile's largest Gram trace.  It covers
# the rounding of the bound, the eigensolve and the pivot test, each a few
# eps of the trace, many times over.
_PRUNE_MARGIN = 1e-6


def build_tile_partition(ris_counts: tuple[int, int], tile_shape: tuple[int, int]) -> np.ndarray:
    """Partition the surface into a grid of equally shaped tiles.

    Returns the (n_tiles, tile_size) ``intp`` table of element ids: row
    ``t`` lists the global (y-major) element indices of the ``t``-th tile
    visited, themselves in y-major order within the tile.  Tiles are visited
    in raster (y-major) order.  The element counts must be integer multiples
    of the tile shape along each axis.
    """
    n_y, n_z = ris_counts
    q_y, q_z = tile_shape
    if q_y < 1 or q_z < 1:
        raise ValueError("tile shape must be positive")
    if n_y % q_y or n_z % q_z:
        raise ValueError(
            f"surface {ris_counts} is not divisible into {tile_shape} tiles"
        )
    grid = np.arange(n_y * n_z, dtype=np.intp).reshape(n_y // q_y, q_y, n_z // q_z, q_z)
    return grid.transpose(0, 2, 1, 3).reshape(-1, q_y * q_z)


@dataclass
class Codebook:
    """Per-tile phase configurations: phase gradients plus global offsets.

    Entry ``m = g * B + b`` applies ``gradients[g] + offsets[b]`` (mod
    ``2*pi``) to the tile's elements, flattened y-major; ``phases`` lists
    every entry in that order.
    """

    gradients: np.ndarray  # (G, tile_size)
    offsets: np.ndarray  # (B,)

    def __len__(self) -> int:
        return self.gradients.shape[0] * self.offsets.shape[0]

    @property
    def phases(self) -> np.ndarray:
        """(M, tile_size) phases of every entry, values in ``[0, 2*pi)``."""
        grid = self.gradients[:, None, :] + self.offsets[None, :, None]
        return np.mod(grid, 2.0 * math.pi).reshape(len(self), -1)

    @cached_property
    def phasors(self) -> np.ndarray:
        """(G, tile_size) gradient phasors ``exp(-j * gradients)``, computed once."""
        return np.exp(-1j * self.gradients)

    @cached_property
    def offset_weights(self) -> np.ndarray:
        """(B, 3) rows ``(1, cos(theta_b), sin(theta_b))`` of the offsets, computed once."""
        return np.stack(
            [np.ones(len(self.offsets)), np.cos(self.offsets), np.sin(self.offsets)], axis=1
        )


def build_codebook(tile_shape) -> Codebook:
    """Reflection/wavefront product codebook for one tile.

    The reflection set contains every 2-D DFT linear phase gradient over the
    ``Q_y x Q_z`` tile, ``2*pi*(k_y*q_y/Q_y + k_z*q_z/Q_z)``, ordered
    ``k_y * Q_z + k_z``; the wavefront set adds one of eight global offsets
    ``2*pi*b/8`` to all elements, giving ``8 * Q_y * Q_z`` entries in total.
    The gradients are index-based, so neither the wavelength nor the element
    spacing enters the construction.
    """
    q_y, q_z = tile_shape
    if q_y < 1 or q_z < 1:
        raise ValueError("tile shape must be positive")
    # y-major element coordinates; in the same order, the gradient indices
    e_y = np.repeat(np.arange(q_y), q_z)
    e_z = np.tile(np.arange(q_z), q_y)
    gradients = 2.0 * math.pi * (e_y[:, None] * e_y / q_y + e_z[:, None] * e_z / q_z)
    offsets = 2.0 * math.pi * np.arange(WAVEFRONT_PHASE_COUNT) / WAVEFRONT_PHASE_COUNT
    return Codebook(gradients=gradients, offsets=offsets)


def _lambda_min_2x2(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of Hermitian ``[[a, b], [conj(b), d]]``, elementwise, to a few eps."""
    return 0.5 * (a + d - np.sqrt((a - d) ** 2 + 4.0 * (b.real**2 + b.imag**2)))


def min_singular_values(grams: np.ndarray) -> np.ndarray:
    """Minimum singular value of each matrix given by its (M, K, K) Gramian.

    K = 1 and K = 2 use closed forms, larger K a batched Hermitian
    eigensolve.
    """
    k = grams.shape[-1]
    if k == 1:
        lam_min = np.real(grams[:, 0, 0])
    elif k == 2:
        lam_min = _lambda_min_2x2(
            np.real(grams[:, 0, 0]), np.real(grams[:, 1, 1]), grams[:, 0, 1]
        )
    else:
        lam_min = np.linalg.eigvalsh(grams)[:, 0]
    return np.sqrt(np.maximum(lam_min, 0.0))


def _lambda_min_above(grams: np.ndarray, tau: float) -> np.ndarray:
    """Whether each Hermitian ``grams[m]`` has its smallest eigenvalue above ``tau``.

    Sylvester's criterion: ``G - tau I`` is positive definite exactly when
    every pivot of its LDL^H elimination is positive.  The elimination runs
    once, batched over the stack (held candidate-last, so each step works on
    contiguous rows), with a Python loop over the K columns; ``tau`` only
    shifts the diagonal, so it is taken off each pivot as it is read.  Like
    ``eigvalsh`` it reads the lower triangle and the real part of the
    diagonal.  A candidate whose pivot fails is eliminated on with zero
    multipliers, so its entries keep their scale and stay finite.
    """
    k = grams.shape[-1]
    work = grams.transpose(1, 2, 0).copy()  # (K, K, M)
    above = np.ones(len(grams), dtype=bool)
    for c in range(k):
        pivot = work[c, c].real - tau
        above &= pivot > 0.0
        if c + 1 < k:
            col = work[c + 1 :, c]
            conj_multipliers = np.conj(col) / np.where(above, pivot, np.inf)
            work[c + 1 :, c + 1 :] -= col[:, None] * conj_multipliers
    return above


@lru_cache
def _packed_lower(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and upper-triangle mask that unpack K x K Hermitian stacks.

    The packed stacks hold the lower triangle row by row, entry ``(r, c)``,
    ``c <= r``, at ``r (r + 1) / 2 + c``, so the first ``K (K + 1) / 2``
    entries are those of the leading ``K x K`` block.  Entry ``(r, c)`` of a
    stack is the packed ``(max, min)`` entry, conjugated where ``r < c``.
    """
    rows, cols = np.indices((k, k))
    hi, lo = np.maximum(rows, cols), np.minimum(rows, cols)
    gather, upper = hi * (hi + 1) // 2 + lo, rows < cols
    gather.flags.writeable = upper.flags.writeable = False  # cached: shared by every call
    return gather, upper


@lru_cache
def _pair_gather(k: int) -> np.ndarray:
    """Flat ``K x K`` indices of the diagonal and of each 2 x 2 principal minor.

    In order: the K diagonal entries, then over the pairs ``i < j`` of
    ``np.triu_indices(k, 1)``, the ``(i, i)``, the ``(j, j)`` and the
    ``(i, j)`` entries.
    """
    i, j = np.triu_indices(k, 1)
    diag = np.arange(k) * (k + 1)
    gather = np.concatenate([diag, diag[i], diag[j], i * k + j])
    gather.flags.writeable = False  # cached: shared by every call
    return gather


def _candidate_scores(grams: np.ndarray) -> np.ndarray:
    """:func:`min_singular_values` of ``grams`` wherever it can be the maximum.

    For K >= 3 the eigensolve runs first on the few candidates with the
    highest interlacing bounds, the smallest :func:`_lambda_min_2x2` over
    the 2 x 2 principal minors that one gather of the flattened stack reads
    (:func:`_pair_gather`), whose best score is the floor.  Of the others,
    those whose bound reaches ``floor^2 - margin`` take the pivot test
    (:func:`_lambda_min_above`) at ``tau = floor^2 - 2 margin``, and only
    those that pass it are solved; the rest are left at ``-inf``.

    No winner is lost.  Let ``T`` be the largest Gram trace of the tile;
    ``margin`` is ``_PRUNE_MARGIN * T``.  A candidate can win only if its
    score reaches the floor, that is if its ``eigvalsh`` value is at least
    ``floor^2`` (up to the rounding of a square root and a square).  That
    value is within about ``K eps T`` of the exact smallest eigenvalue, so
    a possible winner's exact eigenvalue is at least ``floor^2`` less that
    rounding, well above ``tau + margin``.  Its interlacing bound is the
    smaller eigenvalue of a minor ``[[a, b], [conj(b), d]]``, which
    :func:`_lambda_min_2x2` rounds by a few ``eps T``, so the bound is
    never below that eigenvalue by more and clears ``floor^2 - margin``.
    It then reaches the pivot test ``margin`` or more above ``tau``, far
    beyond the ``K eps T`` that the LDL^H elimination of a positive
    definite matrix can lose, so its pivots are all positive.  Every
    candidate that can win is scored by the same ``eigvalsh`` value as
    without the pruning, so the caller can take the lowest index of the
    maximum in any order it likes.
    """
    k = grams.shape[-1]
    if k <= 2:
        return min_singular_values(grams)
    n_pairs = k * (k - 1) // 2
    block = grams.reshape(len(grams), k * k)[:, _pair_gather(k)]
    a = block[:, k : k + n_pairs].real
    d = block[:, k + n_pairs : k + 2 * n_pairs].real
    b = block[:, k + 2 * n_pairs :]
    bound = _lambda_min_2x2(a, d, b).min(axis=1)
    margin = _PRUNE_MARGIN * block[:, :k].real.sum(axis=1).max()
    scores = np.full(len(grams), -np.inf)
    n_top = min(_FLOOR_CANDIDATES, len(grams))
    top = np.argpartition(bound, -n_top)[-n_top:]
    top_scores = min_singular_values(grams[top])
    scores[top] = top_scores
    floor_sq = top_scores.max() ** 2
    rest = bound >= floor_sq - margin
    rest[top] = False
    if rest.any():
        rest = np.flatnonzero(rest)
        rest = rest[_lambda_min_above(grams[rest], floor_sq - 2.0 * margin)]
        if rest.size:
            scores[rest] = min_singular_values(grams[rest])
    return scores


def configure_tiles(
    direct: np.ndarray,
    h_t: np.ndarray,
    h_r: np.ndarray,
    tiles: np.ndarray,
    codebook: Codebook,
    table: list | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Greedy per-tile codebook selection maximizing the minimum singular value.

    Parameters
    ----------
    direct : (N_t, K) stacked direct-link channels ``h_{d,k}``.
    h_t : (Q, N_t) BS-to-RIS channel.
    h_r : (Q, K) per-UE RIS-to-UE channels as columns ``h_{r,k}``.
    tiles : (n_tiles, tile_size) element ids, rows in visit order
        (:func:`build_tile_partition`).
    codebook : per-tile phase configurations.
    table : the reflection table of these same channels, tiles and codebook
        built so far, a list that the call extends in place: ``table[0]``
        is ``conj(h_t)[tiles]`` and ``table[1 + k]`` is UE ``k``'s pair
        ``(column, rows)``: its (n_tiles, G, N_t) column of every ``D_g``
        and its (n_tiles, G, k + 1) row of every ``D_g^H D_g``, entries
        ``(k, j)`` for ``j <= k``.  The call appends the pairs it lacks
        and reads its first ``K``, so calls of growing ``K`` on the leading
        columns of one ``h_r`` each build only the columns and Gram entries
        they add, and one as wide as the table re-points every column to
        its own copy.  Each column is one product of its own and each entry
        one fixed-length dot product of two columns, so a pair is the same
        bytes whichever call, ``K`` or build order made it.  ``None``, like
        ``[]``, starts from zero columns.

    Returns the (n_tiles,) chosen codebook indices (tile ``t``'s elements get
    ``codebook.phases[chosen[t]]``), the final (N_t, K) effective channel
    ``H = [h_1, ..., h_K]`` and the last tile's winning score, ``H``'s minimum
    singular value through its Gramian (relative error about ``eps cond(H)^2``).

    For every tile, each codebook entry ``(g, b)`` turns ``H`` into
    ``H + e^{-j theta_b} D_g``, where column ``k`` of
    ``D_g = conj(H_t)^T diag(e^{-j g}) h_{r,k}`` is gradient ``g``'s reflected
    contribution, and the entry whose result has the largest minimum singular
    value wins.  The candidates are scored from their ``K x K`` Gramians, with
    interlacing pruning for ``K >= 3`` (see the module docstring), in the Gram
    product's offset-major order, and reordered to the gradient-major
    codebook index before the ``argmax`` so ties go to the lowest index.
    Requires a tile, and ``K <= N_t`` so the stacked matrix can stay full column rank.
    """
    if len(codebook) == 0 or len(tiles) == 0:
        raise ValueError("empty codebook or tile partition")
    n_t, n_ue = direct.shape
    if n_ue < 1:
        raise ValueError("need at least one UE")
    if n_ue > n_t:
        raise ValueError(f"n_ue={n_ue} exceeds transmit antennas n_t={n_t}")
    if h_t.shape != (tiles.size, n_t) or h_r.shape != (tiles.size, n_ue):
        raise ValueError("channel dimensions do not match the tile partition")

    n_grad, n_off = codebook.gradients.shape[0], codebook.offsets.shape[0]
    # The Gramian of entry (g, b) is S_g + cos(theta_b) U_g + sin(theta_b) V_g
    # with S_g = H^H H + D_g^H D_g, U_g = P_g + P_g^H, V_g = -j (P_g - P_g^H)
    # and P_g = H^H D_g: one real product over the three terms.
    # Every tile's D_g and D_g^H D_g depend only on the channels, not on H.
    # The table holds D_g one UE column at a time, each one (G, q) @ (q, N_t)
    # product for every tile; row k of d_all[t, g] is column k of D_g.  A
    # column the call adds is written into d_all and the table keeps a view
    # (of the widest call's d_all only, so one d_all stays alive), beside
    # row k of the lower triangle of every D_g^H D_g: entries
    # (k, j <= k), each sum(conj(d_k) d_j) from its own dot over N_t
    # (np.vecdot), so no entry depends on how many the call adds.  The call
    # gathers its K x K stacks from its K rows, the upper triangle as
    # conjugates.
    if table is None:
        table = []
    if not table:
        table.append(np.conj(h_t)[tiles])  # (T, q, N_t), read by every column
    d_all = np.empty((len(tiles), n_grad, n_ue, n_t), dtype=complex)
    for k in range(n_ue):
        if k + 1 < len(table):
            d_all[:, :, k] = table[1 + k][0]
        else:
            weighted = h_r[tiles, k][:, :, None] * table[0]
            column = np.matmul(codebook.phasors, weighted, out=d_all[:, :, k])
            table.append((column, np.vecdot(column[:, :, None], d_all[:, :, : k + 1])))
    if len(table) == 1 + n_ue:
        table[1:] = [(d_all[:, :, k], rows) for k, (_, rows) in enumerate(table[1:])]
    packed = np.concatenate([rows for _, rows in table[1 : 1 + n_ue]], axis=2)
    gather, upper = _packed_lower(n_ue)
    dhd_all = packed[:, :, gather]  # (T, G, K, K)
    np.conjugate(dhd_all, out=dhd_all, where=upper)
    terms = np.empty((3, n_grad, n_ue, n_ue), dtype=complex)
    offset_phasors = np.exp(-1j * codebook.offsets)
    h_eff = direct.astype(complex)  # (N_t, K)
    chosen = np.empty(len(tiles), dtype=np.intp)
    for t, (d_rows, dhd) in enumerate(zip(d_all, dhd_all)):
        h_conj = np.conj(h_eff)
        p_t = (d_rows.reshape(n_grad * n_ue, n_t) @ h_conj).reshape(n_grad, n_ue, n_ue)
        p, p_h = p_t.swapaxes(1, 2), np.conj(p_t)  # P_g = H^H D_g and P_g^H
        terms[0] = h_conj.T @ h_eff + dhd
        terms[1] = p + p_h
        terms[2] = -1j * (p - p_h)
        # Rows are offset-major, entry (b, g); the scores are reordered to
        # the codebook's gradient-major index g * B + b, not the Gramians.
        grams = (codebook.offset_weights @ terms.view(float).reshape(3, -1)).view(complex)
        scores = _candidate_scores(grams.reshape(n_off * n_grad, n_ue, n_ue))
        best = int(scores.reshape(n_off, n_grad).T.argmax())
        g, b = divmod(best, n_off)
        chosen[t] = best
        h_eff = h_eff + offset_phasors[b] * d_rows[g].T
    return chosen, h_eff, float(scores.max())
