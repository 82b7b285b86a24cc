"""Spatial correlation under isotropic half-space scattering.

Factors the sinc correlation of an array geometry and samples correlated
Rayleigh channel matrices as the two-sided factor product
``Rbar_rx @ H_iid @ Rbar_tx.T``.

The sinc correlation ``R`` of an ``N_y x N_z`` UPA depends only on index
offsets, so it is one ``N_y x N_z`` table of sinc values, and it does not
change when the y index is flipped, nor when the z index is.  Per axis, the
orthogonal ``P_a = [[I, I], [J, -J]] / sqrt(2)`` (``J`` the exchange matrix;
for odd length the middle line joins the even half) folds it into an even
and an odd half (Cantoni and Butler, 1976), so ``P = P_y kron P_z`` turns
``R`` into four diagonal blocks of about ``Q/4``, one per (y, z) parity,
gathered straight from the table.  The factor ``Rbar = P diag(F_b) P^T`` is
kept as the four block roots ``F_b``; neither ``R`` nor ``Rbar`` is built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import ArrayGeometry

# Eigenvalues in (_EIG_FLOOR, 0) are rounding and clamp to zero; anything
# below is a matrix that is not a correlation.
_EIG_FLOOR = -1e-6


def _sinc_table(geom: ArrayGeometry, wavelength: float) -> np.ndarray:
    """(N_y, N_z) sinc values by index offset, ``sinc(kappa * ||(a d_y, b d_z)||)``."""
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength!r}")
    kappa = 2.0 * math.pi / wavelength
    d_y, d_z = geom.spacing
    i_y, i_z = np.arange(geom.counts[0]), np.arange(geom.counts[1])
    dist = np.sqrt((i_y * d_y)[:, None] ** 2 + (i_z * d_z)[None, :] ** 2)
    # np.sinc is the normalized sin(pi x)/(pi x); rescale to plain sin(x)/x.
    return np.sinc(kappa * dist / np.pi)


def sinc_correlation(geom: ArrayGeometry, wavelength: float) -> np.ndarray:
    """(N, N) correlation matrix ``R[m, n] = sinc(kappa * ||u_m - u_n||)``.

    ``sinc(x) = sin(x)/x`` with ``sinc(0) = 1``; entries vanish exactly when
    the element separation is a positive integer multiple of half a
    wavelength, so same-row and same-column pairs of a half-wavelength UPA
    decorrelate while diagonal neighbors do not.

    On the grid the separation depends only on the index offsets
    ``(|di_y|, |di_z|)``, so the sinc is evaluated once per offset, in an
    ``N_y x N_z`` table, and ``R`` is read out of it.  The result is
    symmetric and unchanged by flipping the y or the z index, bit for bit.
    """
    table = _sinc_table(geom, wavelength)
    a_y, a_z = (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) for n in geom.counts)
    # (n_y, n_z, n_y, n_z) is the y-major (N, N) layout
    return table[a_y[:, None, :, None], a_z[None, :, None, :]].reshape(geom.size, geom.size)


def _symmetric_root(block: np.ndarray) -> np.ndarray:
    """Symmetric PSD root ``V sqrt(L) V^T`` of a symmetric block, by ``eigh``."""
    vals, vecs = np.linalg.eigh(block)
    if vals.min() < _EIG_FLOOR:
        raise ValueError(
            f"eigenvalue {vals.min():.3e} below tolerance {_EIG_FLOOR:.1e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _fold(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd halves ``P_a^T R_a P_a``, (m, m, ...) and (h, h, ...), of one axis.

    ``R_a[i, j] = t[|i - j|]`` for ``t`` (n, ...) indexed by offset.  With
    ``h = n // 2`` the halves are ``t[|a-c|] +- t[n-1-a-c]`` for ``a, c < h``;
    for odd ``n`` the middle line joins the even half as ``sqrt(2) t[h-a]``,
    with centre ``t[0]``.
    """
    h, odd = divmod(n, 2)
    i = np.arange(h)
    near, far = t[np.abs(i[:, None] - i)], t[n - 1 - i[:, None] - i]
    even = np.empty((h + odd, h + odd, *t.shape[1:]))
    np.add(near, far, out=even[:h, :h])
    if odd:
        even[:h, h] = even[h, :h] = math.sqrt(2.0) * t[h - i]
        even[h, h] = t[0]
    return even, near - far


def matrix_sqrt_factor(geom: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Block roots ``F_b``, stacked ``(4, m, m)``, of a geometry's sinc correlation.

    Folds the sinc table along y and then along z (see the module
    docstring) into four blocks, ordered (even y, even z), (even, odd),
    (odd, even), (odd, odd), and gives each the ``eigh`` root, with
    eigenvalues in ``(-1e-6, 0)`` clamped to zero and anything lower raising
    ``ValueError`` (so rank-deficient correlations of large half-wavelength
    arrays still factor).  A block's rows and columns
    index an ``m_y x m_z`` grid, ``m_a = ceil(N_a / 2)``, so ``m = m_y m_z``;
    the lines an odd half lacks are zero.  The symmetric root of the
    correlation is ``P diag(F_b) P^T``, which
    :func:`sample_matrix_normal_factor` applies without assembling it.
    """
    n_y, n_z = geom.counts
    m_y, m_z = (n_y + 1) // 2, (n_z + 1) // 2
    blocks = np.zeros((4, m_y * m_z, m_y * m_z))
    grid = blocks.reshape(2, 2, m_y, m_z, m_y, m_z)
    for p_y, half in enumerate(_fold(_sinc_table(geom, wavelength), n_y)):
        # half[a, c, k] is the y half's (a, c) entry at z offset k
        for p_z, block in enumerate(_fold(np.moveaxis(half, 2, 0), n_z)):
            v_z, _, v_y, _ = block.shape
            if block.size:
                root = _symmetric_root(block.transpose(2, 0, 3, 1).reshape(v_y * v_z, -1))
                grid[p_y, p_z, :v_y, :v_z, :v_y, :v_z] = root.reshape(v_y, v_z, v_y, v_z)
    return blocks


@functools.cache
def _fold_matrix(n: int) -> np.ndarray:
    """(2m, n) matrix ``P_a^T`` of one axis of length ``n``, ``m = ceil(n/2)``.

    Rows ``:m`` are the even half, rows ``m:`` the odd half, whose last row
    is zero for odd ``n``.  Read-only, shared by every caller.
    """
    h, m = n // 2, (n + 1) // 2
    g = np.zeros((2 * m, n))
    k = np.arange(h)
    g[k, k] = g[k, n - 1 - k] = g[m + k, k] = math.sqrt(0.5)
    g[m + k, n - 1 - k] = -math.sqrt(0.5)
    if n % 2:
        g[h, h] = 1.0
    g.flags.writeable = False
    return g


def _apply_factor(factor, x: np.ndarray) -> np.ndarray:
    """``P diag(F_b) P^T x`` for a ``(counts, blocks)`` factor and real (N, c) ``x``."""
    (n_y, n_z), blocks = factor
    g_y, g_z = _fold_matrix(n_y), _fold_matrix(n_z)
    m_y, m_z = g_y.shape[0] // 2, g_z.shape[0] // 2
    c = x.shape[1]
    t = g_z @ (g_y @ x.reshape(n_y, n_z * c)).reshape(2 * m_y, n_z, c)
    t = t.reshape(2, m_y, 2, m_z, c).transpose(0, 2, 1, 3, 4).reshape(4, m_y * m_z, c)
    t = (blocks @ t).reshape(2, 2, m_y, m_z, c).transpose(0, 2, 1, 3, 4)
    t = g_z.T @ t.reshape(2 * m_y, 2 * m_z, c)
    return (g_y.T @ t.reshape(2 * m_y, n_z * c)).reshape(n_y * n_z, c)


def _size(factor) -> int:
    """Element count of a ``(counts, blocks)`` factor; 1 for ``None``."""
    return 1 if factor is None else math.prod(factor[0])


def _apply_stage(factors: list, ops: list[np.ndarray]) -> None:
    """``ops[i] = F_i @ ops[i]`` for every factor ``F_i`` that is not ``None``.

    The operands of one factor concatenate their ``float64`` views (real
    and imaginary parts interleaved in the columns), so each distinct
    factor is applied once.
    """
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(factors):
        if f is not None:
            groups.setdefault(id(f[1]), []).append(i)
    for idx in groups.values():
        views = [np.ascontiguousarray(ops[i]).view(np.float64) for i in idx]
        product = _apply_factor(factors[idx[0]], np.hstack(views))
        end = 0
        for i, v in zip(idx, views):
            start, end = end, end + v.shape[1]
            ops[i] = product[:, start:end].view(np.complex128)


def sample_matrix_normal_factor(draws) -> list[np.ndarray]:
    """Correlated draws ``f_rx @ H_iid @ f_tx.T``, one per ``(core, f_rx, f_tx, sigma_c)``.

    ``core`` is ``(N_rx, N_tx)`` complex with standard normal real and
    imaginary parts, and ``H_iid = sqrt(sigma_c^2 / 2) * core`` is iid
    CN(0, sigma_c^2); the core itself is not modified.
    ``f_rx`` and ``f_tx`` are ``(counts, blocks)``: an array's element
    counts and the :func:`matrix_sqrt_factor` of its correlation, standing
    for the symmetric root ``P diag(F_b) P^T``; or ``None`` for a single
    antenna, whose factor ``[[1.0]]`` is not applied.  Row-major
    vectorization of a draw has covariance ``sigma_c^2 * kron(R_rx,
    R_tx)``.  Returns the draws in order.

    Each draw applies its factors in two stages, transposing the
    intermediate between them, so a stage always applies its factor to
    rows.  The call's largest factor goes in the second stage and every
    other factor in the first, and within a stage the draws that share a
    factor go through one product with it: a trial applies the BS factor
    once (to the BS->surface core and the direct links) and the surface
    factor once (to that intermediate and the surface->UE links).
    """
    largest = max((f for d in draws for f in d[1:3] if f is not None), key=_size, default=None)
    ops, flips, stages = [], [], ([], [])
    for core, f_rx, f_tx, sigma_c in draws:
        h_iid = math.sqrt(sigma_c * sigma_c / 2.0) * core
        # f_tx goes first unless it is the largest factor or f_rx is
        flip = (f_tx is not None and f_tx is not largest) or f_rx is largest
        # f_rx @ H @ f_tx.T == (f_rx @ (f_tx @ H.T).T) == (f_tx @ (f_rx @ H).T).T
        ops.append(h_iid.T if flip else h_iid)
        flips.append(flip)
        stages[0].append(f_tx if flip else f_rx)
        stages[1].append(f_rx if flip else f_tx)
    for factors in stages:
        _apply_stage(factors, ops)
        ops = [op.T for op in ops]
    return [op.T if flip else op for op, flip in zip(ops, flips)]
