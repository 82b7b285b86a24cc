"""Independent references that the checks compare the pipeline against.

No trial calls this module.  Each function computes what the pipeline
computes, another way, or measures how far a pipeline result is from what
theory says it must be:

* :func:`brute_force_tiles` repeats the greedy tile search with an explicit
  SVD of every candidate (no Gram form, no pruning);
* :func:`duality_gap_and_slack` measures a precoder solution against its
  dual and its SINR constraints;
* :func:`path_sum_covariance_error` checks the finite-path channel sum
  against its matrix-Gaussian limit;
* :func:`sample_matrix_normal_vec` draws the correlated channel through the
  Kronecker covariance instead of the two-sided factor product;
* :func:`kron_steering` builds the UPA steering vector from its ULA factors;
* :func:`sqrt_factor_errors` measures a correlation factor against the root
  from one eigendecomposition of the whole matrix, without the fold.

:func:`complex_randn` and :func:`tile_instance` draw the random inputs that
``rissim check`` and the tests give these references.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import sample_iid_rayleigh
from .correlation import sinc_correlation
from .geometry import Angle, ArrayGeometry
from .precoding import PrecodingSolution
from .ris import Codebook, build_codebook, build_tile_partition


def complex_randn(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries ``x + j*y`` with independent standard normal ``x`` and ``y``."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def tile_instance(
    rng: np.random.Generator,
    ris_counts: tuple[int, int],
    tile_shape: tuple[int, int],
    n_t: int,
    n_ue: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Codebook]:
    """Random tile-search inputs ``(direct, h_t, h_r, tiles, codebook)``.

    The (N_t, K) direct, (Q, N_t) BS-to-surface and (Q, K) surface-to-UE
    channels are drawn in that order with :func:`complex_randn`; ``tiles``
    is the raster tiling of ``ris_counts`` into ``tile_shape``.
    """
    tiles = build_tile_partition(ris_counts, tile_shape)
    q = tiles.size
    direct, h_t, h_r = (complex_randn(rng, s) for s in ((n_t, n_ue), (q, n_t), (q, n_ue)))
    return direct, h_t, h_r, tiles, build_codebook(tile_shape)


def brute_force_tiles(
    direct: np.ndarray,
    h_t: np.ndarray,
    h_r: np.ndarray,
    tiles: np.ndarray,
    codebook: Codebook,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy per-tile search with an explicit SVD of every candidate.

    Tile by tile, codebook entry ``omega`` turns each UE's effective channel
    into ``h_k + (h_rk^H diag(exp(j*omega)) H_t)^H`` over the tile's
    elements; the entry whose stacked ``[h_1, ..., h_K]`` has the largest
    minimum singular value wins (ties go to the lowest index) and is kept
    for the next tile.  Returns the chosen indices and the final (N_t, K)
    effective channel, to compare with :func:`rissim.ris.configure_tiles`.
    """
    h_eff = direct.astype(complex)
    chosen = np.empty(len(tiles), dtype=np.intp)
    coeffs = np.exp(1j * codebook.phases)[:, None, :]  # (M, 1, q)
    for t, ids in enumerate(tiles):
        rows = (coeffs * np.conj(h_r[ids]).T) @ h_t[ids]  # (M, K, N_t)
        candidates = h_eff + np.conj(rows).swapaxes(1, 2)  # (M, N_t, K)
        scores = np.linalg.svd(candidates, compute_uv=False).min(axis=1)
        chosen[t] = np.argmax(scores)
        h_eff = candidates[chosen[t]]
    return chosen, h_eff


def duality_gap_and_slack(solution: PrecodingSolution, gamma_thr: float) -> tuple[float, float]:
    """Relative gap between the primal and dual total powers of a precoder
    solution, and its largest relative SINR deviation from ``gamma_thr``.

    Both vanish at the optimum, where every SINR constraint is tight and the
    uplink dual has the same total power.
    """
    gap = abs(solution.total_power - solution.dual_total_power) / solution.total_power
    slack = float(np.max(np.abs(solution.achieved_sinr / gamma_thr - 1.0)))
    return gap, slack


def kron_steering(geom: ArrayGeometry, angle: Angle, wavelength: float) -> np.ndarray:
    """UPA steering vector built as the Kronecker product of ULA factors.

    With y-major element flattening this is entrywise identical to
    :func:`rissim.geometry.steering_vector`; it is an independent
    construction so the factorization can be tested rather than assumed.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    kappa = 2.0 * math.pi / wavelength
    n_y, n_z = geom.counts
    d_y, d_z = geom.spacing
    a_y = np.exp(
        1j * kappa * d_y * math.cos(angle.theta) * math.sin(angle.phi) * np.arange(n_y)
    )
    a_z = np.exp(1j * kappa * d_z * math.sin(angle.theta) * np.arange(n_z))
    return np.kron(a_y, a_z)


def sqrt_factor_errors(r: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Largest entries of ``|f - V sqrt(L) V^T|`` and ``|f f^T - r|``.

    ``V sqrt(L) V^T`` is the symmetric root of ``r`` from one ``eigh`` of
    the whole matrix, negative eigenvalues clamped to zero: the root that
    :func:`rissim.correlation.matrix_sqrt_factor` computes from the two
    half-size blocks of its fold.
    """
    vals, vecs = np.linalg.eigh(r)
    dense = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return float(np.abs(f - dense).max()), float(np.abs(f @ f.T - r).max())


def sample_matrix_normal_vec(
    rng: np.random.Generator,
    f_rx: np.ndarray,
    f_tx: np.ndarray,
    sigma_c: float,
) -> np.ndarray:
    """Correlated draw through the stacked Kronecker-covariance Gaussian.

    ``f_rx`` and ``f_tx`` are the square-root factors of ``R_rx`` and
    ``R_tx``.  Draws ``vec(H) ~ CN(0, sigma_c^2 * kron(R_rx, R_tx))``
    directly and reshapes (row-major); distributionally identical to
    :func:`rissim.correlation.sample_matrix_normal_factor`.
    """
    n_rx, n_tx = f_rx.shape[0], f_tx.shape[0]
    z = sample_iid_rayleigh(rng, n_rx, n_tx, sigma_c * sigma_c).ravel()
    return (np.kron(f_rx, f_tx) @ z).reshape(n_rx, n_tx)


def _halfspace_direction_yz(rng: np.random.Generator, n: int, dtype):
    """(d_y, d_z) components of directions uniform on the forward half-sphere.

    The half-space angle density ``cos(theta)/(2*pi)`` is exactly the uniform
    distribution on the hemisphere in front of the array, so ``sin(theta)``
    is uniform on [-1, 1] and ``(cos(phi), sin(phi))`` is uniform on the
    right half circle; neither needs a trigonometric call.  Only the y and z
    components are returned because array elements have no local x extent.
    """
    sin_t = (2.0 * rng.random(n, dtype=dtype) - 1.0).astype(dtype, copy=False)
    cos_t = np.sqrt(1.0 - sin_t * sin_t)
    g = rng.standard_normal((2, n), dtype=dtype)
    r = np.hypot(g[0], g[1])
    r[r == 0.0] = 1.0
    sin_p = g[1] / r
    return cos_t * sin_p, sin_t


def _axis_powers(alpha: np.ndarray, count: int, cdtype) -> np.ndarray:
    """Columns ``[1, z, z^2, ...]`` for ``z = exp(1j*alpha)``, one per path."""
    out = np.empty((count, alpha.size), dtype=cdtype)
    out[0] = 1.0
    if count > 1:
        z = np.empty(alpha.size, dtype=cdtype)
        np.cos(alpha, out=z.real)
        np.sin(alpha, out=z.imag)
        out[1] = z
        for k in range(2, count):
            np.multiply(out[k - 1], z, out=out[k])
    return out


def _steering_batch(geom: ArrayGeometry, rng, n: int, kappa: float, dtype, cdtype):
    """Steering vectors for ``n`` random half-space paths, one column each.

    Exploits the uniform grid: the steering vector is the Kronecker product
    of per-axis geometric progressions, so only one complex exponential per
    axis and path is evaluated.
    """
    d_y, d_z = _halfspace_direction_yz(rng, n, dtype)
    n_y, n_z = geom.counts
    s_y, s_z = geom.spacing
    p_y = _axis_powers((kappa * s_y) * d_y, n_y, cdtype) if n_y > 1 else None
    p_z = _axis_powers((kappa * s_z) * d_z, n_z, cdtype) if n_z > 1 else None
    if p_y is None and p_z is None:
        return np.ones((1, n), dtype=cdtype)
    if p_y is None:
        return p_z
    if p_z is None:
        return p_y
    return (p_y[:, None, :] * p_z[None, :, :]).reshape(n_y * n_z, n)


def path_sum_covariance_error(
    rng: np.random.Generator,
    n_paths: int,
    rx_geom: ArrayGeometry,
    tx_geom: ArrayGeometry,
    wavelength: float,
    sigma_c: float,
    draws: int,
    chunk: int = 250,
) -> float:
    """Monte Carlo check of the matrix-Gaussian limit of the path-sum channel.

    Builds ``H = (1/sqrt(L)) * sum_l c_l a_rx(Psi_rx,l) a_tx(Psi_tx,l)^H``
    with iid CN(0, sigma_c^2) gains and half-space-isotropic angles, estimates
    the covariance of the row-major vectorization over ``draws`` independent
    realizations, and returns the maximum entrywise deviation from the
    analytic target ``sigma_c^2 * kron(R_rx, R_tx)`` built from the sinc
    correlation matrices.  The deviation shrinks as ``n_paths`` and ``draws``
    grow.

    Path batches run in single precision (errors far below any useful
    tolerance here) with double-precision accumulation across draws.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    dtype, cdtype = np.float32, np.complex64
    kappa = 2.0 * math.pi / wavelength
    n_rx, n_tx = rx_geom.size, tx_geom.size
    p = n_rx * n_tx
    acc = np.zeros((p, p), dtype=np.complex128)
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        n = m * n_paths
        a_rx = _steering_batch(rx_geom, rng, n, kappa, dtype, cdtype)
        a_tx = _steering_batch(tx_geom, rng, n, kappa, dtype, cdtype)
        scale = 1.0 / math.sqrt(2.0 * n_paths) * sigma_c
        c = scale * (
            rng.standard_normal((m, n_paths), dtype=dtype)
            + 1j * rng.standard_normal((m, n_paths), dtype=dtype)
        ).astype(cdtype, copy=False)
        weighted = np.conj(a_tx).reshape(n_tx, m, n_paths).transpose(1, 2, 0) * c[:, :, None]
        h = a_rx.reshape(n_rx, m, n_paths).transpose(1, 0, 2) @ weighted  # (m, n_rx, n_tx)
        v = h.reshape(m, p)
        acc += (np.conj(v).T @ v).astype(np.complex128).T
        done += m
    cov = acc / draws
    target = sigma_c * sigma_c * np.kron(
        sinc_correlation(rx_geom, wavelength), sinc_correlation(tx_geom, wavelength)
    )
    return float(np.max(np.abs(cov - target)))
