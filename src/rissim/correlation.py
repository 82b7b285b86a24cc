"""Spatial correlation under isotropic half-space scattering.

Builds the sinc correlation matrices of a given array geometry, samples
correlated Rayleigh channel matrices through two equivalent routes (two-sided
factor product and Kronecker-covariance vector draw), and provides the
Monte Carlo oracle that checks the finite-path channel sum against the
matrix-Gaussian limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ArrayGeometry


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a correlation matrix has a meaningfully negative eigenvalue."""


@dataclass
class CorrelationMatrix:
    """Real symmetric correlation matrix tied to the geometry it came from."""

    r: np.ndarray
    geom: ArrayGeometry
    _factor: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def sqrt_factor(self) -> np.ndarray:
        """Cached symmetric square root (see :func:`matrix_sqrt_factor`)."""
        if self._factor is None:
            self._factor = matrix_sqrt_factor(self)
        return self._factor


def sinc_correlation(geom: ArrayGeometry, wavelength: float) -> CorrelationMatrix:
    """Correlation matrix ``R[m, n] = sinc(kappa * ||u_m - u_n||)``.

    ``sinc(x) = sin(x)/x`` with ``sinc(0) = 1``; entries vanish exactly when
    the element separation is a positive integer multiple of half a
    wavelength, so same-row and same-column pairs of a half-wavelength UPA
    decorrelate while diagonal neighbors do not.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    kappa = 2.0 * math.pi / wavelength
    pos = geom.element_positions
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    # np.sinc is the normalized sin(pi x)/(pi x); rescale to plain sin(x)/x.
    return CorrelationMatrix(r=np.sinc(kappa * dist / np.pi), geom=geom)


def matrix_sqrt_factor(corr: CorrelationMatrix, eig_floor: float = -1e-6) -> np.ndarray:
    """Symmetric factor ``Rbar`` with ``Rbar @ Rbar.T == R``.

    Uses the eigendecomposition rather than Cholesky so that the
    rank-deficient correlation matrices of large half-wavelength arrays still
    factor; eigenvalues in ``(eig_floor, 0)`` are clamped to zero, anything
    below ``eig_floor`` raises :class:`NotPositiveSemidefiniteError`.
    """
    vals, vecs = np.linalg.eigh(corr.r)
    if vals.min() < eig_floor:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {vals.min():.3e} below tolerance {eig_floor:.1e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _iid_cn(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_matrix_normal_factor(
    rng: np.random.Generator,
    r_rx: CorrelationMatrix,
    r_tx: CorrelationMatrix,
    sigma_c: float,
) -> np.ndarray:
    """Correlated draw ``Rbar_rx @ H_iid @ Rbar_tx.T`` with iid CN(0, sigma_c^2) core.

    Row-major vectorization of the result has covariance
    ``sigma_c^2 * kron(R_rx, R_tx)``.

    Both factors are real, so the smaller one is applied to the complex core
    first, and the larger one multiplies the ``float64`` view of that
    intermediate (real and imaginary parts interleaved in its columns): one
    real matrix product whose output is viewed back as ``complex128``.  No
    complex copy of the large factor is made.
    """
    h_iid = _iid_cn(rng, (r_rx.n, r_tx.n), sigma_c * sigma_c)
    if r_rx.n >= r_tx.n:
        small = h_iid @ r_tx.sqrt_factor.T
        return (r_rx.sqrt_factor @ small.view(np.float64)).view(np.complex128)
    # Rbar_rx @ H @ Rbar_tx.T == (Rbar_tx @ (Rbar_rx @ H).T).T
    small = np.ascontiguousarray((r_rx.sqrt_factor @ h_iid).T)
    return (r_tx.sqrt_factor @ small.view(np.float64)).view(np.complex128).T


def sample_matrix_normal_vec(
    rng: np.random.Generator,
    r_rx: CorrelationMatrix,
    r_tx: CorrelationMatrix,
    sigma_c: float,
) -> np.ndarray:
    """Equivalent draw through the stacked Kronecker-covariance Gaussian.

    Draws ``vec(H) ~ CN(0, sigma_c^2 * kron(R_rx, R_tx))`` directly and
    reshapes (row-major); distributionally identical to
    :func:`sample_matrix_normal_factor`.
    """
    kron_factor = np.kron(r_rx.sqrt_factor, r_tx.sqrt_factor)
    z = _iid_cn(rng, r_rx.n * r_tx.n, sigma_c * sigma_c)
    return (kron_factor @ z).reshape(r_rx.n, r_tx.n)


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
        sinc_correlation(rx_geom, wavelength).r, sinc_correlation(tx_geom, wavelength).r
    )
    return float(np.max(np.abs(cov - target)))
