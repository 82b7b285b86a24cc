"""Spatial correlation under isotropic half-space scattering.

Builds the sinc correlation matrices of a given array geometry, factors
them, and samples correlated Rayleigh channel matrices as the two-sided
factor product ``Rbar_rx @ H_iid @ Rbar_tx.T``.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import sample_iid_rayleigh
from .geometry import ArrayGeometry

# Eigenvalues in (_EIG_FLOOR, 0) are rounding and clamp to zero; anything
# below is a matrix that is not a correlation.
_EIG_FLOOR = -1e-6


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a correlation matrix has a meaningfully negative eigenvalue."""


def sinc_correlation(geom: ArrayGeometry, wavelength: float) -> np.ndarray:
    """(N, N) correlation matrix ``R[m, n] = sinc(kappa * ||u_m - u_n||)``.

    ``sinc(x) = sin(x)/x`` with ``sinc(0) = 1``; entries vanish exactly when
    the element separation is a positive integer multiple of half a
    wavelength, so same-row and same-column pairs of a half-wavelength UPA
    decorrelate while diagonal neighbors do not.

    On the grid the separation depends only on the index offsets
    ``(|di_y|, |di_z|)``, so the sinc is evaluated once per offset, in an
    ``N_y x N_z`` table, and ``R`` is read out of it.  The result is
    symmetric and centrosymmetric (``R == R[::-1, ::-1]``) bit for bit.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    kappa = 2.0 * math.pi / wavelength
    i_y, i_z = np.arange(geom.counts[0]), np.arange(geom.counts[1])
    d_y, d_z = geom.spacing
    dist = np.sqrt((i_y * d_y)[:, None] ** 2 + (i_z * d_z)[None, :] ** 2)
    # np.sinc is the normalized sin(pi x)/(pi x); rescale to plain sin(x)/x.
    table = np.sinc(kappa * dist / np.pi)
    a_y = np.abs(np.subtract.outer(i_y, i_y))
    a_z = np.abs(np.subtract.outer(i_z, i_z))
    # (n_y, n_z, n_y, n_z) is the y-major (N, N) layout
    return table[a_y[:, None, :, None], a_z[None, :, None, :]].reshape(geom.size, geom.size)


def _symmetric_root(block: np.ndarray) -> np.ndarray:
    """Symmetric PSD root ``V sqrt(L) V^T`` of a symmetric block, by ``eigh``."""
    vals, vecs = np.linalg.eigh(block)
    if vals.min() < _EIG_FLOOR:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {vals.min():.3e} below tolerance {_EIG_FLOOR:.1e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def matrix_sqrt_factor(r: np.ndarray) -> np.ndarray:
    """Symmetric factor ``Rbar`` with ``Rbar @ Rbar.T == r``.

    ``r`` must be centrosymmetric (``r == r[::-1, ::-1]``, as every
    :func:`sinc_correlation` is); otherwise ``ValueError``.  With
    ``h = N // 2``, ``A = r[:h, :h]`` and ``B = r[:h, -h:]``, the orthogonal
    ``P = [[I, I], [J, -J]] / sqrt(2)`` (``J`` the exchange matrix) folds
    ``r`` into ``diag(A + BJ, A - BJ)`` (Cantoni and Butler, 1976); for odd
    ``N`` the middle row and column join the even block, scaled by
    ``sqrt(2)``.  Each block gets the ``eigh`` root, with eigenvalues in
    ``(-1e-6, 0)`` clamped to zero and anything lower raising
    :class:`NotPositiveSemidefiniteError` (so rank-deficient correlations of
    large half-wavelength arrays still factor), and
    ``Rbar = P diag(F_e, F_o) P^T``.
    """
    if not np.array_equal(r, r[::-1, ::-1]):
        raise ValueError("correlation matrix is not centrosymmetric")
    n = r.shape[0]
    h, odd = divmod(n, 2)
    a, b_j = r[:h, :h], r[:h, n - h :][:, ::-1]
    even = np.empty((h + odd, h + odd))
    np.add(a, b_j, out=even[:h, :h])
    if odd:
        even[:h, h] = even[h, :h] = math.sqrt(2.0) * r[:h, h]
        even[h, h] = r[h, h]
    f_even = _symmetric_root(even)
    f_odd = _symmetric_root(a - b_j) if h else np.empty((0, 0))
    out = np.empty((n, n))
    top = n - h  # first index of the bottom half
    s = 0.5 * (f_even[:h, :h] + f_odd)
    d = 0.5 * (f_even[:h, :h] - f_odd)
    out[:h, :h], out[top:, top:] = s, s[::-1, ::-1]
    out[:h, top:], out[top:, :h] = d[:, ::-1], d[::-1, :]
    if odd:
        mid = f_even[:h, h] / math.sqrt(2.0)
        out[:h, h] = out[h, :h] = mid
        out[top:, h] = out[h, top:] = mid[::-1]
        out[h, h] = f_even[h, h]
    return out


def sample_matrix_normal_factor(
    rng: np.random.Generator,
    f_rx: np.ndarray,
    f_tx: np.ndarray,
    sigma_c: float,
) -> np.ndarray:
    """Correlated draw ``f_rx @ H_iid @ f_tx.T`` with iid CN(0, sigma_c^2) core.

    ``f_rx`` and ``f_tx`` are the :func:`matrix_sqrt_factor` of ``R_rx`` and
    ``R_tx``; row-major vectorization of the result has covariance
    ``sigma_c^2 * kron(R_rx, R_tx)``.

    Both factors are real, so the smaller one is applied to the complex core
    first, and the larger one multiplies the ``float64`` view of that
    intermediate (real and imaginary parts interleaved in its columns): one
    real matrix product whose output is viewed back as ``complex128``.  No
    complex copy of the large factor is made.
    """
    n_rx, n_tx = f_rx.shape[0], f_tx.shape[0]
    h_iid = sample_iid_rayleigh(rng, n_rx, n_tx, sigma_c * sigma_c)
    if n_rx >= n_tx:
        small = h_iid @ f_tx.T
        return (f_rx @ small.view(np.float64)).view(np.complex128)
    # f_rx @ H @ f_tx.T == (f_tx @ (f_rx @ H).T).T
    small = np.ascontiguousarray((f_rx @ h_iid).T)
    return (f_tx @ small.view(np.float64)).view(np.complex128).T
