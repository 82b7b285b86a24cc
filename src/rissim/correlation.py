"""Spatial correlation under isotropic half-space scattering.

Builds the sinc correlation matrices of a given array geometry, factors
them, and samples correlated Rayleigh channel matrices as the two-sided
factor product ``Rbar_rx @ H_iid @ Rbar_tx.T``.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import sample_iid_rayleigh
from .geometry import ArrayGeometry, distance_matrix

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
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    kappa = 2.0 * math.pi / wavelength
    pos = geom.element_positions
    # np.sinc is the normalized sin(pi x)/(pi x); rescale to plain sin(x)/x.
    return np.sinc(kappa * distance_matrix(pos, pos) / np.pi)


def matrix_sqrt_factor(r: np.ndarray) -> np.ndarray:
    """Symmetric factor ``Rbar`` with ``Rbar @ Rbar.T == r``.

    Uses the eigendecomposition rather than Cholesky so that the
    rank-deficient correlation matrices of large half-wavelength arrays still
    factor; eigenvalues in ``(-1e-6, 0)`` are clamped to zero, anything
    lower raises :class:`NotPositiveSemidefiniteError`.
    """
    vals, vecs = np.linalg.eigh(r)
    if vals.min() < _EIG_FLOOR:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {vals.min():.3e} below tolerance {_EIG_FLOOR:.1e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


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
