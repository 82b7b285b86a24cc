"""Spatial correlation under isotropic half-space scattering.

Builds the sinc correlation matrices of a given array geometry, factors
them, and samples correlated Rayleigh channel matrices as the two-sided
factor product ``Rbar_rx @ H_iid @ Rbar_tx.T``.
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
