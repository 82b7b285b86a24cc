"""Antenna array geometry: UPA/ULA manifolds, steering vectors, distances.

Conventions
-----------
* Elements of an ``N_y x N_z`` planar array are flattened y-major,
  ``n = n_y * N_z + n_z``, so the vectorized UPA steering vector equals the
  Kronecker product ``a_y (x) a_z`` of its per-axis ULA factors.
* Every array lies in the global y-z plane: boresight along +x, rows
  along +y, columns along +z.  A steering direction is a 3-vector in that
  frame; it need not be unit norm.
* Steering phases are referenced to element (0, 0), which sits at the
  array origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ArrayGeometry:
    """A uniform planar (or linear) array of ``N_y x N_z`` elements in the y-z plane.

    Element (0, 0) sits at ``origin``; element (n_y, n_z) sits at
    ``origin + [0, n_y*d_y, n_z*d_z]``.  ``counts == (1, 1)`` models a single
    antenna (e.g. a UE).  ``local_coords`` (N, 3), the element offsets from
    ``origin``, ``element_positions`` (N, 3) and their mean, ``center``, are
    computed once, when the geometry is built.
    """

    counts: tuple[int, int]
    spacing: tuple[float, float]
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        n_y, n_z = self.counts
        if n_y < 1 or n_z < 1:
            raise ValueError(f"element counts must be positive, got {self.counts}")
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        d_y, d_z = self.spacing
        if not all(map(math.isfinite, (d_y, d_z, *self.origin.tolist()))):
            raise ValueError(f"spacing {self.spacing} and origin {self.origin} must be finite")
        iy = np.repeat(np.arange(n_y), n_z)  # y-major flattening
        iz = np.tile(np.arange(n_z), n_y)
        self.local_coords = np.column_stack(
            [np.zeros(n_y * n_z), iy * d_y, iz * d_z]
        )
        self.element_positions = self.origin + self.local_coords
        self.center = self.element_positions.mean(axis=0)

    @classmethod
    def upa(cls, n_y, n_z, spacing, origin=(0.0, 0.0, 0.0)):
        """UPA with equal spacing along both axes, element (0,0) at origin."""
        return cls(counts=(n_y, n_z), spacing=(spacing, spacing), origin=origin)

    @classmethod
    def upa_centered(cls, n_y, n_z, spacing, center):
        """UPA placed so that its geometric center is at ``center``."""
        geom = cls.upa(n_y, n_z, spacing)
        shift = np.asarray(center, dtype=float) - geom.element_positions.mean(axis=0)
        return cls.upa(n_y, n_z, spacing, origin=shift)

    @classmethod
    def single(cls, position):
        """Single-element 'array' (isotropic antenna) at ``position``.

        Built directly, without the UPA index tables: field for field what
        ``cls(counts=(1, 1), spacing=(0.0, 0.0), origin=position)`` builds,
        with the same check.  Adding the zero offset turns a ``-0.0``
        coordinate into ``0.0`` in the positions and the center, as there.
        """
        geom = cls.__new__(cls)
        geom.counts, geom.spacing = (1, 1), (0.0, 0.0)
        geom.origin = np.asarray(position, dtype=float).reshape(3)
        if not all(map(math.isfinite, geom.origin.tolist())):
            raise ValueError(f"spacing {geom.spacing} and origin {geom.origin} must be finite")
        geom.local_coords = np.zeros((1, 3))
        geom.element_positions = geom.origin + geom.local_coords
        geom.center = geom.element_positions[0].copy()
        return geom

    @property
    def size(self) -> int:
        return self.counts[0] * self.counts[1]

    @property
    def aperture(self) -> float:
        """Largest array diagonal in meters (zero for a single element)."""
        n_y, n_z = self.counts
        d_y, d_z = self.spacing
        return math.hypot((n_y - 1) * d_y, (n_z - 1) * d_z)


def steering_vector(geom: ArrayGeometry, direction: np.ndarray, wavelength: float) -> np.ndarray:
    """Array steering vector ``exp(j*kappa*d^T u_n)`` for all elements.

    ``d`` is ``direction`` scaled to unit norm; a zero or non-finite
    direction raises ``ValueError``.  Phases are referenced to element
    (0, 0); every entry has unit modulus.
    """
    _check_positive("wavelength", wavelength)
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"direction must be finite and nonzero, got {direction!r}")
    kappa = 2.0 * math.pi / wavelength
    return np.exp(1j * kappa * (geom.local_coords @ (d / n)))


def element_distances(geom: ArrayGeometry, points: np.ndarray) -> np.ndarray:
    """Distances (N, P) from each element of ``geom`` to each row of ``points`` (P, 3).

    Bit for bit ``np.linalg.norm(pos[:, None] - points[None], axis=-1)`` for
    the element positions ``pos`` (the squares are summed in x, y, z order),
    without the (N, P, 3) difference array: every element shares one x, a
    row shares its y and a column its z, so ``dy*dy`` is computed per row and
    ``dz*dz`` per column and only their sum is full size.
    """
    n_y, n_z = geom.counts
    pos = geom.element_positions
    dx = pos[0, 0] - points[:, 0]  # (P,)
    dy = pos[::n_z, 1, None] - points[:, 1]  # (n_y, P), one row per y index
    dz = pos[:n_z, 2, None] - points[:, 2]  # (n_z, P), one row per z index
    d2 = (dx * dx + (dy * dy)[:, None]) + (dz * dz)[None]  # (n_y, n_z, P), y-major
    return np.sqrt(d2, out=d2).reshape(n_y * n_z, -1)


def fraunhofer_distance(aperture: float, wavelength: float) -> float:
    """Far-field boundary ``2*D^2/lambda`` for an aperture of size ``D``."""
    _check_positive("aperture", aperture)
    _check_positive("wavelength", wavelength)
    return 2.0 * aperture * aperture / wavelength


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
