"""Channel primitives shared by the five small-scale fading models.

The models differ only in how one link is drawn:

* iid Rayleigh entries,
* iid Rician (rank-one planar line-of-sight plus iid scatter),
* correlated Rayleigh (matrix-normal scatter with sinc correlations),
* low-rank geometric (clustered sub-paths, a planar wave per array
  phase-referenced to its center; each steering vector is the Kronecker
  product of per-axis phasors, so no N-by-sub-path exponential table),
* near-field geometric (exact per-element-pair spherical distances).

This module holds the pieces: the per-link power budget ``h_p``, the iid
draw, the planar and spherical line-of-sight matrices, and the scattering
clusters with their planar and spherical evaluations.  Each piece
normalizes so that ``E||H||_F^2 = h_p * N_rx * N_tx`` and is a pure
function of its RNG.  :func:`rissim.harness.draw_links` composes them into
one link per model; it is the only place that does.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import units
from .geometry import ArrayGeometry, element_distances, steering_vector

# A sub-path closer than this to an array center (low-rank) or to an
# antenna element (near-field) makes the link raise ValueError.  Nothing is
# resampled: a sub-path lands that close to a given point with probability
# at most (4/3)*pi*(1e-9)**3 / 8, about 5e-28.
_MIN_SCATTER_CLEARANCE = 1e-9

# dB values must stay below this for their linear gain to be a finite float;
# the bound itself overflows.
_MAX_GAIN_DB = 10.0 * math.log10(sys.float_info.max)


class ChannelModel(str, enum.Enum):
    IID_RAYLEIGH = "iid_rayleigh"
    IID_RICIAN = "iid_rician"
    CORRELATED_RAYLEIGH = "correlated_rayleigh"
    LOWRANK_GEOMETRIC = "lowrank_geometric"
    NEARFIELD_GEOMETRIC = "nearfield_geometric"


class LinkRole(str, enum.Enum):
    DIRECT = "bs_ue"
    TX_TO_RIS = "bs_ris"
    RIS_TO_RX = "ris_ue"


@dataclass
class LinkParams:
    """Large-scale parameters of one link.

    ``beta_db`` is the pathloss at reference distance ``d0``; ``eta`` the
    pathloss exponent; ``k_factor`` the (linear) Rician K-factor; blockage and
    shadow terms are deterministic dB offsets folded into the power budget.
    Scattering clusters of the geometric models are drawn in
    ``cluster_volume``.
    """

    beta_db: float
    cluster_volume: Box
    d0: float = 1.0
    eta: float = 2.0
    k_factor: float = 0.0
    blockage_db: float = 0.0
    shadow_db: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta_db) and self.beta_db < _MAX_GAIN_DB):
            raise ValueError(
                f"beta_db must be finite and below {_MAX_GAIN_DB:.1f}, got {self.beta_db!r}"
            )
        if not (math.isfinite(self.d0) and self.d0 > 0):
            raise ValueError(f"d0 must be finite and > 0, got {self.d0!r}")
        for name, value in (("eta", self.eta), ("k_factor", self.k_factor)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        # -inf dB is a fully blocked link; NaN, +inf and gains past the
        # largest float have no meaning.
        for name, value in (("blockage_db", self.blockage_db), ("shadow_db", self.shadow_db)):
            if not value < _MAX_GAIN_DB:
                raise ValueError(f"{name} must be -inf or below {_MAX_GAIN_DB:.1f}, got {value!r}")
        if self.budget_db >= _MAX_GAIN_DB:
            raise ValueError(
                f"beta_db + blockage_db + shadow_db must be below {_MAX_GAIN_DB:.1f}, "
                f"got {self.budget_db!r}"
            )

    @property
    def budget_db(self) -> float:
        """The dB terms of the power budget: ``beta_db + blockage_db + shadow_db``."""
        return self.beta_db + self.blockage_db + self.shadow_db


def pathloss(params: LinkParams, d: float) -> float:
    """Linear power budget ``10^(beta_db/10) * (d0/d)^eta`` with blockage/shadow offsets.

    ``LinkParams`` bounds the dB terms; a budget that is still not a finite
    float at distance ``d`` raises ``ValueError``.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    try:
        gain = units.db_to_linear(params.beta_db) * (params.d0 / d) ** params.eta
        gain = gain * units.db_to_linear(params.blockage_db) * units.db_to_linear(params.shadow_db)
    except OverflowError:
        gain = math.inf
    if not math.isfinite(gain):
        raise ValueError(f"power budget at {d:g} m is not finite (d0={params.d0}, eta={params.eta})")
    return gain


def sample_iid_rayleigh(
    rng: np.random.Generator, n_rx: int, n_tx: int, h_p: float
) -> np.ndarray:
    """Entries iid CN(0, h_p): real/imaginary parts each of variance h_p/2."""
    if h_p < 0:
        raise ValueError("h_p must be >= 0")
    scale = math.sqrt(h_p / 2.0)
    return scale * (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx)))


def los_matrix(
    tx_geom: ArrayGeometry, rx_geom: ArrayGeometry, h_p: float, wavelength: float
) -> np.ndarray:
    """Rank-one planar line-of-sight matrix ``sqrt(h_p) * a_rx a_tx^H``.

    Both arrays steer along the propagation direction, from the transmitter's
    center to the receiver's, so the phases are the far-field limit of
    :func:`nearfield_los`.  All steering entries are unit modulus, so the
    squared Frobenius norm is ``h_p * N_rx * N_tx``.
    """
    direction = rx_geom.center - tx_geom.center
    a_rx = steering_vector(rx_geom, direction, wavelength)
    a_tx = steering_vector(tx_geom, direction, wavelength)
    return math.sqrt(h_p) * np.outer(a_rx, np.conj(a_tx))


def nearfield_los(
    tx_geom: ArrayGeometry, rx_geom: ArrayGeometry, h_p: float, wavelength: float
) -> np.ndarray:
    """Line-of-sight matrix with exact spherical phases per element pair.

    Entry (m, n) is ``sqrt(h_p) * exp(j*kappa*||u_tx,n - u_rx,m||)``; no
    planar approximation, so the wavefront curvature across large arrays is
    retained.
    """
    kappa = 2.0 * math.pi / wavelength
    d = element_distances(rx_geom, tx_geom.element_positions)
    return math.sqrt(h_p) * np.exp(1j * kappa * d)


# ---------------------------------------------------------------------------
# Clustered geometric models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned volume in which scattering clusters are placed."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        corners = (*self.lo, *self.hi)
        if len(self.lo) != 3 or len(self.hi) != 3 or not all(map(math.isfinite, corners)):
            raise ValueError(f"cluster volume needs 3 finite lo and hi values: {self.lo}, {self.hi}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty cluster volume: lo={self.lo}, hi={self.hi}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, 3))


@dataclass
class ClusterSet:
    """Cluster draw for one link, carrying the power budget it was drawn for.

    ``positions`` (L, R, 3) and ``phases`` (L, R) hold the R sub-paths of
    each of the L clusters, ``gains`` (L,) one real gain per cluster.  The
    sub-paths are not screened against the arrays; the channel functions
    raise on one that sits on an array center or element.
    """

    positions: np.ndarray
    phases: np.ndarray
    gains: np.ndarray
    h_p: float


# Sub-paths of one cluster live in a cube of this side length (meters)
# centered on the cluster centroid.
SUBPATH_CUBE_SIDE = 2.0


def draw_clusters(
    rng: np.random.Generator, volume: Box, n_clusters: int, n_subpaths: int, h_p: float
) -> ClusterSet:
    """Draw cluster centroids, per-cluster gains, and sub-path positions/phases.

    Centroids are uniform in ``volume``; sub-paths are uniform in the 2 m cube
    around their centroid; gains are zero-mean Gaussian with variance ``h_p``;
    phases are iid uniform on [0, 2*pi).  The stream is read in that order,
    positions then phases cluster by cluster, and nothing is redrawn.
    """
    if n_clusters < 1 or n_subpaths < 1:
        raise ValueError("need at least one cluster and one sub-path")
    centroids = volume.sample(rng, n_clusters)
    gains = math.sqrt(h_p) * rng.standard_normal(n_clusters)
    # Each cluster's 3R position and R phase doubles in one read, scaled as
    # Generator.uniform scales them: low + (high - low) * u.
    u = rng.random((n_clusters, 4 * n_subpaths))
    offsets = u[:, : 3 * n_subpaths].reshape(n_clusters, n_subpaths, 3)
    positions = centroids[:, None, :] + (-SUBPATH_CUBE_SIDE / 2.0 + SUBPATH_CUBE_SIDE * offsets)
    phases = 2.0 * math.pi * u[:, 3 * n_subpaths :]
    return ClusterSet(positions=positions, phases=phases, gains=gains, h_p=h_p)


def _propagation_geometry(clusters: ClusterSet, tx_geom: ArrayGeometry, rx_geom: ArrayGeometry):
    """Per-sub-path center distances and propagation directions.

    Directions follow the wave: at the transmitter the ray leaves toward the
    scatterer, at the receiver it continues from the scatterer through the
    array.
    """
    p = clusters.positions.reshape(-1, 3)  # (LR, 3)
    v_tx = p - tx_geom.center
    v_rx = rx_geom.center - p
    d_tx = np.linalg.norm(v_tx, axis=1)
    d_rx = np.linalg.norm(v_rx, axis=1)
    if d_tx.min() < _MIN_SCATTER_CLEARANCE or d_rx.min() < _MIN_SCATTER_CLEARANCE:
        raise ValueError("sub-path coincides with an array center")
    dir_tx = (v_tx / d_tx[:, None]).T  # (3, LR)
    dir_rx = (v_rx / d_rx[:, None]).T
    return d_tx, d_rx, dir_tx, dir_rx


def _axis_phasors(geom: ArrayGeometry, directions: np.ndarray, phase_scale: float):
    """Per-axis phasors ``exp(j*phase_scale*y*u_y)`` (n_y, LR) and
    ``exp(j*phase_scale*z*u_z)`` (n_z, LR) for directions ``u`` (3, LR).

    ``y`` and ``z`` are the element offsets from the array center along each
    axis, so the phases are referenced to the center.  Elements are
    flattened y-major, so element ``(i, k)``'s phasor is the product of row
    ``i`` of the first and row ``k`` of the second.
    """
    (n_y, n_z), (d_y, d_z) = geom.counts, geom.spacing
    y = d_y * (np.arange(n_y) - (n_y - 1) / 2.0)
    z = d_z * (np.arange(n_z) - (n_z - 1) / 2.0)
    return (
        np.exp(1j * phase_scale * np.outer(y, directions[1])),
        np.exp(1j * phase_scale * np.outer(z, directions[2])),
    )


def lowrank_from_clusters(
    clusters: ClusterSet,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    wavelength: float,
) -> np.ndarray:
    """Clustered channel with planar wavefronts per array (far-field per path).

    Each sub-path contributes
    ``g_l * exp(j(psi + kappa*(d_tx + d_rx))) * a_rx a_tx^H`` where the
    steering vectors are evaluated at the center-to-scatterer directions and
    phase-referenced to the array centers; the sum is scaled by
    ``1/sqrt(L*R)``.

    Arrays lie in the y-z plane, so a centered steering phase
    ``kappa*(y*u_y + z*u_z)`` splits per axis and each steering vector is
    the Kronecker product ``a_y (x) a_z`` of per-axis phasors
    (:func:`_axis_phasors`): ``n_y + n_z`` exponentials per sub-path and
    array instead of ``N``.  A single-antenna receiver sits at its own
    center, so its steering entries are 1 and the link is the transmitter's
    ``conj(A_y) diag(c) conj(A_z)^T`` flattened y-major, one
    ``(n_y, LR) @ (LR, n_z)`` product.  Between two arrays each steering
    matrix is built by broadcasting its two factors, and one product over
    the sub-paths remains.  :func:`rissim.oracles.dense_lowrank` is the
    direct ``N``-exponential form it is checked against.
    """
    kappa = 2.0 * math.pi / wavelength
    d_tx, d_rx, dir_tx, dir_rx = _propagation_geometry(clusters, tx_geom, rx_geom)
    gains = np.repeat(clusters.gains, clusters.phases.shape[1])
    coeff = gains * np.exp(1j * (clusters.phases.reshape(-1) + kappa * (d_tx + d_rx)))
    scale = 1.0 / math.sqrt(len(coeff))
    # exp(-jx) is conj(exp(jx)): the transmitter's phasors come conjugated
    ty, tz = _axis_phasors(tx_geom, dir_tx, -kappa)
    if rx_geom.size == 1:
        return scale * ((ty * coeff) @ tz.T).reshape(1, -1)
    ry, rz = _axis_phasors(rx_geom, dir_rx, kappa)
    a_tx_conj = (ty[:, None, :] * tz[None]).reshape(tx_geom.size, -1)  # (N_tx, LR)
    a_rx = (ry[:, None, :] * (rz * coeff)[None]).reshape(rx_geom.size, -1)  # (N_rx, LR)
    return scale * (a_rx @ a_tx_conj.T)


def nearfield_from_clusters(
    clusters: ClusterSet,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    wavelength: float,
) -> np.ndarray:
    """Clustered channel with exact spherical phases per element pair.

    Entry (m, n) sums ``sqrt(h_p) * exp(j(kappa*d + psi))`` over sub-paths,
    where ``d = ||u_tx,n - p|| + ||p - u_rx,m||`` is the exact propagation
    distance through the scatterer.  Because the distance splits per end, the
    sum factors into two phase matrices and one product.
    """
    kappa = 2.0 * math.pi / wavelength
    p = clusters.positions.reshape(-1, 3)  # (LR, 3)
    d_tx = element_distances(tx_geom, p)
    d_rx = element_distances(rx_geom, p)
    if min(d_tx.min(), d_rx.min()) < _MIN_SCATTER_CLEARANCE:
        raise ValueError("sub-path coincides with an antenna element")
    amp = math.sqrt(clusters.h_p) * np.exp(1j * clusters.phases.reshape(-1))
    scale = 1.0 / math.sqrt(len(amp))
    return scale * ((np.exp(1j * kappa * d_rx) * amp) @ np.exp(1j * kappa * d_tx).T)
