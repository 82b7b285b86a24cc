"""SINR-constrained transmit power minimization for the MISO downlink.

Solves ``min sum_k ||w_k||^2`` subject to per-UE SINR >= gamma_thr through
uplink-downlink duality: a fixed-point iteration on virtual uplink powers
with MMSE receive directions, followed by a downlink power allocation that
activates every SINR constraint with equality.  At the optimum of this
problem class all constraints are tight and the dual uplink and downlink
total powers coincide.

Every step depends on the (N_t, K) channel ``H`` only through its K x K
Gram matrix ``G = H^H H``, so the solver works on K x K matrices and
touches ``H`` again only to form the beamformers.  The iteration starts
from zero uplink powers, where the uplink covariance is ``noise * I``; its
first step, the single-user ``q_k = gamma * noise / ||h_k||^2``, runs
through the same loop body as every later step, with ``I / noise`` in place
of the K x K inverse.  Each step's divergence guards and relative change
read the K dual powers as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Dual powers above this multiple of the single-user baseline are treated as
# divergence (near-collinear channels for the requested SINR target).
_DIVERGENCE_FACTOR = 1e12


class InfeasibleError(RuntimeError):
    """The SINR targets cannot be met (or the dual fixed point diverged).

    ``kind`` names where the solve stopped: ``zero_channel`` (a UE has an
    all-zero channel), ``diverged`` (the dual uplink powers left the
    divergence guard, or their uplink covariance became singular),
    ``not_converged`` (``max_iters`` ran out) or ``invalid_allocation`` (the
    downlink power system has no finite non-negative solution, or is
    singular in floating point).
    """

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind


@dataclass
class PrecodingSolution:
    """Per-UE beamformers and the bookkeeping of the solved instance.

    The SINRs the beamformers reach are not kept;
    :func:`rissim.oracles.achieved_sinr` computes them from ``w``, the
    channel and the noise power.
    """

    w: np.ndarray  # (N_t, K), column k serves UE k
    total_power: float
    dual_total_power: float
    iterations: int  # fixed-point steps, the single-user first one included


def min_power_precoder(
    h: np.ndarray,
    gamma_thr: float,
    noise_power: float,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> PrecodingSolution:
    """Minimum-power beamforming meeting a common SINR target at every UE.

    Parameters
    ----------
    h : (N_t, K) stacked effective channels, with a finite Gram matrix ``H^H H``.
    gamma_thr : SINR target (linear), finite and > 0.
    noise_power : receiver noise power in watts, finite and > 0.

    Raises
    ------
    ValueError
        For a malformed ``h``, a non-finite ``gamma_thr``, ``noise_power`` or
        ``H^H H`` (a non-finite ``h`` always gives one; entries above about
        1e153 overflow it), or a non-positive ``gamma_thr`` or ``noise_power``.
    InfeasibleError
        If a UE has a zero channel, or the dual fixed point diverges or fails
        to converge within ``max_iters`` (e.g. collinear channels for the
        target), or the downlink allocation is not valid; ``kind`` says which.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("effective channel must be a 2-D matrix")
    k = h.shape[1]
    if k < 1:
        raise ValueError("need at least one UE")
    if not (0.0 < gamma_thr < math.inf and 0.0 < noise_power < math.inf):
        raise ValueError("gamma_thr and noise_power must be finite and positive")
    gram = np.conj(h).T @ h
    # A non-finite entry of h always reaches G; a finite h can still overflow it.
    if not np.isfinite(gram).all():
        raise ValueError("effective channel has a non-finite entry or its Gram matrix overflows")
    min_norm_sq = float(gram.diagonal().real.min())
    if min_norm_sq == 0.0:
        raise InfeasibleError("a UE has a zero effective channel", "zero_channel")
    # Largest single-user dual power; used to scale the divergence guard.
    q_cap = _DIVERGENCE_FACTOR * gamma_thr * noise_power / min_norm_sq

    noise_eye = noise_power * np.eye(k)
    gram_t = gram.T
    target = gamma_thr * noise_power
    # M^-1 at q = 0, where M = noise*I below: the first step needs no inverse.
    q_prev = [0.0] * k
    mi = np.eye(k) / noise_power
    for iterations in range(1, max_iters + 1):
        if iterations > 1:
            # a_i = h_i^H A^-1 h_i for the uplink covariance A = noise*I + H diag(q) H^H:
            # by push-through, H^H A^-1 H = M^-1 G with M = noise*I + G diag(q).
            try:
                mi = np.linalg.inv(noise_eye + gram * q)
            except np.linalg.LinAlgError:
                raise InfeasibleError("uplink covariance became singular", "diverged") from None
        a = np.add.reduce(mi * gram_t, axis=1).real
        # Sherman-Morrison takes UE i's own term out of A:
        # h_i^H (A - q_i h_i h_i^H)^-1 h_i = a_i / (1 - q_i a_i), and
        # 1 - q_i a_i = noise * (M^-1)_ii because M^-1 G diag(q) = I - noise*M^-1,
        # which keeps the leave-one-out term free of cancellation.
        q = target * mi.diagonal().real / a
        # The K powers are few, so the guards and the relative change read
        # them as Python floats: NaN, +-inf and a power above the cap diverge,
        # and a negative power passes the guards.
        q_now = q.tolist()
        if not all(map(math.isfinite, q_now)) or max(q_now) > q_cap:
            raise InfeasibleError("dual uplink powers diverged", "diverged")
        delta = max([abs(x - y) / max(x, 1e-300) for x, y in zip(q_now, q_prev)])
        q_prev = q_now
        if delta < tol:
            break
    else:
        raise InfeasibleError(
            f"dual fixed point did not converge in {max_iters} iterations", "not_converged"
        )

    # Optimal beam directions are the MMSE (MVDR) directions of the dual
    # uplink problem at the fixed point: A^-1 H = H X with
    # X = (noise*I + diag(q) G)^-1, so u_j = H x_j / ||H x_j|| and
    # ||H x_j||^2 = (X^H G X)_jj.
    x = np.linalg.inv(noise_eye + q[:, None] * gram)
    gx = gram @ x
    norms = np.sqrt(np.sum(np.conj(x) * gx, axis=0).real)
    gx /= norms

    # Downlink powers from the linear system that makes every SINR equal to
    # the target: (1/gamma)*p_k*g[k,k] - sum_{j != k} p_j*g[k,j] = noise,
    # with g[k, j] = |h_k^H u_j|^2 = |(G X)_kj|^2 / ||H x_j||^2.
    gains = np.abs(gx) ** 2
    m = -gains
    np.fill_diagonal(m, np.diag(gains) / gamma_thr)
    try:
        p = np.linalg.solve(m, np.full(k, noise_power))
    except np.linalg.LinAlgError:  # singular in floating point, near overflow of G
        p = np.full(k, math.nan)
    if not (np.isfinite(p).all() and p.min() >= 0.0):
        raise InfeasibleError("downlink power allocation is not valid", "invalid_allocation")

    w = h @ (x * (np.sqrt(p) / norms))
    return PrecodingSolution(
        w=w, total_power=float(p.sum()), dual_total_power=float(q.sum()), iterations=iterations
    )
