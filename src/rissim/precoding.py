"""SINR-constrained transmit power minimization for the MISO downlink.

Solves ``min sum_k ||w_k||^2`` subject to per-UE SINR >= gamma_thr through
uplink-downlink duality: a fixed-point iteration on virtual uplink powers
with MMSE receive directions, followed by a downlink power allocation that
activates every SINR constraint with equality.  At the optimum of this
problem class all constraints are tight and the dual uplink and downlink
total powers coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dual powers above this multiple of the single-user baseline are treated as
# divergence (near-collinear channels for the requested SINR target).
_DIVERGENCE_FACTOR = 1e12


class InfeasibleError(RuntimeError):
    """The SINR targets cannot be met (or the dual fixed point diverged)."""


@dataclass
class PrecodingSolution:
    """Per-UE beamformers and the bookkeeping of the solved instance."""

    w: np.ndarray  # (N_t, K), column k serves UE k
    total_power: float
    achieved_sinr: np.ndarray  # (K,)
    dual_total_power: float
    iterations: int


def achieved_sinr(w: np.ndarray, h: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-UE SINR ``|h_k^H w_k|^2 / (sum_{j != k} |h_k^H w_j|^2 + noise)``."""
    gains = np.abs(np.conj(h).T @ w) ** 2  # (K, K): gains[k, j] = |h_k^H w_j|^2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    return signal / (interference + noise_power)


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
    h : (N_t, K) stacked effective channels.
    gamma_thr : SINR target (linear), > 0.
    noise_power : receiver noise power in watts, > 0.

    Raises
    ------
    InfeasibleError
        If the dual fixed point diverges or fails to converge within
        ``max_iters`` (e.g. zero or collinear channels for the target).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError("effective channel must be a 2-D matrix")
    n_t, k = h.shape
    if k < 1:
        raise ValueError("need at least one UE")
    if gamma_thr <= 0 or noise_power <= 0:
        raise ValueError("gamma_thr and noise_power must be positive")

    norms_sq = np.real(np.sum(np.conj(h) * h, axis=0))
    if np.any(norms_sq == 0.0):
        raise InfeasibleError("a UE has a zero effective channel")
    # Largest single-user dual power; used to scale the divergence guard.
    q_cap = _DIVERGENCE_FACTOR * gamma_thr * noise_power / norms_sq.min()

    q = np.zeros(k)
    eye = np.eye(n_t)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        cov = noise_power * eye + (h * q) @ np.conj(h).T
        q_new = np.empty(k)
        for i in range(k):
            cov_wo = cov - q[i] * np.outer(h[:, i], np.conj(h[:, i]))
            q_new[i] = gamma_thr / np.real(
                np.conj(h[:, i]) @ np.linalg.solve(cov_wo, h[:, i])
            )
        if not np.all(np.isfinite(q_new)) or q_new.max() > q_cap:
            raise InfeasibleError("dual uplink powers diverged")
        delta = np.max(np.abs(q_new - q) / np.maximum(q_new, 1e-300))
        q = q_new
        if delta < tol:
            converged = True
            break
    if not converged:
        raise InfeasibleError(f"dual fixed point did not converge in {max_iters} iterations")

    # Optimal beam directions are the MMSE (MVDR) directions of the dual
    # uplink problem at the fixed point.
    cov = noise_power * eye + (h * q) @ np.conj(h).T
    directions = np.linalg.solve(cov, h)
    directions /= np.linalg.norm(directions, axis=0)

    # Downlink powers from the linear system that makes every SINR equal to
    # the target: (1/gamma)*p_k*G[k,k] - sum_{j != k} p_j*G[k,j] = noise.
    gains = np.abs(np.conj(h).T @ directions) ** 2  # G[k, j] = |h_k^H u_j|^2
    m = -gains
    np.fill_diagonal(m, np.diag(gains) / gamma_thr)
    p = np.linalg.solve(m, np.full(k, noise_power))
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise InfeasibleError("downlink power allocation is not valid")

    w = directions * np.sqrt(p)
    return PrecodingSolution(
        w=w,
        total_power=float(p.sum()),
        achieved_sinr=achieved_sinr(w, h, noise_power),
        dual_total_power=float(q.sum()),
        iterations=iterations,
    )
