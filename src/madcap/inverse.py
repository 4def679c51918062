"""Inverse maps of MAD channels: trace-preserving, generally not CP.

With every survival probability gamma_kk > 0 the channel is invertible in
closed form: its inverse scales each coherence rho_mn by
1/sqrt(gamma_mm gamma_nn) and maps the populations by Gamma^{-T}.
inverse_superops builds these superoperators for a whole Gamma stack; the
single-channel inverses are batches of one. adc_inverse is the single-decay
inverse of |1> -> |0> at d = 2, with its checks.
"""
import logging

import numpy as np

from .channel import TransitionMatrix, single_decay_matrix
from .errors import SingularInverseError
from .maps import LinearMap

CONDITIONING_WARN = 1e-6

logger = logging.getLogger(__name__)


def inverse_superops(gammas: np.ndarray) -> np.ndarray:
    """Superoperators (B, d², d²) of the inverse maps of a Gamma stack
    (B, d, d) with every gamma_kk > 0, on row-major vectorized inputs."""
    g = np.asarray(gammas, dtype=float)
    b, d, _ = g.shape
    surv = np.diagonal(g, axis1=1, axis2=2)
    coherence = 1.0 / np.sqrt(surv[:, :, None] * surv[:, None, :])
    idx = np.arange(d * d)
    pop = idx[::d + 1]
    inv = np.zeros((b, d * d, d * d))
    inv[:, idx, idx] = coherence.reshape(b, d * d)
    inv[:, pop[:, None], pop] = np.linalg.inv(g).transpose(0, 2, 1)
    return inv


def single_decay_inverse(k: int, n: int, amplitude: float, d: int) -> LinearMap:
    """Inverse of the channel whose only decay is |k> -> |n> with the given
    amplitude < 1."""
    if amplitude >= 1.0:
        raise SingularInverseError(
            f"single-decay ({k}->{n}) amplitude {amplitude} >= 1 has no inverse")
    g = single_decay_matrix(d, k, n, amplitude).gamma
    return LinearMap(inverse_superops(g[None])[0])


def adc_inverse(gamma: float) -> LinearMap:
    """Inverse of the d=2 amplitude damping channel, 0 <= gamma < 1."""
    return single_decay_inverse(1, 0, gamma, 2)


def mad_inverse(tm: TransitionMatrix) -> LinearMap:
    """Inverse of the channel, as a batch of one of inverse_superops.
    Requires all survival probabilities gamma_kk > 0."""
    d = tm.dim
    singular = [k for k in range(1, d) if tm.gamma[k, k] <= 0.0]
    if singular:
        raise SingularInverseError(
            f"inverse undefined: gamma_kk = 0 at level(s) {singular}")
    small = [k for k in range(1, d) if tm.gamma[k, k] < CONDITIONING_WARN]
    if small:
        logger.warning("mad_inverse poorly conditioned: gamma_kk < %g at "
                       "level(s) %s", CONDITIONING_WARN, small)
    return LinearMap(inverse_superops(tm.gamma[None])[0])
