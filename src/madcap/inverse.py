"""Inverse maps of MAD channels: trace-preserving, generally not CP.

A single-decay factor with amplitude g < 1 has the pseudo-Kraus inverse
  Ktilde_0 = I - (1 - (1-g)^{-1/2}) |k><k|   (sign +)
  Ktilde_1 = sqrt(g/(1-g)) |n><k|             (sign -)
and the full MAD inverse composes the single-decay inverses of the channel's
single-decay decomposition, in reverse order, into one superoperator.
"""
import logging

import numpy as np

from .channel import TransitionMatrix, decompose_single_decays
from .errors import SingularInverseError
from .maps import LinearMap

CONDITIONING_WARN = 1e-6

logger = logging.getLogger(__name__)


def single_decay_inverse(k: int, n: int, amplitude: float, d: int) -> LinearMap:
    if amplitude >= 1.0:
        raise SingularInverseError(
            f"single-decay ({k}->{n}) amplitude {amplitude} >= 1 has no inverse")
    if amplitude <= 0.0:
        return LinearMap.identity(d)
    k0 = np.eye(d, dtype=complex)
    k0[k, k] = 1.0 / np.sqrt(1.0 - amplitude)
    k1 = np.zeros((d, d), dtype=complex)
    k1[n, k] = np.sqrt(amplitude / (1.0 - amplitude))
    return LinearMap.from_kraus([k0, k1], [1.0, -1.0])


def adc_inverse(gamma: float) -> LinearMap:
    """Inverse of the d=2 amplitude damping channel, 0 <= gamma < 1."""
    if gamma >= 1.0:
        raise SingularInverseError(f"ADC gamma={gamma} >= 1 has no inverse")
    return single_decay_inverse(1, 0, gamma, 2)


def mad_inverse(tm: TransitionMatrix) -> LinearMap:
    """Composition of single-decay inverses, undoing the channel's factors in
    reverse order. Requires all survival probabilities gamma_kk > 0."""
    d = tm.dim
    singular = [k for k in range(1, d) if tm.gamma[k, k] <= 0.0]
    if singular:
        raise SingularInverseError(
            f"inverse undefined: gamma_kk = 0 at level(s) {singular}")
    small = [k for k in range(1, d) if tm.gamma[k, k] < CONDITIONING_WARN]
    if small:
        logger.warning("mad_inverse poorly conditioned: gamma_kk < %g at "
                       "level(s) %s", CONDITIONING_WARN, small)
    factors = decompose_single_decays(tm)
    if not factors:
        return LinearMap.identity(d)
    inv = None
    for k, n, amp in reversed(factors):
        step = single_decay_inverse(k, n, amp, d)
        inv = step if inv is None else inv.then(step)
    return inv
