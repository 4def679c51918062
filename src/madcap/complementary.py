"""Complementary channel of a MAD channel (input -> environment).

The environment basis (env_basis, env_dim: the slot order of the channel's
Kraus stack channel.kraus_slots, re-exported) is |0,0> followed by the pairs
|i,j> with i < j, sorted by j ascending then i ascending; its size is
1 + d(d-1)/2, and the flat index of each label is part of the public contract.

complementary_superops is the closed-form kernel for a whole Gamma stack;
complementary_map, from the Stinespring isometry (the Kraus stack with the
system row moved in front), is its independent reference.
"""
from functools import lru_cache

import numpy as np

from .channel import TransitionMatrix, _state, env_basis, env_dim, kraus_slots
from .maps import LinearMap


def env_index(d: int, i: int, j: int) -> int:
    return env_basis(d).index((i, j))


@lru_cache(maxsize=None)
def _complementary_tables(d: int) -> tuple:
    """Positions of the nonzero complementary-superoperator entries.

    Channel Kraus operator K_s (environment slot s) has one entry
    sqrt(Gamma.flat[u]) at (c, p); the complementary map sends rho_pq to
    environment entry (s, t) with weight sqrt(gamma_u gamma_v) whenever K_s
    and K_t share the output row c. Returns (rows, cols, u, v) of the
    e² × d² superoperator; no position repeats.
    """
    e = env_dim(d)
    entries = [(0, k, k, k * d + k) for k in range(d)]
    entries += [(s, i, j, j * d + i)
                for s, (i, j) in enumerate(env_basis(d)) if s > 0]
    tables = np.array([(s * e + t, p * d + q, u, v)
                       for s, c, p, u in entries
                       for t, c2, q, v in entries if c == c2]).T
    tables.flags.writeable = False
    return tuple(tables)


def complementary_superops(gammas: np.ndarray) -> np.ndarray:
    """Superoperators (B, e², d²) of the complementary maps of a Gamma stack
    (B, d, d), scattered from per-d index tables:

    <0,0|.|0,0> = sum_j gamma_jj rho_jj
    <0,0|.|i,j> = sqrt(gamma_ii gamma_ji) rho_ij
    <i,j|.|m,n> = delta_im sqrt(gamma_ji gamma_ni) rho_jn
    """
    g = np.asarray(gammas, dtype=float)
    b, d, _ = g.shape
    e = env_dim(d)
    rows, cols, u, v = _complementary_tables(d)
    flat = g.reshape(b, d * d)
    comp = np.zeros((b, e * e, d * d))
    comp[:, rows, cols] = np.sqrt(flat[:, u] * flat[:, v])
    return comp


def complementary_apply(tm: TransitionMatrix, rho: np.ndarray,
                        validate: bool = True) -> np.ndarray:
    """Environment output, as a batch of one of complementary_superops."""
    rho = _state(tm, rho, validate)
    e = env_dim(tm.dim)
    return (complementary_superops(tm.gamma[None])[0]
            @ rho.reshape(-1)).reshape(e, e)


def complementary_map(tm: TransitionMatrix) -> LinearMap:
    """Kraus-backed complementary map: regrouping the Stinespring isometry's
    rows by the system index b gives the complementary Kraus operators
    (Ktilde_b)_{a m} = (K_a)_{b m}, one per system level."""
    d = tm.dim
    return LinearMap.from_kraus(
        stinespring_isometry(tm).reshape(d, env_dim(d), d))


def stinespring_isometry(tm: TransitionMatrix) -> np.ndarray:
    """V: H_d -> H_d ⊗ H_E with system index first; tr_E V rho V† = Phi(rho).
    The channel's Kraus slots with the system row moved in front."""
    d = tm.dim
    return (kraus_slots(tm.gamma[None])[0].transpose(1, 0, 2)
            .reshape(d * env_dim(d), d).astype(complex))
