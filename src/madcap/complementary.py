"""Complementary channel of a MAD channel (input -> environment).

The environment basis is |0,0> followed by the pairs |i,j> with i < j, sorted
by j ascending then i ascending; its total size is 1 + d(d-1)/2. The flat
integer index of each label is part of the public contract.

complementary_superops is the closed-form kernel for a whole Gamma stack;
complementary_map, from the Stinespring isometry's Kraus operators, is its
independent reference.
"""
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .channel import TransitionMatrix, kraus_from_gamma
from .errors import DimensionMismatchError
from .linalg import check_density_matrix
from .maps import LinearMap


def env_dim(d: int) -> int:
    return 1 + d * (d - 1) // 2


def env_basis(d: int) -> List[Tuple[int, int]]:
    labels = [(0, 0)]
    for j in range(1, d):
        for i in range(j):
            labels.append((i, j))
    return labels


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
    if validate:
        rho = check_density_matrix(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    d = tm.dim
    if rho.shape != (d, d):
        raise DimensionMismatchError(f"state shape {rho.shape} != ({d},{d})")
    e = env_dim(d)
    return (complementary_superops(tm.gamma[None])[0]
            @ rho.reshape(-1)).reshape(e, e)


def complementary_map(tm: TransitionMatrix) -> LinearMap:
    """Kraus-backed complementary map, built from the Stinespring isometry.

    Each channel Kraus operator K_a occupies one environment slot; regrouping
    the isometry rows by the system index b gives complementary Kraus
    operators (Ktilde_b)_{a m} = (K_a)_{b m}.
    """
    d = tm.dim
    return LinearMap.from_kraus(
        stinespring_isometry(tm).reshape(d, env_dim(d), d))


def stinespring_isometry(tm: TransitionMatrix) -> np.ndarray:
    """V: H_d -> H_d ⊗ H_E with system index first; tr_E V rho V† = Phi(rho)."""
    d = tm.dim
    g = tm.gamma
    e = env_dim(d)
    labels = env_basis(d)
    slots = [0]
    for j in range(1, d):
        for i in range(j):
            if g[j, i] > 0.0:
                slots.append(labels.index((i, j)))
    v = np.zeros((d * e, d), dtype=complex)
    for slot, k in zip(slots, kraus_from_gamma(tm)):
        for m in range(d):
            v[m * e + slot, :] += k[m, :]
    return v
