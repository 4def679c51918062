"""Complementary channel of a MAD channel (input -> environment).

The environment basis is |0,0> followed by the pairs |i,j> with i < j, sorted
by j ascending then i ascending; its total size is 1 + d(d-1)/2. The flat
integer index of each label is part of the public contract.
"""
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


def complementary_apply(tm: TransitionMatrix, rho: np.ndarray,
                        validate: bool = True) -> np.ndarray:
    """Closed-form environment output.

    <0,0|.|0,0> = sum_j gamma_jj rho_jj
    <0,0|.|i,j> = sqrt(gamma_ii gamma_ji) rho_ij
    <i,j|.|m,n> = delta_im sqrt(gamma_ji gamma_ni) rho_jn
    """
    if validate:
        rho = check_density_matrix(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    d = tm.dim
    if rho.shape != (d, d):
        raise DimensionMismatchError(f"state shape {rho.shape} != ({d},{d})")
    g = tm.gamma
    labels = env_basis(d)
    e = len(labels)
    out = np.zeros((e, e), dtype=complex)
    out[0, 0] = sum(g[j, j] * rho[j, j] for j in range(d))
    for a in range(1, e):
        i, j = labels[a]
        out[0, a] = np.sqrt(g[i, i] * g[j, i]) * rho[i, j]
        out[a, 0] = np.conj(out[0, a])
        for b in range(1, e):
            m, n = labels[b]
            if i == m:
                out[a, b] = np.sqrt(g[j, i] * g[n, i]) * rho[j, n]
    return out


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
