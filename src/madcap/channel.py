"""Multi-level amplitude damping (MAD) channels.

A MAD channel on d levels is identified by a lower-triangular row-stochastic
transition matrix Gamma whose entry (j, i) is the probability gamma_ji that
level |j> decays onto |i> (i < j). The diagonal gamma_jj = 1 - sum_{i<j}
gamma_ji is the survival probability of level j.

The Kraus operators of a Gamma stack form one stack, a slot per environment
basis state (kraus_slots); the slots of absent decays are zero, which changes
no bit of a superoperator, since each of its entries gets at most one nonzero
term. channel_superops is the batch kernel; channel_map, kraus_from_gamma and
the Stinespring isometry are batches of one.
"""
import json
import math
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (DegenerateDecompositionError, DimensionMismatchError,
                     IndexOutOfRangeError, InvalidStateError)
from .linalg import check_density_matrix
from .maps import LinearMap

ROW_SUM_TOL = 1e-12
# The largest channel: a d-level channel's two-extension witness is
# d³ × d³ (134 MB of floats at d = 16), and no larger d is analyzed.
MAX_DIM = 16


class TransitionMatrix:
    """Lower-triangular row-stochastic matrix of decay probabilities.

    Rows are indexed by the source level j, columns by the target level i.
    The diagonal is recomputed from the off-diagonal decays on construction,
    so row-stochasticity is exact by construction. 1 <= dim <= MAX_DIM.
    """

    def __init__(self, dim: int, decays: Dict[Tuple[int, int], float] | None = None):
        if not 1 <= dim <= MAX_DIM:
            raise DimensionMismatchError(f"dim must be 1 to {MAX_DIM}, got {dim}")
        self.dim = dim
        # Python floats, row-major, turned into an array once: at d <= 4 a
        # numpy call per row or entry costs more than the arithmetic
        g = [0.0] * (dim * dim)
        for (j, i), p in (decays or {}).items():
            if not (0 <= i < j < dim):
                raise IndexOutOfRangeError(
                    f"decay ({j}->{i}) needs 0 <= target < source < dim={dim}")
            if not -ROW_SUM_TOL <= p <= 1 + ROW_SUM_TOL:  # NaN too
                raise InvalidStateError(f"decay probability {p} outside [0, 1]")
            g[j * dim + i] = 0.0 if p < 0.0 else 1.0 if p > 1.0 else float(p)
        for j in range(dim):
            row = g[j * dim:j * dim + j]
            # the rounding of np.sum over the row: a left fold below 8 terms
            s = reduce(add, row, 0.0) if j < 8 else float(np.sum(row))
            if s > 1 + ROW_SUM_TOL:
                raise InvalidStateError(f"row {j} decay probabilities sum to {s} > 1")
            g[j * (dim + 1)] = max(1.0 - s, 0.0)
        self.gamma = np.array(g).reshape(dim, dim)
        self.gamma.flags.writeable = False

    @classmethod
    def from_matrix(cls, g: np.ndarray) -> "TransitionMatrix":
        """Build from a full matrix, validating the lower-triangular structure."""
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"expected square matrix, got {g.shape}")
        d = g.shape[0]
        if not np.isfinite(g).all():
            raise InvalidStateError("transition matrix has non-finite entries")
        if np.max(np.abs(np.triu(g, 1))) > ROW_SUM_TOL:
            raise InvalidStateError("transition matrix has entries above the diagonal")
        rows = g.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise InvalidStateError("transition matrix rows must sum to 1")
        decays = {(j, i): g[j, i] for j in range(d) for i in range(j) if g[j, i] != 0.0}
        return cls(d, decays)

    @property
    def decays(self) -> Dict[Tuple[int, int], float]:
        d = self.dim
        return {(j, i): float(self.gamma[j, i])
                for j in range(d) for i in range(j) if self.gamma[j, i] > 0.0}

    def with_decay(self, j: int, i: int, p: float) -> "TransitionMatrix":
        """Copy with the (j, i) decay probability replaced by ``p``, checked
        as the constructor checks it."""
        decays = {k: v for k, v in self.decays.items() if k != (j, i)}
        if p != 0.0:  # NaN too
            decays[(j, i)] = p
        return TransitionMatrix(self.dim, decays)

    def __repr__(self) -> str:
        return f"TransitionMatrix(dim={self.dim}, decays={self.decays})"

    def to_json(self) -> str:
        payload = {"dim": self.dim,
                   "decays": [{"from": j, "to": i, "p": p}
                              for (j, i), p in sorted(self.decays.items())]}
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TransitionMatrix":
        payload = json.loads(text)
        try:
            dim = _json_number(payload["dim"], True)
            entries = [((_json_number(e["from"], True),
                         _json_number(e["to"], True)), _json_number(e["p"]))
                       for e in payload.get("decays", [])]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidStateError(f"malformed channel JSON: {exc}") from exc
        decays = dict(entries)
        if len(decays) < len(entries):
            raise InvalidStateError("malformed channel JSON: a decay is "
                                    "listed twice")
        return cls(dim, decays)


def _json_number(x, whole: bool = False):
    """x read as a JSON number: a float, or an int if ``whole``. TypeError
    unless x is an int or a float, not a bool; ValueError if it is not
    finite or, where ``whole``, fractional; OverflowError for an int beyond
    the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    if not math.isfinite(x):
        raise ValueError(f"{x!r} is not finite")
    if whole and x != int(x):
        raise ValueError(f"{x!r} is not a whole number")
    return int(x) if whole else float(x)


def random_transition_matrix(d: int, rng: np.random.Generator) -> TransitionMatrix:
    """Each row's weights (gamma_j0, ..., gamma_jj) from a flat Dirichlet."""
    decays = {}
    for j in range(1, d):
        w = rng.dirichlet(np.ones(j + 1))
        for i in range(j):
            decays[(j, i)] = w[i]
    return TransitionMatrix(d, decays)


def env_dim(d: int) -> int:
    return 1 + d * (d - 1) // 2


def env_basis(d: int) -> List[Tuple[int, int]]:
    """Environment slot labels, the slot order of kraus_slots: |0,0>, then
    the pairs |i,j>, i < j, sorted by j ascending, then i ascending."""
    return [(0, 0)] + [(i, j) for j in range(1, d) for i in range(j)]


def kraus_slots(gammas: np.ndarray) -> np.ndarray:
    """Kraus operators (B, e, d, d), e = env_dim(d), of a Gamma stack
    (B, d, d), one per environment slot: slot 0 is diag(sqrt gamma_kk) and
    the slot of the pair (i, j) holds sqrt(gamma_ji) at (i, j)."""
    g = np.asarray(gammas, dtype=float)
    b, d, _ = g.shape
    slot, row, col = np.array([(0, k, k) for k in range(d)] + [
        (s, i, j) for s, (i, j) in enumerate(env_basis(d)) if s]).T
    ops = np.zeros((b, env_dim(d), d, d))
    ops[:, slot, row, col] = np.sqrt(g[:, col, row])
    return ops


def channel_superops(gammas: np.ndarray) -> np.ndarray:
    """Superoperators (B, d², d²) of the MAD channels of a Gamma stack
    (B, d, d): sum_s K_s ⊗ K_s over the Kraus slots (kraus_slots), real."""
    ops = kraus_slots(gammas)
    b, _, d, _ = ops.shape
    return np.einsum("bspm,bsqn->bpqmn", ops, ops).reshape(b, d * d, d * d)


def kraus_from_gamma(tm: TransitionMatrix) -> List[np.ndarray]:
    """Minimal Kraus set: the nonzero Kraus slots, K_00 first and then one
    operator per strictly positive decay, in slot order."""
    ops = kraus_slots(tm.gamma[None])[0].astype(complex)
    return list(ops[ops.any(axis=(1, 2))])


def channel_map(tm: TransitionMatrix) -> LinearMap:
    """The channel, as a batch of one of channel_superops."""
    return LinearMap(channel_superops(tm.gamma[None])[0])


def _state(tm: TransitionMatrix, rho, validate: bool) -> np.ndarray:
    """rho as a complex d x d array, a checked state if ``validate``."""
    rho = check_density_matrix(rho) if validate else np.asarray(rho, complex)
    if rho.shape != (tm.dim, tm.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match dim {tm.dim}")
    return rho


def apply(tm: TransitionMatrix, rho: np.ndarray) -> np.ndarray:
    """Closed-form channel action on a checked state.

    Diagonal: Phi(rho)_ii = sum_j gamma_ji rho_jj. Off-diagonal entries are
    damped by sqrt(gamma_mm gamma_nn).
    """
    rho = _state(tm, rho, True)
    g = tm.gamma
    surv = np.sqrt(np.diag(g))
    out = rho * np.outer(surv, surv)
    np.fill_diagonal(out, g.T @ np.diag(rho))
    return out


def compose(first: TransitionMatrix, second: TransitionMatrix) -> TransitionMatrix:
    """Transition matrix of applying ``first`` then ``second``: the product
    gamma_first @ gamma_second."""
    if first.dim != second.dim:
        raise DimensionMismatchError("cannot compose channels of different dims")
    return TransitionMatrix.from_matrix(first.gamma @ second.gamma)


def decompose_by_level(tm: TransitionMatrix) -> List[TransitionMatrix]:
    """Factor Gamma = Gamma_1 Gamma_2 ... Gamma_{d-1}, where Gamma_k only lets
    level k decay; channel application order is Gamma_1 first."""
    return [TransitionMatrix(tm.dim, {(j, i): p for (j, i), p
                                      in tm.decays.items() if j == k})
            for k in range(1, tm.dim)]


def single_decay_matrix(d: int, k: int, n: int, p: float) -> TransitionMatrix:
    """The channel whose only decay is |k> -> |n> with probability p, checked
    as the constructor checks it (p = 0 is the identity)."""
    return TransitionMatrix(d, {(k, n): p} if p != 0.0 else {})  # NaN too


def decompose_single_decays(tm: TransitionMatrix) -> List[Tuple[int, int, float]]:
    """Ordered single-decay factors (k, n, modified amplitude).

    The list is in application order: k ascending, and within each level k the
    decays onto n = k-1, k-2, ..., 0 in turn. The modified amplitude for the
    (k, n) factor is gamma_kn / (gamma_kk + sum_{i<=n} gamma_ki). Factors with
    gamma_kn = 0 are omitted. Recomposing the factors in list order (matrix
    product) reproduces Gamma.
    """
    d = tm.dim
    g = tm.gamma
    factors = []
    for k in range(1, d):
        for n in range(k - 1, -1, -1):
            if g[k, n] <= 0.0:
                continue
            den = g[k, k] + g[k, :n + 1].sum()
            if den <= 0.0:
                raise DegenerateDecompositionError(
                    f"single-decay factor ({k}->{n}) has zero denominator")
            factors.append((k, n, float(g[k, n] / den)))
    return factors


def recompose_single_decays(d: int, factors: Sequence[Tuple[int, int, float]]) -> TransitionMatrix:
    g = np.eye(d)
    for k, n, p in factors:
        g = g @ single_decay_matrix(d, k, n, p).gamma
    return TransitionMatrix.from_matrix(g)


def isolate_decay(tm_k: TransitionMatrix, k: int, n: int) -> Tuple[TransitionMatrix, TransitionMatrix]:
    """Split a single-level factor so the decay onto |n> happens last.

    Returns (T, G) with T @ G = Gamma_k, where G carries only the (k, n) decay
    at the boosted rate gamma_kn / (1 - sum_{i != n, i < k} gamma_ki) and T
    carries the remaining decays of level k.
    """
    d = tm_k.dim
    g = tm_k.gamma
    for j in range(1, d):
        if j != k and g[j, :j].sum() > 0.0:
            raise DegenerateDecompositionError(
                "isolate_decay expects a single-level transition matrix")
    if not (0 <= n < k < d):
        raise IndexOutOfRangeError(f"need 0 <= n < k < d, got k={k}, n={n}")
    others = {i: float(g[k, i]) for i in range(k) if i != n and g[k, i] > 0.0}
    den = 1.0 - sum(others.values())
    if den <= 0.0:
        raise DegenerateDecompositionError("isolated-decay denominator <= 0")
    boosted = float(g[k, n]) / den
    t = TransitionMatrix(d, {(k, i): p for i, p in others.items()})
    iso = single_decay_matrix(d, k, n, boosted)
    return t, iso


def swap_unitary(d: int, m: int, n: int) -> np.ndarray:
    if not (0 <= m < d and 0 <= n < d):
        raise IndexOutOfRangeError(f"swap levels ({m},{n}) out of range for d={d}")
    u = np.eye(d)
    u[[m, n]] = u[[n, m]]
    return u


def conjugate_by_swap(tm: TransitionMatrix, m: int, n: int) -> LinearMap:
    """The channel rho -> U Phi(U rho U) U with U the (m, n) level swap."""
    u = swap_unitary(tm.dim, m, n)
    return LinearMap.from_kraus(u @ kraus_slots(tm.gamma[None])[0] @ u)


def permute_levels(tm: TransitionMatrix, perm: Sequence[int]) -> TransitionMatrix:
    """Relabel levels by j -> perm[j]; only valid if ``perm`` is a
    permutation of range(d) and all decays stay downward."""
    d = tm.dim
    if sorted(perm) != list(range(d)):
        raise IndexOutOfRangeError(
            f"{list(perm)} is not a permutation of the levels 0..{d - 1}")
    decays = {}
    for (j, i), p in tm.decays.items():
        jj, ii = perm[j], perm[i]
        if ii >= jj:
            raise InvalidStateError(
                f"permutation maps decay {j}->{i} upward ({jj}->{ii})")
        decays[(jj, ii)] = p
    return TransitionMatrix(d, decays)


def has_ladder_structure(tm: TransitionMatrix) -> bool:
    """True iff some intermediate level both receives and re-emits decay, i.e.
    there are levels a > b > c with gamma_ab > 0 and gamma_bc > 0.

    Convention note: gamma_ji is the decay from |j> onto |i> (row = source);
    diagrams that label arrows the other way around disagree with this, the
    predicate follows the row-source convention.
    """
    g = tm.gamma
    d = tm.dim
    for b in range(1, d - 1):
        receives = any(g[a, b] > 0.0 for a in range(b + 1, d))
        emits = any(g[b, c] > 0.0 for c in range(b))
        if receives and emits:
            return True
    return False
