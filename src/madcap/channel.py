"""Multi-level amplitude damping (MAD) channels.

A MAD channel on d levels is identified by a lower-triangular row-stochastic
transition matrix Gamma whose entry (j, i) is the probability gamma_ji that
level |j> decays onto |i> (i < j). The diagonal gamma_jj = 1 - sum_{i<j}
gamma_ji is the survival probability of level j.
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


class TransitionMatrix:
    """Lower-triangular row-stochastic matrix of decay probabilities.

    Rows are indexed by the source level j, columns by the target level i.
    The diagonal is recomputed from the off-diagonal decays on construction,
    so row-stochasticity is exact by construction.
    """

    def __init__(self, dim: int, decays: Dict[Tuple[int, int], float] | None = None):
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
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
        """Copy with the (j, i) decay probability replaced by ``p``."""
        decays = {(a, b): float(self.gamma[a, b])
                  for a in range(self.dim) for b in range(a) if (a, b) != (j, i)}
        if p > 0.0:
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


def kraus_from_gamma(tm: TransitionMatrix) -> List[np.ndarray]:
    """Minimal Kraus set: K_00 plus one operator per strictly positive decay."""
    d = tm.dim
    g = tm.gamma
    ops = [np.diag(np.sqrt(np.diag(g))).astype(complex)]
    for j in range(1, d):
        for i in range(j):
            if g[j, i] > 0.0:
                k = np.zeros((d, d), dtype=complex)
                k[i, j] = np.sqrt(g[j, i])
                ops.append(k)
    return ops


def channel_map(tm: TransitionMatrix) -> LinearMap:
    return LinearMap.from_kraus(kraus_from_gamma(tm))


def apply(tm: TransitionMatrix, rho: np.ndarray, validate: bool = True) -> np.ndarray:
    """Closed-form channel action.

    Diagonal: Phi(rho)_ii = sum_j gamma_ji rho_jj. Off-diagonal entries are
    damped by sqrt(gamma_mm gamma_nn).
    """
    if validate:
        rho = check_density_matrix(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    if rho.shape != (tm.dim, tm.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match dim {tm.dim}")
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
    d = tm.dim
    out = []
    for k in range(1, d):
        probs = {i: float(tm.gamma[k, i]) for i in range(k) if tm.gamma[k, i] > 0.0}
        out.append(TransitionMatrix(d, {(k, i): p for i, p in probs.items()}))
    return out


def single_decay_matrix(d: int, k: int, n: int, p: float) -> TransitionMatrix:
    return TransitionMatrix(d, {(k, n): p} if p > 0.0 else {})


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
    u = swap_unitary(tm.dim, m, n).astype(complex)
    return LinearMap.from_kraus([u @ k @ u for k in kraus_from_gamma(tm)])


def permute_levels(tm: TransitionMatrix, perm: Sequence[int]) -> TransitionMatrix:
    """Relabel levels by j -> perm[j]; only valid if all decays stay downward."""
    d = tm.dim
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
