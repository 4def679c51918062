"""Structural classification: degradability, antidegradability, monotonicity
certificates, and the 3-level connecting channel.

Degradability is decided by the smallest eigenvalue of the Choi matrix of the
degrading map (complementary after inverse). Its superoperator is the product
of the closed-form kernels complementary.complementary_superops and
inverse.inverse_superops, for a whole stack of transition matrices at once.
A single channel is a batch of one. The degrading Choi has the same sparsity
for every Gamma of a given d, so a per-d sector plan, derived from the two
kernels' nonzero patterns, reads its decoupled diagonal entries and its
sector blocks (one block of each size 2..d) straight out of the
superoperator; the smallest eigenvalue is the least diagonal entry or block
eigenvalue, with one stacked eigen-solve per block size. degrading_chois
keeps the dense Choi. Every Choi test here, the border search's probe
degradable_margins included, decides PSD by linalg.psd_rule; a lambda_min
that misses it by at most BOUNDARY_BAND·scale is labelled "boundary", which
is reported and never counted as PSD. degradable_margins also returns each
channel's signed distance from the rule's threshold, which the border search
uses only to guess where its verdicts flip.
Antidegradability has the exact analytic criterion gamma_j0 >= gamma_jj for
every level j >= 1; it is witnessed constructively by a tripartite
two-extension of the Choi state, and refuted by a strictly positive capacity
lower bound. The two-extension and the Choi state are scattered for a whole
Gamma stack in one pass from a per-dimension plan, which adds one value-table
column at each nonzero entry.
A monotonicity certificate tests both connecting maps of a single-decay
increase, left and right, in one stacked PSD test.
"""
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channel import TransitionMatrix, channel_map
from .complementary import (_complementary_tables, complementary_superops,
                            env_dim)
from .errors import (ConditionViolatedError, NotComparableError,
                     SingularInverseError)
from .inverse import inverse_superops, mad_inverse
from .linalg import EIG_FLOOR, _sector_blocks, psd_rule
from .maps import LinearMap

BOUNDARY_BAND = 1e-7  # relative |min eig| band labelled "boundary"


@dataclass
class ClassificationResult:
    degradable: str  # "yes" | "no" | "boundary" | "unknown"
    antidegradable: bool
    min_choi_eig: Optional[float]


def _degrading_superops(gammas: np.ndarray) -> np.ndarray:
    """Superoperators (B, e², d²) of the degrading maps of a Gamma stack
    (B, d, d) with every gamma_kk > 0: complementary after inverse."""
    return complementary_superops(gammas) @ inverse_superops(gammas)


def degrading_chois(gammas: np.ndarray) -> np.ndarray:
    """Normalized Choi matrices (B, d·e, d·e), e = 1 + d(d-1)/2, of the
    degrading maps of a Gamma stack (B, d, d) with every gamma_kk > 0.

    Same subsystem order as LinearMap.choi: input copy first."""
    b, d = np.shape(gammas)[:2]
    e = env_dim(d)
    c = _degrading_superops(gammas).reshape(b, e, e, d, d)
    return c.transpose(0, 3, 1, 4, 2).reshape(b, d * e, d * e) / d


def degrading_map(tm: TransitionMatrix) -> LinearMap:
    """Lambda = Phi_complementary ∘ Phi^{-1}: maps channel outputs to the
    environment output. CP iff the channel is degradable. Built from the
    closed-form superoperator; needs every gamma_kk > 0."""
    singular = [k for k in range(1, tm.dim) if tm.gamma[k, k] <= 0.0]
    if singular:
        raise SingularInverseError(
            f"inverse undefined: gamma_kk = 0 at level(s) {singular}")
    return LinearMap(_degrading_superops(tm.gamma[None])[0])


def _verdicts(lo: np.ndarray, scale: np.ndarray, tol: float) -> np.ndarray:
    """PSD verdicts from minimum eigenvalues and scales: "yes" by psd_rule,
    else "boundary" (a label, never PSD) down to -BOUNDARY_BAND·scale, else
    "no"."""
    return np.where(psd_rule(lo, scale, tol), "yes",
                    np.where(lo >= -BOUNDARY_BAND * scale, "boundary", "no"))


def _psd_status(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """PSD verdicts (_verdicts) for a stack (..., n, n), from one stacked
    dense eigen-solve."""
    lo = np.linalg.eigvalsh((c + c.conj().swapaxes(-1, -2)) / 2)[..., 0]
    scale = np.maximum(1.0, np.max(np.abs(c), axis=(-2, -1)))
    return _verdicts(lo, scale, tol), lo


@lru_cache(maxsize=None)
def _sector_plan(d: int) -> tuple:
    """Where the degrading Choi's sectors sit in its superoperator.

    Returns (pos, n_diag, blocks): ``pos`` lists flat positions into a
    degrading superoperator (e² × d², flattened), first the Choi's decoupled
    diagonal entries, then every entry of its sector blocks, block after
    block, each row-major with ascending indices as in
    linalg._sector_blocks; the first ``n_diag`` entries are the diagonal
    ones; and ``blocks`` holds (start, k, s) for the k blocks of each size s.

    Derived from the kernels' nonzero patterns, with no numeric draw: the
    complementary tables times the inverse's coherence diagonal and its
    population block, mapped to Choi indices (p·e + a, q·e + b). Gamma^{-T}
    is upper triangular, but the whole population block is taken: the
    pivoted np.linalg.inv can leave rounding-level entries below its
    diagonal. They fall inside the same sectors, so the plan covers every
    entry the kernel can produce."""
    e = env_dim(d)
    n = d * e
    rows, cols, _, _ = _complementary_tables(d)
    comp = np.zeros((e * e, d * d), dtype=bool)
    comp[rows, cols] = True
    inv = np.eye(d * d, dtype=bool)
    pop = np.arange(0, d * d, d + 1)
    inv[pop[:, None], pop] = True
    def to_choi(sup: np.ndarray) -> np.ndarray:
        # superoperator entry (a·e + b, p·d + q) is Choi entry
        # (p·e + a, q·e + b)
        return sup.reshape(e, e, d, d).transpose(2, 0, 3, 1).reshape(n, n)

    mask = to_choi(comp @ inv)
    flat = to_choi(np.arange(e * e * d * d))
    singles, groups = _sector_blocks(n, np.packbits(mask | mask.T).tobytes())
    pos, blocks = [flat[singles, singles]], []
    start = len(singles)
    for idx in groups:
        k, size = idx.shape
        pos.append(flat[idx[:, :, None], idx[:, None, :]].ravel())
        blocks.append((start, k, size))
        start += k * size * size
    pos = np.concatenate(pos)
    pos.flags.writeable = False  # shared by every caller of the cache
    return pos, len(singles), tuple(blocks)


def _degradability_spectra(gammas: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(known, lo, scale) for a Gamma stack (B, d, d): known is False where
    some gamma_kk = 0 makes the inverse unavailable, and there lo is nan and
    scale 1; elsewhere lo is the degrading Choi's least decoupled diagonal
    entry or sector-block eigenvalue (one stacked eigen-solve per block
    size) and scale max(1, max |entry|). Entries are the dense Choi's (as in
    degrading_chois) and blocks are symmetrized as in _psd_status, so only
    the eigen-solve's rounding differs from the dense test."""
    g = np.asarray(gammas, dtype=float)
    b, d = len(g), g.shape[-1]
    known = np.all(np.diagonal(g, axis1=1, axis2=2)[:, 1:] > 0.0, axis=1)
    lo = np.full(b, np.nan)
    scale = np.ones(b)
    if known.any():
        pos, n_diag, blocks = _sector_plan(d)
        k = int(known.sum())
        vals = _degrading_superops(g[known]).reshape(k, -1)[:, pos] / d
        scale[known] = np.abs(vals).max(axis=1, initial=1.0)
        low = vals[:, :n_diag].min(axis=1, initial=np.inf)
        for start, n, size in blocks:
            m = vals[:, start:start + n * size * size].reshape(k, n, size, size)
            m = (m + m.swapaxes(-1, -2)) / 2
            low = np.minimum(low, np.linalg.eigvalsh(m)[..., 0].min(axis=1))
        lo[known] = low
    return known, lo, scale


def degradability_status(gammas: np.ndarray,
                         tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Choi-PSD degradability verdicts for a Gamma stack (B, d, d): one
    degrading-superoperator kernel call and one stacked eigen-solve per
    sector block size.

    Returns the verdict of each channel ("yes" | "no" | "boundary", or
    "unknown" where some gamma_kk = 0 makes the inverse, and with it the
    test, unavailable) and its minimum Choi eigenvalue (nan if unknown).
    """
    known, lo, scale = _degradability_spectra(gammas)
    status = _verdicts(lo, scale, tol)
    status[~known] = "unknown"
    return status, lo


def degradable_margins(gammas: np.ndarray, tol: float = 1e-9
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(mask, margin) for a Gamma stack (B, d, d): mask is
    degradability_status(gammas, tol) == "yes", as one boolean per channel,
    without the verdict strings: linalg.psd_rule on each degrading Choi;
    margin is lambda_min + max(tol, EIG_FLOOR)·scale, the signed distance
    from psd_rule's threshold, which the border search only uses to guess
    where the mask flips. Unknown channels (lo = nan) are False, with margin
    nan."""
    _, lo, scale = _degradability_spectra(gammas)
    return psd_rule(lo, scale, tol), lo + max(tol, EIG_FLOOR) * scale


def is_degradable(tm: TransitionMatrix, tol: float = 1e-9) -> ClassificationResult:
    """Choi-PSD test of the degrading map, as a batch of one of
    degradability_status; 'unknown' when some gamma_kk = 0."""
    status, lo = degradability_status(tm.gamma[None], tol)
    verdict = str(status[0])
    return ClassificationResult(verdict, is_antidegradable(tm),
                                None if verdict == "unknown" else float(lo[0]))


def is_antidegradable(tm: TransitionMatrix) -> bool:
    """Exact arithmetic: gamma_j0 - gamma_jj >= 0 for all j = 1..d-1."""
    g = tm.gamma
    return all(g[j, 0] - g[j, j] >= 0.0 for j in range(1, tm.dim))


def _scatter(plan: tuple, values: np.ndarray, n: int) -> np.ndarray:
    """Stack (B, n, n) of zeros with values[:, columns] added at the flat
    positions of ``plan`` = (positions, columns), no position repeated.
    Adding, not assigning, leaves a -0.0 value's entry at +0.0."""
    pos, col = plan
    out = np.zeros((len(values), n * n))
    # index the first axis of the transposes: numpy's fast path for one Gamma
    out.T[pos] += values.T[col]
    return out.reshape(-1, n, n)


def _plan(adds: list) -> tuple:
    """Read-only (positions, columns) index arrays of (position, column)
    additions."""
    table = np.array(adds, dtype=np.intp).T.copy()
    table.flags.writeable = False  # shared by every caller of the cache
    return tuple(table)


@lru_cache(maxsize=None)
def _choi_plan(d: int) -> tuple:
    """Scatter plan of the MAD Choi state (d² × d², before the 1/d) over the
    values [Gamma, sqrt(gamma_jj gamma_ii)], each flattened d × d."""
    n = d * d
    adds = [((j * d + i) * n + j * d + i, j * d + i)
            for j in range(d) for i in range(j + 1)]
    adds += [((j * d + j) * n + i * d + i, n + j * d + i)
             for j in range(d) for i in range(d) if i != j]
    return _plan(adds)


def mad_choi_states(gammas: np.ndarray) -> np.ndarray:
    """State-normalized Choi matrices (B, d², d²) of the MAD channels of a
    Gamma stack (B, d, d), scattered from per-d index tables."""
    g = np.asarray(gammas, dtype=float)
    b, d, _ = g.shape
    surv = np.sqrt(np.diagonal(g, axis1=1, axis2=2))
    values = np.concatenate([g, surv[:, :, None] * surv[:, None, :]],
                            axis=1).reshape(b, 2 * d * d)
    return _scatter(_choi_plan(d), values, d * d) / d


def mad_choi_state(tm: TransitionMatrix) -> np.ndarray:
    """State-normalized Choi of the MAD channel, as a batch of one of
    mad_choi_states."""
    return mad_choi_states(tm.gamma[None])[0]


@dataclass
class TwoExtension:
    dim: int
    tau: np.ndarray  # d^3 x d^3 on A ⊗ B1 ⊗ B2
    p: np.ndarray    # p[j, i] distribution rows


@lru_cache(maxsize=None)
def _extension_plan(d: int) -> tuple:
    """Scatter plan of the two-extension tau (d³ × d³, before the 1/d) over
    the values [Gamma, p·delta, Gamma - p·delta, sqrt(gamma_jj gamma_ii)],
    each flattened d × d, where delta_j = gamma_j0 - gamma_jj.

    The diagonal-in-A part holds gamma_jj on the 2 × 2 block of |j,0,j>,
    |j,j,0>, the redistributed excess p_ji delta_j on |j,0,i> and |j,i,0>,
    and gamma_ji - p_ji delta_j on |j,i,i>; the off-diagonal-in-A part
    couples the 'both copies intact' states with weight
    sqrt(gamma_jj gamma_ii)."""
    n = d ** 3
    e = d * d
    gam, pd, rest, cross = 0, e, 2 * e, 3 * e

    def idx(a: int, b1: int, b2: int) -> int:
        return (a * d + b1) * d + b2

    adds = []

    def add(r: int, c: int, col: int) -> None:
        adds.append((r * n + c, col))

    add(idx(0, 0, 0), idx(0, 0, 0), gam)
    for j in range(1, d):
        r1, r2 = idx(j, 0, j), idx(j, j, 0)
        for r, c in ((r1, r1), (r2, r2), (r1, r2), (r2, r1)):
            add(r, c, gam + j * d + j)
        for i in range(j):
            add(idx(j, 0, i), idx(j, 0, i), pd + j * d + i)
        for i in range(1, j):
            add(idx(j, i, 0), idx(j, i, 0), pd + j * d + i)
            add(idx(j, i, i), idx(j, i, i), rest + j * d + i)
    for j in range(d):
        for i in range(d):
            if i == j:
                continue
            col = cross + j * d + i
            add(idx(j, 0, j), idx(i, 0, i), col)
            add(idx(j, j, 0), idx(i, i, 0), col)
            if j > 0 and i > 0:
                add(idx(j, j, 0), idx(i, 0, i), col)
                add(idx(j, 0, j), idx(i, i, 0), col)
    return _plan(adds)


def _two_extensions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-extension witnesses (B, d³, d³) and their distributions p
    (B, d, d) of a Gamma stack, with p_ji = gamma_ji / (1 - gamma_jj) for
    i < j (0 where gamma_jj = 1)."""
    b, d, _ = g.shape
    diag = np.diagonal(g, axis1=1, axis2=2)
    rows = np.tri(d, d, -1, dtype=bool) & (diag < 1.0)[:, :, None]
    p = np.divide(g, (1.0 - diag)[:, :, None], out=np.zeros_like(g),
                  where=rows)
    pd = p * (g[:, :, 0] - diag)[:, :, None]
    surv = np.sqrt(diag)
    values = np.concatenate([g, pd, g - pd,
                             surv[:, :, None] * surv[:, None, :]],
                            axis=1).reshape(b, 4 * d * d)
    tau = _scatter(_extension_plan(d), values, d ** 3)
    tau /= d
    return tau, p


def two_extension_taus(gammas: np.ndarray) -> np.ndarray:
    """Two-extension witnesses tau (B, d³, d³) on A ⊗ B1 ⊗ B2 of a Gamma
    stack (B, d, d), scattered from per-d index tables. Each tau's two
    partial traces equal the channel's Choi state; it is PSD exactly when
    the channel is antidegradable. No antidegradability check: see
    build_two_extension for the guarded single witness."""
    return _two_extensions(np.asarray(gammas, dtype=float))[0]


def build_two_extension(tm: TransitionMatrix) -> TwoExtension:
    """Tripartite witness tau on A ⊗ B1 ⊗ B2 whose two partial traces both
    equal the channel's Choi state; PSD exactly when the channel is
    antidegradable. Uses p_i^(j) = gamma_ji / (1 - gamma_jj); a batch of one
    of two_extension_taus."""
    if not is_antidegradable(tm):
        raise ConditionViolatedError("two-extension requires antidegradability")
    tau, p = _two_extensions(tm.gamma[None])
    return TwoExtension(tm.dim, tau[0], p[0])


def _lg_f(x: float) -> float:
    """log2 of f(x) = x^x / (1+x)^(1+x), with f(0) = 1."""
    term = x * np.log2(x) if x > 0.0 else 0.0
    return float(term - (1.0 + x) * np.log2(1.0 + x))


def capacity_positive_witness(tm: TransitionMatrix, j: int) -> float:
    """Positive lower bound on Q from a level j violating antidegradability:
    (1/2)[log2 f(gamma_j0) - log2 f(gamma_jj)], f non-increasing."""
    g = tm.gamma
    if g[j, 0] >= g[j, j]:
        raise ConditionViolatedError(
            f"witness needs gamma_j0 < gamma_jj at level {j}")
    return 0.5 * (_lg_f(g[j, 0]) - _lg_f(g[j, j]))


def best_capacity_witness(tm: TransitionMatrix) -> float:
    g = tm.gamma
    vals = [capacity_positive_witness(tm, j)
            for j in range(1, tm.dim) if g[j, 0] < g[j, j]]
    return max(vals) if vals else 0.0


@dataclass
class MonotonicityCertificate:
    side: str
    cp: bool
    status: str  # "yes" | "no" | "boundary"
    min_eig: float


def _single_entry_difference(a: TransitionMatrix, b: TransitionMatrix) -> tuple[int, int]:
    d = a.dim
    if b.dim != d:
        raise NotComparableError("dimension mismatch")
    diff = [(j, i) for j in range(1, d) for i in range(j)
            if abs(a.gamma[j, i] - b.gamma[j, i]) > 1e-14]
    if len(diff) != 1:
        raise NotComparableError(
            f"transition matrices differ in {len(diff)} decay entries, need 1")
    return diff[0]


def monotonicity_certificate(
        tm: TransitionMatrix, tm_bigger: TransitionMatrix,
        tol: float = 1e-9) -> tuple[MonotonicityCertificate,
                                    MonotonicityCertificate]:
    """Choi-PSD certificates (left, right) for Q(bigger) <= Q(tm) when one
    decay increased.

    left tests Lambda_L = Phi_bigger ∘ Phi_tm^{-1}, right tests Lambda_R =
    Phi_tm^{-1} ∘ Phi_bigger. Either being CP certifies the capacity
    ordering through the pipeline inequality. Both share one inverse and one
    channel map, and both Chois are tested in one stacked eigen-solve.
    """
    j, i = _single_entry_difference(tm, tm_bigger)
    if tm_bigger.gamma[j, i] < tm.gamma[j, i]:
        raise NotComparableError(
            f"entry ({j},{i}) decreases; certificate needs an increase")
    inv, phi = mad_inverse(tm), channel_map(tm_bigger)
    status, lo = _psd_status(np.stack([inv.then(phi).choi(),
                                       phi.then(inv).choi()]), tol)
    return tuple(MonotonicityCertificate(side, s == "yes", str(s), float(m))
                 for side, s, m in zip(("left", "right"), status, lo))


def connecting_choi(gamma21: float, omega21: float, k: float) -> np.ndarray:
    """Unnormalized 9x9 Choi of the map Phi_L with Phi_L ∘ Phi_1 = Phi_2.

    Phi_1 is the 3-level MAD with gamma_20 = (1-gamma21)/2 and Phi_2 the one
    with omega_20 = (1-omega21)/k; the shared gamma_10 cancels and is set to
    0. PSD of this matrix certifies Q(Phi_2) <= Q(Phi_1). Phi_1's inverse
    is built without mad_inverse's conditioning warning: gamma_22 =
    (1-gamma21)/2 is small by design near gamma21 = 1, and
    mad3_acge_verification warns once per step instead.
    """
    if not (0.0 <= gamma21 < 1.0):
        raise ConditionViolatedError(f"gamma21={gamma21} outside [0, 1)")
    if not (0.0 <= omega21 <= 1.0):
        raise ConditionViolatedError(f"omega21={omega21} outside [0, 1]")
    if not (1.0 <= k < 2.0):
        raise ConditionViolatedError(f"k={k} outside [1, 2)")
    g1 = TransitionMatrix(3, {(2, 1): gamma21, (2, 0): (1.0 - gamma21) / 2.0})
    g2 = TransitionMatrix(3, {(2, 1): omega21, (2, 0): (1.0 - omega21) / k})
    if g1.gamma[2, 2] <= 0.0:
        raise SingularInverseError(f"gamma21={gamma21} rounds gamma22 to 0")
    lam = LinearMap(inverse_superops(g1.gamma[None])[0]).then(channel_map(g2))
    return lam.choi(normalized=False)


def connecting_eigenvalues(gamma21: float, omega21: float, k: float) -> np.ndarray:
    """Closed-form nonzero eigenvalues of the unnormalized connecting Choi."""
    g, w = gamma21, omega21
    e1 = (2.0 * (1.0 - w) - k * (1.0 - g)) / (k * (1.0 - g))
    e2 = 2.0 * (w - g) / (1.0 - g)
    e3 = (2.0 * k * (2.0 - g - w) - 2.0 * (1.0 - w)) / (k * (1.0 - g))
    return np.array([e1, e2, e3])
