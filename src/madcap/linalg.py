"""Dense matrix primitives: eigenvalues, entropy, partial trace, PSD tests.

All entropies are base-2 (bits). Everything works on plain numpy arrays in
64-bit arithmetic; the intended scale is small (d <= 6 levels).

PSD tests go through ``min_eigenvalues``, which splits Hermitian matrices
into the connected components of their nonzero pattern before solving. Every
MAD map commutes with diagonal phase rotations, so its Choi-type matrices are
block diagonal in charge sectors up to a permutation: the d = 4 two-extension
(64 x 64) is one coupled 7 x 7 block plus 57 decoupled diagonal entries.
TOL_PSD is the default tolerance of every PSD test in the package. The
validators refuse non-finite entries (InvalidStateError) by their max-abs
norm, which they compute for their Hermiticity bound anyway.
"""
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError, NonHermitianError

HERMITICITY_RTOL = 1e-10
EIG_FLOOR = 1e-12
TOL_PSD = 1e-9  # the default PSD tolerance of every Choi test and --tol-psd


def psd_rule(lo, scale, tol: float):
    """The one PSD rule: lambda_min >= -max(tol, EIG_FLOOR)·scale, scale =
    max(1, max |entry|), elementwise (False where lo is nan). The floor keeps
    exact zero eigenvalues that rounding pushed below 0 PSD at tol = 0."""
    return lo >= -max(tol, EIG_FLOOR) * scale


def _norm_inf(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _hermitian_norm(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Validated square Hermitian matrix, kept real when its input is real,
    and its max-abs norm."""
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    norm = _norm_inf(m)
    if not math.isfinite(norm):
        raise InvalidStateError("matrix has non-finite entries")
    if _norm_inf(m - m.conj().T) > HERMITICITY_RTOL * max(1.0, norm):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return m, norm


def check_hermitian(m: np.ndarray) -> np.ndarray:
    return _hermitian_norm(m)[0].astype(complex, copy=False)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    m = check_hermitian(m)
    return np.linalg.eigvalsh(m)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"state must be square, got shape {rho.shape}")
    norm = _norm_inf(rho)
    if not math.isfinite(norm):
        raise InvalidStateError("state has non-finite entries")
    if _norm_inf(rho - rho.conj().T) > 1e-12 * max(1.0, norm):
        raise InvalidStateError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
        raise InvalidStateError("state trace differs from 1")
    if np.linalg.eigvalsh(rho)[0] < -1e-9:
        raise InvalidStateError("state has a significantly negative eigenvalue")
    return rho


def shannon_entropy(p: np.ndarray) -> float:
    """H(p) in bits; entries below 1e-12 are treated as exact zeros."""
    p = np.asarray(p, dtype=float)
    p = p[p > EIG_FLOOR]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: np.ndarray, validate: bool = True) -> float:
    """S(rho) = -tr rho log2 rho in bits."""
    if validate:
        rho = check_density_matrix(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    return shannon_entropy(np.linalg.eigvalsh(rho))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; the result lives
    on the kept subsystems in their original order.
    """
    m = np.asarray(m)
    dims = list(dims)
    n = math.prod(dims)
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} incompatible with dims {dims}")
    keep = sorted(keep)
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep={keep} out of range for {len(dims)} subsystems")
    if len(set(keep)) < len(keep):
        raise DimensionMismatchError(f"keep={keep} repeats a subsystem")
    nsub = len(dims)
    # One einsum: a discarded subsystem's column axis reuses its row label.
    cols = [nsub + k if k in keep else k for k in range(nsub)]
    t = np.einsum(m.reshape(dims + dims), list(range(nsub)) + cols,
                  keep + [nsub + k for k in keep])
    dkeep = math.prod(dims[k] for k in keep)
    return t.reshape(dkeep, dkeep).astype(complex)


@lru_cache(maxsize=1024)
def _sector_blocks(n: int, pattern: bytes) -> tuple:
    """Connected components of a symmetric n x n nonzero pattern, given as
    the ``np.packbits`` bytes of its boolean mask.

    Returns (singles, groups): the indices of the 1 x 1 components, and one
    (k, s) index array per component size s > 1 holding its k components,
    each with ascending indices.
    """
    mask = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8),
                         count=n * n).reshape(n, n).astype(bool)
    # Min-label propagation with pointer jumping: each label stays an index
    # inside its component and only decreases, and it is stable once every
    # component carries a single label.
    label = np.arange(n)
    while True:
        new = np.minimum(label, np.where(mask, label, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    size = np.bincount(label, minlength=n)[label]
    order = np.argsort(label, kind="stable")  # ascending within a component
    singles = np.flatnonzero(size == 1)
    # the sizes present, ascending; bincount rather than np.unique, whose
    # first call pages in about 0.5 MB
    groups = tuple(order[size[order] == s].reshape(-1, s)
                   for s in np.flatnonzero(np.bincount(size)) if s > 1)
    for a in (singles,) + groups:
        a.flags.writeable = False
    return singles, groups


def min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a stack (..., n, n).

    The matrices are split into the connected components of the stack's
    combined nonzero pattern (mask | mask.T); a split coarser than one
    member's own pattern is still exact for it. 1 x 1 components are read off
    the diagonal and each block size gets one stacked ``eigvalsh``. A block
    keeps its indices ascending, so it reads the same lower triangle as the
    dense solve. A stack whose imaginary part is exactly zero is solved in
    real arithmetic.
    """
    m = np.asarray(stack)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(
            f"expected a stack of square matrices, got shape {m.shape}")
    if np.iscomplexobj(m) and not np.any(m.imag):
        m = m.real
    n = m.shape[-1]
    mask = (m != 0).reshape(-1, n, n).any(axis=0)
    singles, groups = _sector_blocks(n, np.packbits(mask | mask.T).tobytes())
    lo = np.diagonal(m, axis1=-2, axis2=-1)[..., singles].real.min(
        axis=-1, initial=np.inf)
    for idx in groups:
        blocks = m[..., idx[:, :, None], idx[:, None, :]]
        lo = np.minimum(lo, np.linalg.eigvalsh(blocks)[..., 0].min(axis=-1))
    return lo


def is_psd(m: np.ndarray, tol: float = TOL_PSD) -> bool:
    """psd_rule on m's minimum eigenvalue and scale max(1, ||m||_inf).

    The minimum eigenvalue comes from ``min_eigenvalues``: eigen-solves on
    the sectors (connected blocks) of m's nonzero pattern and sign checks on
    its decoupled diagonal entries, in real arithmetic when m is real.
    """
    m, norm = _hermitian_norm(m)
    return bool(psd_rule(min_eigenvalues(m), max(1.0, norm), tol))


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state G G† / tr(G G†) with complex Gaussian G."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real
