"""Coherent information, its maximization, and quantum-capacity certificates.

The certificate cascade for a transition matrix:
  1. antidegradable                -> Zero
  2. degradable (Choi test)       -> ExactDegradable, value = diagonal max
  3. a level decays completely    -> ExactByReduction (drop the top level
     after relabeling it there with level-swap unitaries), recursively
  4. region extension along a single decay entry, either sandwiched between
     a degradable border and a complete-damping border with equal values, or
     pinned between a monotone upper bound and an independent lower bound;
     both find the degradable border t* of their line Gamma(t) =
     tm.with_decay(j, i, t), optionally with a second entry zeroed, by one
     bisection (_line_border) of [0, top], top = Gamma(0)[j, j], the
     sandwich's complete-damping end; an axis with t* > gamma_ji is skipped.
     The pin certifies no end whose start-grid bound (_start_grid) exceeds
     the lower bound by more than 2 tol_border: an exact value lies within
     tol_border of the end's capacity, which is at least that bound
  5. otherwise a LowerBound (diagonal max / noiseless subspace / analytic
     witness) or Unknown.
Stores are keyed by exact Gamma bytes: no answer depends on call order.
The diagonal max (max_diagonal_coherent_info) runs an active-set Newton
ascent on the simplex from the best points of a grid and the faces next to
its result, handling the faces where a level is 0 explicitly, until the
Frank-Wolfe gap is at most 1e-12 max(1, |f|); on degradable channels the
objective is concave, so the gap bounds the distance to the maximum.
All capacities are in bits.
"""
import itertools
import json
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .channel import (TransitionMatrix, apply, channel_map, kraus_from_gamma,
                      permute_levels)
from .complementary import complementary_apply
from .errors import ConditionViolatedError, MadcapError
from .linalg import shannon_entropy, von_neumann_entropy
from .maps import LinearMap
from .structure import (_psd_status, best_capacity_witness, connecting_choi,
                        degradable_mask, is_antidegradable, is_degradable)

_ZERO_LEVEL_TOL = 1e-12
_MAX_DEPTH = 6
# The diagonal maximizer starts from the _STARTS best points of a 1/50 grid,
# coarser where that has over _GRID_POINTS points (1/18, which holds 1/2, at
# d = 4), skipping those within _SAME_BASIN (max norm) of the best; its face
# search enters a level at 1/2, ..., 2^-_ENTER_HALVINGS of the mass.
_GRID_STEPS = 50
_GRID_POINTS = 1330
_STARTS = 3
_SAME_BASIN = 1.5 / _GRID_STEPS
_ENTER_HALVINGS = 10
# The diagonal maximizer's ascent: at most _ASCENT_STEPS steps, stopping at a
# Frank-Wolfe gap of _GAP_TOL max(1, |f|); line searches halve at most
# _HALVINGS times and ask a Newton step for _ARMIJO of its predicted rise.
_ASCENT_STEPS = 100
_GAP_TOL = 1e-12
_HALVINGS = 60
_ARMIJO = 1e-4
_SLOPE_NOISE = 1e-14  # entering weights this small are row-sum rounding
_F_ROUND = 1e-15  # relative rounding of f near its maximum
_LN2 = math.log(2.0)

EXACT_KINDS = ("Zero", "ExactDegradable", "ExactByReduction",
               "ExactByRegionExtension")


# ---------------------------------------------------------------------------
# coherent information

def coherent_information(tm: TransitionMatrix, rho: np.ndarray) -> float:
    """I_c = S(Phi(rho)) - S(Phi_complementary(rho)), in bits."""
    out = apply(tm, rho)
    env = complementary_apply(tm, rho, validate=False)
    return von_neumann_entropy(out, validate=False) - von_neumann_entropy(env, validate=False)


def _env_pairs(d: int) -> List[Tuple[int, int]]:
    return [(j, i) for j in range(1, d) for i in range(j)]


def diagonal_coherent_information(tm: TransitionMatrix, p: np.ndarray) -> float:
    """I_c on a diagonal input: both outputs are diagonal, so the entropies
    are plain Shannon entropies of closed-form distributions."""
    g = tm.gamma
    p = np.asarray(p, dtype=float)
    out = g.T @ p
    env = [float(np.diag(g) @ p)] + [g[j, i] * p[j] for j, i in _env_pairs(tm.dim)]
    return shannon_entropy(out) - shannon_entropy(np.asarray(env))


@lru_cache(maxsize=16)
def _simplex_grid(d: int, steps: int) -> np.ndarray:
    """All probability vectors with entries k/steps on the (d-1)-simplex:
    the compositions of ``steps`` into d nonnegative parts, in
    lexicographic order, divided by ``steps``."""
    parts = np.zeros((1, 0), dtype=np.intp)
    left = np.array([steps])
    for _ in range(d - 1):
        counts = left + 1
        rows = np.repeat(np.arange(len(left)), counts)
        k = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[rows], k])
        left = left[rows] - k
    grid = np.column_stack([parts, left]) / steps
    grid.flags.writeable = False  # shared by every caller of the cache
    return grid


@lru_cache(maxsize=16)
def _grid_steps(d: int) -> int:
    """The largest steps up to _GRID_STEPS whose simplex grid,
    C(steps + d - 1, d - 1) points, has at most _GRID_POINTS points."""
    steps = _GRID_STEPS
    while math.comb(steps + d - 1, d - 1) > _GRID_POINTS:
        steps -= 1
    return steps


def _diag_rows(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lin, w): the output distribution, then the environment one, as the
    rows of x = lin @ p, and weights that turn sum_k w_k x_k log2 x_k into
    H(out) - H(env). Rows that are zero for every p are left out."""
    d = g.shape[0]
    pairs = _env_pairs(d)
    env = np.zeros((len(pairs), d))
    for r, (j, i) in enumerate(pairs):
        env[r, j] = g[j, i]
    lin = np.vstack([g.T, np.diag(g), env])
    w = np.ones(len(lin))
    w[:d] = -1.0
    keep = lin.any(axis=1)
    return lin[keep], w[keep]


def _diag_slopes(lin: np.ndarray, w: np.ndarray, p: np.ndarray):
    """(f, x, grad, slopes) at p, where f(p) = sum_k w_k x_k log2 x_k with
    x = lin @ p and 0 log 0 = 0. The slope of f along e_i - p is
    slopes_i - <grad, p>, so max(slopes) - <grad, p> is the Frank-Wolfe gap.

    grad = lin^T (w log2 x) over the rows with x_k > 0. The constant 1/ln 2
    of d(x log2 x)/dx is left out: both distributions sum to 1, so it
    shifts every grad_i alike. A level i outside the support also feeds
    rows that are zero at p, where that derivative diverges. With s_i the
    weight of those rows, sum_{k: x_k = 0} w_k lin_ki, slopes_i is +inf for
    s_i < 0 (the level always enters), -inf for s_i > 0 (it never does),
    and for s_i = 0, within the rounding of the row sums, grad_i plus the
    rows' finite part sum_k w_k lin_ki log2 lin_ki."""
    x = lin @ p
    pos = x > 0.0
    wlog = w * np.log2(np.where(pos, x, 1.0))
    grad = wlog @ lin
    slopes = grad
    if not pos.all():
        w0 = np.where(pos, 0.0, w)
        s = w0 @ lin
        finite = grad + w0 @ (lin * np.log2(np.where(lin > 0.0, lin, 1.0)))
        slopes = np.where(np.abs(s) <= _SLOPE_NOISE, finite,
                          np.where(s < 0.0, np.inf, -np.inf))
    return float(wlog @ x), x, grad, slopes


def _enter_level(lin, w, p, i, f):
    """Move mass onto level i, outside the support, along e_i - p: the first
    of alpha = 1/2, 1/4, ... after which halving stops raising f. Returns
    the new p and its _diag_slopes, or None when no alpha raises f by more
    than its rounding: an entering slope of +inf may only pay off below
    float resolution."""
    best, found, alpha = f + _F_ROUND * max(1.0, abs(f)), None, 0.5
    for _ in range(_HALVINGS):
        q = (1.0 - alpha) * p
        q[i] = alpha
        state = _diag_slopes(lin, w, q)
        if state[0] > best:
            best, found = state[0], (q, state)
        elif found is not None:
            break
        alpha *= 0.5
    return found


def _support_step(lin, w, p, x, slopes, f, i):
    """One ascent step on the support of p plus level i, under sum p = 1:
    the Newton step, or the projected gradient where that is not a feasible
    ascent direction, with Armijo backtracking from min(1, the step at
    which a level reaches 0), where that level is set to exactly 0. A level
    i outside the support has a finite slope; the zero rows it feeds add a
    term linear in p_i (their weights cancel), so they add no curvature.
    Returns the new p and its _diag_slopes, or None when no step is
    accepted."""
    free = p > 0.0
    free[i] = True
    idx = np.flatnonzero(free)
    n = len(idx)
    pos = x > 0.0
    a = lin[pos][:, idx]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = (a.T * (w[pos] / (x[pos] * _LN2))) @ a
    kkt[n, n] = 0.0
    # centred: sum(step) = 0 only up to rounding, which must not swamp the
    # slope near the maximum
    gs = slopes[idx]
    gs -= gs.sum() / n
    rhs = np.zeros(n + 1)
    rhs[:n] = -gs
    try:
        step = np.linalg.solve(kkt, rhs)[:n]
    except np.linalg.LinAlgError:
        step = np.zeros(n)
    slope = float(gs @ step)
    if (not 0.0 < slope < np.inf
            or (p[i] == 0.0 and step[idx == i][0] < 0.0)):
        step, slope = gs, float(gs @ gs)
    ratios = np.divide(p[idx], -step, out=np.full(n, np.inf),
                       where=step < 0.0)
    k = int(np.argmin(ratios))
    cap = float(ratios[k])
    alpha = min(1.0, cap)
    rounding = _F_ROUND * max(1.0, abs(f))
    for _ in range(_HALVINGS):
        q = p.copy()
        q[idx] += alpha * step
        if alpha == cap:
            q[idx[k]] = 0.0
        np.maximum(q, 0.0, out=q)
        # a rise below f's rounding cannot be seen; such a step is taken
        # unless f falls by more than its rounding
        rise = alpha * slope
        need = _ARMIJO * rise if rise > rounding else -rounding
        state = _diag_slopes(lin, w, q)
        if state[0] - f >= need:
            return q, state
        alpha *= 0.5
    return None


def _ascend(lin, w, p):
    """The active-set Newton ascent of max_diagonal_coherent_info from p;
    returns the p it stops at (p itself when no step is taken) and f there."""
    state = _diag_slopes(lin, w, p)
    for _ in range(_ASCENT_STEPS):
        f, x, grad, slopes = state
        top = grad @ p + _GAP_TOL * max(1.0, abs(f))
        # the face of p first, then the best level outside it
        i = int(np.argmax(np.where(p > 0.0, slopes, -np.inf)))
        if slopes[i] <= top:
            i = int(np.argmax(slopes))
            if slopes[i] <= top:
                break
        if np.isinf(slopes[i]):
            moved = _enter_level(lin, w, p, i, f)
        else:
            moved = _support_step(lin, w, p, x, slopes, f, i)
        if moved is None:
            break
        p, state = moved
    return p, state[0]


def _diag_values(lin, w, pts):
    """f at every row of pts: (x log2 x) @ w, x = pts @ lin^T, 0 log 0 = 0."""
    x = pts @ lin.T
    return (x * np.log2(np.where(x > 0.0, x, 1.0))) @ w


def _start_grid(g: np.ndarray):
    """(lin, w, pts, f): _diag_rows(g), the simplex grid the maximizer
    starts from (_grid_steps), and f at every grid point. Each f is a
    diagonal coherent information, so max(f) bounds the capacity below."""
    lin, w = _diag_rows(g)
    pts = _simplex_grid(g.shape[0], _grid_steps(g.shape[0]))
    return lin, w, pts, _diag_values(lin, w, pts)


def _neighbour_faces(p):
    """Points on the faces next to p's, one row each: a level i outside the
    support entering along e_i - p at 1/2, 1/4, ..., 2^-_ENTER_HALVINGS,
    and half or all of the mass of a level j moved onto a level i."""
    d = len(p)
    eye = np.eye(d)
    t = 0.5 ** np.arange(1, _ENTER_HALVINGS + 1)[:, None, None]
    enter = (1.0 - t) * p + t * eye[p == 0.0]
    j, i = np.nonzero(1.0 - eye)
    move = p + np.array([0.5, 1.0])[:, None, None] * p[j, None] * (eye[i] - eye[j])
    return np.vstack([enter.reshape(-1, d), move.reshape(-1, d)])


def max_diagonal_coherent_info(tm: TransitionMatrix) -> Tuple[float, np.ndarray]:
    """Maximize I_c over diagonal inputs: an active-set Newton ascent on the
    probability simplex over f(p) = sum_k w_k x_k log2 x_k, x = lin @ p
    (_diag_rows), with the continuous 0 log 0 = 0, from the _STARTS best
    points of a simplex grid (_grid_steps) where f is evaluated densely.
    Each step either moves mass onto a level outside the support whose
    entering slope is positive (_diag_slopes: +inf, or finite), or takes a
    Newton step on the support (_support_step), which sets a level to
    exactly 0 when the step reaches it, until the Frank-Wolfe gap
    max_i slope_i along e_i - p is at most _GAP_TOL max(1, |f|).

    For degradable channels f is concave, so the gap bounds how far f(p) is
    below the maximum, which is the quantum capacity. Otherwise the value
    is a lower bound, and f can have several local maxima: the other starts
    reach basins the best grid point misses, and the face search maxima on
    another face or nearer to one than the grid's spacing, ascending from
    the best of _neighbour_faces(p) while f there exceeds f(p) by more than
    its rounding. The value is diagonal_coherent_information at p, never
    below its value at the start p came from."""
    d = tm.dim
    if d == 1:
        return 0.0, np.ones(1)
    lin, w, pts, grid_f = _start_grid(tm.gamma)
    best, first = None, pts[int(np.argmax(grid_f))]
    for _ in range(_STARTS):
        k = int(np.argmax(grid_f))  # best first; ties keep grid order
        grid_f[k] = -np.inf
        if best is not None and np.abs(pts[k] - first).max() < _SAME_BASIN:
            continue
        start = pts[k].copy()
        p, f = _ascend(lin, w, start)
        val = diagonal_coherent_information(tm, p)
        if best is None or val > best[0]:
            best = (val, f, p, start)
    val, f, p, start = best
    while True:
        near = _neighbour_faces(p)
        near_f = _diag_values(lin, w, near)
        k = int(np.argmax(near_f))
        if near_f[k] <= f + _F_ROUND * max(1.0, abs(f)):
            break
        start_q = near[k].copy()
        q, f_q = _ascend(lin, w, start_q)
        val_q = diagonal_coherent_information(tm, q)
        if val_q <= val + _F_ROUND * max(1.0, abs(val)):
            break
        val, f, p, start = val_q, f_q, q, start_q
    if p is not start:
        # accepted steps raise f up to its rounding; keep the start's floor
        val0 = diagonal_coherent_information(tm, start)
        if val < val0:
            return val0, start
    return val, p


def adc_capacity(gamma: float) -> float:
    """Quantum capacity of the 2-level channel: for g < 1/2 it is degradable,
    and the capacity is max_diagonal_coherent_info's maximum over p of
    h2((1-g)p) - h2(gp); for g >= 1/2 it is antidegradable, and zero."""
    if not (0.0 <= gamma <= 1.0):
        raise ConditionViolatedError(f"gamma={gamma} outside [0, 1]")
    if gamma >= 0.5:
        return 0.0
    tm = TransitionMatrix(2, {(1, 0): gamma})
    return max(max_diagonal_coherent_info(tm)[0], 0.0)


# ---------------------------------------------------------------------------
# complete damping

def reduce_complete_damping(tm: TransitionMatrix) -> TransitionMatrix:
    """Drop a completely decaying top level; the reduced channel has the same
    quantum capacity."""
    d = tm.dim
    if tm.gamma[d - 1, d - 1] > _ZERO_LEVEL_TOL:
        raise ConditionViolatedError(
            f"top level survives with probability {tm.gamma[d - 1, d - 1]}")
    decays = {(j, i): p for (j, i), p in tm.decays.items() if j < d - 1}
    return TransitionMatrix(d - 1, decays)


def _direct_sum_map(tm: TransitionMatrix) -> LinearMap:
    """Reduced channel on the lower block plus a classical flag on the top
    level: Kraus of the (d-1) channel padded with zeros, plus |d-1><d-1|."""
    d = tm.dim
    reduced = reduce_complete_damping(tm)
    ops = []
    for k in kraus_from_gamma(reduced):
        pad = np.zeros((d, d), dtype=complex)
        pad[:d - 1, :d - 1] = k
        ops.append(pad)
    flag = np.zeros((d, d), dtype=complex)
    flag[d - 1, d - 1] = 1.0
    ops.append(flag)
    return LinearMap.from_kraus(ops)


def _level_erasure_map(tm: TransitionMatrix) -> LinearMap:
    """Keep the lower block untouched and send the top-level population onto
    the diagonal with the channel's own decay weights."""
    d = tm.dim
    proj = np.eye(d, dtype=complex)
    proj[d - 1, d - 1] = 0.0
    ops = [proj]
    for i in range(d - 1):
        p = tm.gamma[d - 1, i]
        if p > 0.0:
            k = np.zeros((d, d), dtype=complex)
            k[i, d - 1] = np.sqrt(p)
            ops.append(k)
    return LinearMap.from_kraus(ops)


def verify_cd_decomposition(tm: TransitionMatrix, tol: float = 1e-10) -> bool:
    """Check the channel factors as level-erasure after the direct-sum map by
    comparing the two superoperators entrywise."""
    d = tm.dim
    if tm.gamma[d - 1, d - 1] > _ZERO_LEVEL_TOL:
        raise ConditionViolatedError("not a complete-damping channel")
    composite = _direct_sum_map(tm).then(_level_erasure_map(tm))
    diff = composite.superoperator() - channel_map(tm).superoperator()
    return bool(np.max(np.abs(diff)) <= tol)


# ---------------------------------------------------------------------------
# capacity certificates

@dataclass
class CapacityCertificate:
    kind: str
    value: Optional[float]
    provenance: List[str] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.kind in EXACT_KINDS

    def to_json(self, tm: TransitionMatrix | None = None) -> str:
        payload = {"kind": self.kind, "value": self.value,
                   "provenance": self.provenance}
        if tm is not None:
            payload["gamma"] = [[float(x) for x in row] for row in tm.gamma]
        return json.dumps(payload)


# The process's stores, keyed by exact Gamma bytes, so a stored answer is one
# for that very Gamma and the order of calls never matters: certificates by
# (Gamma, tolerances, depth cap), diagonal maxima by Gamma, and the border t*
# of each searched line (_line_border) by its Gamma(0). One madcap command is
# one process, so these maps are the store of one sweep. Each holds at most
# _STORE_MAX entries, the oldest evicted first; they are kept apart so that
# border churn never evicts certificates. The lock is for library callers
# that certify from several threads.
_CERT_CACHE: dict = {}
_DIAG_MAX: dict = {}
_BORDERS: dict = {}
_STORE_MAX = 8192
_CERT_LOCK = threading.Lock()

# A border search bisects 60 levels deep, _LEVELS_PER_ROUND levels per
# round: each round tests the 2^k - 1 midpoints of the next k levels of the
# bisection tree in one batch. k = 3 measured fastest on the d = 3 sweep and
# the d = 4 quadrant together.
_BISECT_LEVELS = 60
_LEVELS_PER_ROUND = 3


def _stored(store: dict, key, compute):
    """store[key], or compute() remembered there on a miss, evicting the
    oldest entries beyond _STORE_MAX."""
    with _CERT_LOCK:
        value = store.get(key)
    if value is None:
        value = compute()
        with _CERT_LOCK:
            store[key] = value
            while len(store) > _STORE_MAX:
                del store[next(iter(store))]
    return value


def _noiseless_log2(tm: TransitionMatrix) -> float:
    # gamma_00 = 1, so the count is at least 1
    return float(np.log2(sum(1 for j in range(tm.dim)
                             if tm.gamma[j, j] >= 1.0 - _ZERO_LEVEL_TOL)))


def _find_cd_permutation(tm: TransitionMatrix, zeros: List[int]
                         ) -> Optional[Tuple[Tuple[int, ...], TransitionMatrix]]:
    """A level relabeling that keeps all decays downward and puts one of the
    completely decaying levels ``zeros`` (not empty) on top, enabling the
    complete-damping reduction."""
    d = tm.dim
    if d - 1 in zeros:
        return tuple(range(d)), tm
    for perm in itertools.permutations(range(d)):
        if not any(perm[k] == d - 1 for k in zeros):
            continue
        try:
            return perm, permute_levels(tm, perm)
        except MadcapError:
            continue
    return None


def _decay_stack(tm: TransitionMatrix, j: int, i: int, ts: np.ndarray,
                 zeroed: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Gamma of tm.with_decay(j, i, t) for every t in ``ts`` (all in
    [0, 1]), followed by .with_decay(*zeroed, 0.0) when ``zeroed`` is given,
    with the same arithmetic: diagonals max(1 - row sum, 0)."""
    ts = np.asarray(ts, dtype=float)
    g = np.repeat(tm.gamma[None], len(ts), axis=0)
    g[:, j, i] = ts
    if zeroed is not None:
        g[:, zeroed[0], zeroed[1]] = 0.0
    for a in range(tm.dim):
        g[:, a, a] = np.maximum(1.0 - g[:, a, :a].sum(axis=1), 0.0)
    return g


def _degradable_at(tm: TransitionMatrix, j: int, i: int, ts, tol_psd: float,
                   zeroed: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """degradable_mask along one decay axis, for every t in ``ts`` in one
    batch: is_degradable(...) == "yes", never "boundary"."""
    return degradable_mask(_decay_stack(tm, j, i, ts, zeroed), tol_psd)


def _line_border(tm: TransitionMatrix, j: int, i: int, tol_psd: float,
                 zeroed: Optional[Tuple[int, int]] = None) -> float:
    """The degradable border t* of the line Gamma(t) of
    _degradable_at(tm, j, i, ., tol_psd, zeroed), searched on the line's
    whole domain [0, top], top = Gamma(0)[j, j], where level j decays
    completely. Gamma(0) fixes Gamma(t) for every t (same off-diagonals, t
    at (j, i), diagonals recomputed), so t* is a function of the line alone,
    whichever point and caller the search starts from, and is remembered in
    _BORDERS under it. The caller has checked that Gamma(0) is degradable;
    t* may lie above gamma_ji."""
    g0 = _decay_stack(tm, j, i, [0.0], zeroed)[0]
    return _stored(_BORDERS, (g0.tobytes(), j, i, tol_psd), lambda: _border(
        lambda ts: _degradable_at(tm, j, i, ts, tol_psd, zeroed),
        0.0, float(g0[j, j])))


def _settled(lo: float, hi: float, hi_tested: bool) -> bool:
    """True once no later bisection level can move lo: the next midpoint
    rounds to lo, or to an hi already evaluated false."""
    mid = 0.5 * (lo + hi)
    return mid == lo or (mid == hi and hi_tested)


def _border(pred_batch, lo: float, hi: float) -> float:
    """Largest t in [lo, hi] with pred true, assuming pred(lo) and not
    pred(hi), by bisection on the boolean, _BISECT_LEVELS levels deep.

    ``pred_batch`` maps an array of t to an array of booleans. Whenever the
    next midpoint has no verdict yet, one call evaluates the midpoints of
    the next _LEVELS_PER_ROUND levels of the bisection tree. Each step
    applies the verdict at its own midpoint, so the answer equals that of
    sequential bisection. The search stops once float resolution leaves lo
    fixed (_settled); the initial hi counts as untested."""
    left, hi_tested, verdicts = _BISECT_LEVELS, False, {}
    while left and not _settled(lo, hi, hi_tested):
        mid = 0.5 * (lo + hi)
        if mid not in verdicts:
            mids, level = [], [(lo, hi)]
            for _ in range(min(_LEVELS_PER_ROUND, left)):
                nxt = []
                for a, b in level:
                    m = 0.5 * (a + b)
                    mids.append(m)
                    nxt += [(a, m), (m, b)]
                level = nxt
            verdicts = dict(zip(mids, pred_batch(np.array(mids))))
        if verdicts[mid]:
            lo = mid
        else:
            hi, hi_tested = mid, True
        left -= 1
    return lo


def _monotone_axis(tm: TransitionMatrix, j: int, i: int) -> bool:
    """Axes where increasing gamma_ji is always capacity-non-increasing:
    decays out of the top level (left-composition with a single-decay channel)
    and the gamma_10 decay (right-composition)."""
    return j == tm.dim - 1 or (j, i) == (1, 0)


def _axis_cert_ok(tm_lo: TransitionMatrix, tm_hi: TransitionMatrix,
                  tol_psd: float) -> bool:
    """CP check of a connecting map for one increased entry, either side."""
    # looked up at call time, so that tests can replace it in structure
    from .structure import monotonicity_certificate
    for side in ("right", "left"):
        try:
            if monotonicity_certificate(tm_lo, tm_hi, side, tol_psd).cp:
                return True
        except MadcapError:
            continue
    return False


def certify_capacity(tm: TransitionMatrix, tol_border: float = 1e-6,
                     tol_psd: float = 1e-9,
                     _depth: int = 0) -> CapacityCertificate:
    """Certificate for the quantum capacity of ``tm``; it depends only on
    Gamma and the tolerances, not on the order of calls. Certificates and
    the diagonal maxima they use are stored under the exact Gamma, so
    repeated and overlapping calls reuse earlier work."""
    key = (tm.gamma.tobytes(), tol_border, tol_psd, _depth >= _MAX_DEPTH)
    return _stored(_CERT_CACHE, key,
                   lambda: _certify(tm, tol_border, tol_psd, _depth))


def _diag_max(tm: TransitionMatrix) -> float:
    # the maximizer is a pure function of the exact Gamma bytes
    return _stored(_DIAG_MAX, tm.gamma.tobytes(),
                   lambda: max_diagonal_coherent_info(tm)[0])


def _certify(tm: TransitionMatrix, tol_border: float, tol_psd: float,
             _depth: int) -> CapacityCertificate:
    d = tm.dim
    if is_antidegradable(tm):
        return CapacityCertificate(
            "Zero", 0.0, ["antidegradable: gamma_j0 >= gamma_jj for every j"])

    zeros = [k for k in range(1, d) if tm.gamma[k, k] <= _ZERO_LEVEL_TOL]
    if not zeros:
        res = is_degradable(tm, tol_psd)
        if res.degradable == "yes":
            return CapacityCertificate(
                "ExactDegradable", _diag_max(tm),
                [f"degrading-map Choi PSD, min eig {res.min_choi_eig:.3e}",
                 "value = max coherent information over diagonal inputs"])
    else:
        found = _find_cd_permutation(tm, zeros)
        if found is not None:
            perm, relabeled = found
            reduced = reduce_complete_damping(relabeled)
            sub = certify_capacity(reduced, tol_border, tol_psd, _depth + 1)
            prov = [f"complete damping after level relabeling {perm}",
                    f"reduced to {reduced.dim} levels"] + sub.provenance
            if sub.exact:
                return CapacityCertificate("ExactByReduction", sub.value, prov)
            if sub.kind == "LowerBound":
                return CapacityCertificate("LowerBound", sub.value, prov)

    if _depth < _MAX_DEPTH:
        pinned = _try_axis_sandwich(tm, tol_border, tol_psd, _depth)
        if pinned is not None:
            return pinned

    lb = max(_diag_max(tm), _noiseless_log2(tm), best_capacity_witness(tm))
    if _depth < _MAX_DEPTH:
        pinned = _try_monotone_pin(tm, lb, tol_border, tol_psd, _depth)
        if pinned is not None:
            return pinned
    if lb > 0.0:
        return CapacityCertificate(
            "LowerBound", lb,
            ["max of diagonal coherent information, noiseless-subspace "
             "dimension, and the analytic positivity witness"])
    return CapacityCertificate("Unknown", None, ["no positive bound found"])


def _try_axis_sandwich(tm: TransitionMatrix, tol_border: float, tol_psd: float,
                       _depth: int) -> Optional[CapacityCertificate]:
    """Exact value by matching the degradable border and the complete-damping
    border along one decay entry, with a monotone connecting path."""
    for (j, i) in sorted(tm.decays):
        gji = float(tm.gamma[j, i])
        if gji <= 1e-12 or tm.gamma[j, j] <= 1e-12:
            continue
        g0 = _decay_stack(tm, j, i, [0.0])
        if not degradable_mask(g0, tol_psd)[0]:
            continue
        # the complete-damping end, at the line's top where _line_border's
        # search ends, needs no border: drop an axis whose end is not exact
        tm_hi = tm.with_decay(j, i, float(g0[0, j, j]))
        sub = certify_capacity(tm_hi, tol_border, tol_psd, _depth + 1)
        if not sub.exact or sub.value is None:
            continue
        # a border above gamma_ji would run the monotone path backwards
        t_border = _line_border(tm, j, i, tol_psd)
        if t_border > gji:
            continue
        tm_lo = tm.with_decay(j, i, t_border)
        v_low = _diag_max(tm_lo)
        if abs(v_low - sub.value) > tol_border:
            continue
        if not _monotone_axis(tm, j, i):
            if not (_axis_cert_ok(tm_lo, tm, tol_psd)
                    and _axis_cert_ok(tm, tm_hi, tol_psd)):
                continue
        return CapacityCertificate(
            "ExactByRegionExtension", v_low,
            [f"axis ({j}->{i}): degradable border at {t_border:.9f} "
             f"(value {v_low:.9f}) matches the complete-damping border "
             f"(value {sub.value:.9f}); path monotone"])
    return None


def _try_monotone_pin(tm: TransitionMatrix, lower: float, tol_border: float,
                      tol_psd: float,
                      _depth: int) -> Optional[CapacityCertificate]:
    """Exact value by pinning: decrease an always-monotone entry to the last
    point that is exactly certifiable (upper bound U) and compare with the
    independent lower bound ``lower`` (L); |U - L| <= tol pins the capacity.
    An end whose start-grid bound exceeds L + 2 tol is not certified: its
    exact value would be at least that bound - tol, so it could not pin."""
    if lower <= 0.0:
        return None
    decays = sorted(tm.decays)
    for (j, i) in decays:
        if not _monotone_axis(tm, j, i):
            continue
        gji = float(tm.gamma[j, i])
        if gji <= 1e-9:
            continue
        for zeroed in decays:
            if zeroed == (j, i):
                continue
            at_top, at_zero = _degradable_at(tm, j, i, [gji, 0.0], tol_psd,
                                             zeroed)
            if at_top or not at_zero:
                continue
            # checked first: above gamma_ji the kept entry of ``zeroed`` can
            # push the row sum of tm.with_decay(j, i, t*) past 1
            t_star = _line_border(tm, j, i, tol_psd, zeroed)
            if t_star >= gji - 1e-9:
                continue
            end = tm.with_decay(j, i, t_star)
            if _start_grid(end.gamma)[3].max() > lower + 2 * tol_border:
                continue
            sub = certify_capacity(end, tol_border, tol_psd, _depth + 1)
            if not sub.exact or sub.value is None:
                continue
            if abs(sub.value - lower) <= tol_border:
                return CapacityCertificate(
                    "ExactByRegionExtension", sub.value,
                    [f"monotone decrease of ({j}->{i}) to {t_star:.9f} gives "
                     f"exact upper bound {sub.value:.9f}; lower bound "
                     f"{lower:.9f} matches"])
    return None


# ---------------------------------------------------------------------------
# 3-level slice verification

# At most this many omega points, so grid_step >= 1e-4: each point costs one
# connecting Choi per k and step.
_MAX_OMEGAS = 10001


def mad3_acge_verification(gamma10: float, grid_step: float = 0.05,
                           iterations: int = 3,
                           k_grid: Optional[List[float]] = None) -> dict:
    """Iterate the connecting-channel construction on the 3-level slice at
    fixed gamma10: at step n the PSD region of the connecting Choi must be
    omega21 <= 1 - k/2^(n+1), extending the certified-equal-capacity region;
    the certified value is adc_capacity(gamma10), cross-checked against the
    diagonal maximum at the degradable edge point (gamma21=0, gamma20=1/2).
    A grid_step whose omega grid on [0, 1] would hold more than _MAX_OMEGAS
    points raises ConditionViolatedError."""
    if not (0.0 <= gamma10 <= 0.5):
        raise ConditionViolatedError(f"gamma10={gamma10} outside [0, 0.5]")
    # the length of the np.arange below, before it is built
    if not grid_step > 0.0 or math.ceil((1.0 + 1e-12) / grid_step) > _MAX_OMEGAS:
        raise ConditionViolatedError(
            f"grid_step={grid_step} must be > 0 and give at most "
            f"{_MAX_OMEGAS} omega points")
    q = adc_capacity(gamma10)
    if k_grid is None:
        k_grid = [round(1.0 + 0.1 * t, 10) for t in range(10)]
    omegas = np.arange(0.0, 1.0 + 1e-12, grid_step)
    steps = []
    for n in range(iterations + 1):
        g21 = 1.0 - 2.0 ** (-n)
        k_checks = []
        for k in k_grid:
            bound = 1.0 - k / 2.0 ** (n + 1)
            chois = [connecting_choi(g21, float(w), k) for w in omegas]
            psds = _psd_status(np.stack(chois), 1e-9)[0] == "yes"
            mismatches = 0
            for w, psd in zip(omegas, psds):
                expected = (g21 <= w + 1e-12) and (w <= bound + 1e-12)
                if psd != expected and min(abs(w - bound), abs(w - g21)) > grid_step:
                    mismatches += 1
            k_checks.append({"k": k, "analytic_bound": bound,
                             "mismatches": mismatches})
        steps.append({"n": n, "gamma21": g21, "k_checks": k_checks})
    certified_omega = 1.0 - 2.0 ** (-(iterations + 1))
    edge = TransitionMatrix(3, {(1, 0): gamma10, (2, 0): 0.5})
    edge_val, _ = max_diagonal_coherent_info(edge)
    edge_deg = is_degradable(edge).degradable
    slice_points = [float(w) for w in omegas if w <= certified_omega + 1e-12]
    return {
        "gamma10": gamma10,
        "certificate_value": q,
        "certified_omega_max": certified_omega,
        "slice_points": slice_points,
        "steps": steps,
        "crosscheck": {
            "edge_point": {"gamma21": 0.0, "gamma20": 0.5},
            "edge_degradable": edge_deg,
            "edge_diagonal_max": edge_val,
            "matches": bool(abs(edge_val - q) <= 1e-6),
        },
    }
