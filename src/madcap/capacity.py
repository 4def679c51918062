"""Coherent information, its maximization, and quantum-capacity certificates.

The certificate cascade for a transition matrix:
  1. antidegradable                -> Zero
  2. degradable (Choi test)       -> ExactDegradable, value = diagonal max
  3. a level decays completely    -> ExactByReduction (drop the top level
     after relabeling it there with level-swap unitaries), recursively
  4. region extension along a single decay entry, either sandwiched between
     a degradable border and a complete-damping border with equal values, or
     pinned between a monotone upper bound and an independent lower bound;
     both read the record (_line) of a line Gamma(t) = tm.with_decay(j, i, t)
     through tm, for the pin with a second entry zeroed: its top Gamma(0)[j,
     j], the sandwich's complete-damping end, its bottom Gamma(0)'s verdict
     and its border t*; an axis with t* > gamma_ji is skipped.
     t* is the answer of a 60-level bisection on the degradable_margins
     verdicts. Each batch of the search (_border) evaluates the next tree
     levels plus the bisection paths that secant guesses from the Choi
     margins predict, and applies verdicts only where the bisection goes,
     so t* is sequential bisection's whatever the guesses are.
     The pin certifies no end whose start-grid bound (_start_grid) exceeds
     the lower bound by more than 2 tol_border: an exact value lies within
     tol_border of the end's capacity, which is at least that bound
  5. otherwise a LowerBound (diagonal max / noiseless subspace / analytic
     witness) or Unknown.
Stores are keyed by exact Gamma bytes (certificates also by the depth cap,
not the depth: see certify_capacity).
The diagonal max (max_diagonal_coherent_info) runs an active-set Newton
ascent on the simplex from the best points of a grid and the faces next to
its result, handling the faces where a level is 0 explicitly, until the
Frank-Wolfe gap is at most 1e-12 max(1, |f|); on degradable channels the
objective is concave, so the gap bounds the distance to the maximum. A
start is skipped as the best one's neighbour when it lies within 1.5/50 of
it, or within 1.5 spacings of the (coarser, d >= 4) grid and on its face
(the same levels at 0).
All capacities are in bits.
"""
import json
import logging
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .channel import (TransitionMatrix, apply, channel_map, kraus_from_gamma,
                      permute_levels)
from .complementary import complementary_apply
from .errors import ConditionViolatedError, MadcapError
from .inverse import CONDITIONING_WARN
from .linalg import shannon_entropy, von_neumann_entropy
from .maps import LinearMap
from .structure import (_psd_status, best_capacity_witness, connecting_choi,
                        degradable_margins, is_antidegradable, is_degradable,
                        monotonicity_certificate)

logger = logging.getLogger(__name__)

_ZERO_LEVEL_TOL = 1e-12
_MAX_DEPTH = 6
# The diagonal maximizer starts from the _STARTS best points of a 1/50 grid,
# coarser where that has over _GRID_POINTS points (1/18, which holds 1/2, at
# d = 4), skipping those within _SAME_BASIN (max norm) of the best, and those
# within _SAME_FACE spacings of its own grid of the best with the best's zero
# pattern; its face search enters a level at 1/2, ..., 2^-_ENTER_HALVINGS of
# the mass.
_GRID_STEPS = 50
_GRID_POINTS = 1330
_STARTS = 3
_SAME_BASIN = 1.5 / _GRID_STEPS
_SAME_FACE = 1.5
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
    its rounding. A start within _SAME_BASIN of the best grid point, or
    within _SAME_FACE spacings of it with the same levels at 0, shares the
    best one's ascent and is skipped; a neighbour on another face can reach
    a maximum on that face, which the best one's ascent misses. The value
    is diagonal_coherent_information at p, never below its value at the
    start p came from."""
    d = tm.dim
    if d == 1:
        return 0.0, np.ones(1)
    lin, w, pts, grid_f = _start_grid(tm.gamma)
    best, first = None, pts[int(np.argmax(grid_f))]
    same_face = _SAME_FACE / _grid_steps(d)
    for _ in range(_STARTS):
        k = int(np.argmax(grid_f))  # best first; ties keep grid order
        grid_f[k] = -np.inf
        if best is not None:
            dist = np.abs(pts[k] - first).max()
            if dist < _SAME_BASIN or (
                    dist < same_face
                    and np.array_equal(pts[k] > 0.0, first > 0.0)):
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
# for that very Gamma: certificates by (Gamma, tolerances, whether the depth
# cap is reached), diagonal maxima by Gamma, and line records
# (_line) by Gamma(0) and tol_psd, t* also by axis. One madcap command is
# one process, so these maps are the store of one sweep. Each holds at most
# _STORE_MAX entries, the oldest evicted first; they are kept apart so that
# line churn never evicts certificates. The lock is for library callers
# that certify from several threads.
_CERT_CACHE: dict = {}
_DIAG_MAX: dict = {}
_LINES: dict = {}
_STORE_MAX = 8192
_CERT_LOCK = threading.Lock()

# A border search bisects 60 levels deep, _LEVELS_PER_ROUND levels per
# round at least: each round tests the 2^k - 1 midpoints of the next k levels
# of the bisection tree in one batch, with the bisection paths to secant
# guesses (_border). k = 3 measured fastest on the d = 3 sweep and the d = 4
# quadrant together with tree rounds alone; with guessed paths, k = 2 and 4
# trade batches for points on both, so 3 is kept. A path to a guess stops
# once its bracket is narrower than _SPREAD_CUT of the spread of the round's
# guesses: below that, the guesses' paths have parted, and the next round
# guesses from the points both evaluated. 2^-8 balanced batches against
# points on the d = 3 lattice and the d = 4 quadrant.
_BISECT_LEVELS = 60
_LEVELS_PER_ROUND = 3
_SPREAD_CUT = 2.0 ** -8


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
    complete-damping reduction; None if every one of them receives a decay.

    The top level must receive no decay. Moving the largest such level z to
    the top and keeping the others in order is valid, and it is the first
    valid relabeling in lexicographic order."""
    d = tm.dim
    received = {i for _, i in tm.decays}
    free = [k for k in zeros if k not in received]
    if not free:
        return None
    z = max(free)
    if z == d - 1:
        return tuple(range(d)), tm
    perm = (*range(z), d - 1, *range(z, d - 1))
    return perm, permute_levels(tm, perm)


def _decay_stack(tm: TransitionMatrix, j: int, i: int,
                 ts: np.ndarray) -> np.ndarray:
    """Gamma of tm.with_decay(j, i, t) for every t in ``ts`` (all in
    [0, 1]), with the same arithmetic: only row j changes, and its diagonal
    is max(1 - row sum, 0) as TransitionMatrix sums it."""
    ts = np.asarray(ts, dtype=float)
    g = np.repeat(tm.gamma[None], len(ts), axis=0)
    g[:, j, i] = ts
    g[:, j, j] = np.maximum(1.0 - g[:, j, :j].sum(axis=1), 0.0)
    return g


def _line(tm: TransitionMatrix, j: int, i: int,
          tol_psd: float) -> Tuple[float, bool, Callable[[], float]]:
    """(top, bottom_ok, border) of the line Gamma(t) = tm.with_decay(j, i, t)
    (_decay_stack): top = Gamma(0)[j, j], where level j decays completely;
    bottom_ok, degradable_margins' verdict at Gamma(0); and border(), the
    degradable border t* on [0, top] (_border, probing degradable_margins)
    of a line with bottom_ok, which may lie above gamma_ji. Gamma(0) fixes
    Gamma(t) for every t (same off-diagonals, t at (j, i), row j's diagonal
    recomputed), so the record is the line's alone, whichever point and
    caller ask, and is remembered in _LINES."""
    g0 = _decay_stack(tm, j, i, [0.0])
    key, top = g0.tobytes(), float(g0[0, j, j])
    bottom_ok = _stored(_LINES, (key, tol_psd),
                        lambda: bool(degradable_margins(g0, tol_psd)[0][0]))
    border = partial(_stored, _LINES, (key, j, i, tol_psd), lambda: _border(
        lambda ts: degradable_margins(_decay_stack(tm, j, i, ts), tol_psd),
        0.0, top))
    return top, bottom_ok, border


def _settled(lo: float, hi: float, hi_tested: bool) -> bool:
    """True once no later bisection level can move lo: the next midpoint
    rounds to lo, or to an hi already evaluated false."""
    mid = 0.5 * (lo + hi)
    return mid == lo or (mid == hi and hi_tested)


def _path(lo: float, hi: float, hi_tested: bool, left: int, guess: float,
          width: float) -> List[float]:
    """The midpoints sequential bisection visits from (lo, hi), at most
    ``left`` of them, if pred(t) is t <= guess, while the bracket is at least
    ``width`` wide."""
    mids = []
    while left and hi - lo >= width and not _settled(lo, hi, hi_tested):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if mid <= guess:
            lo = mid
        else:
            hi, hi_tested = mid, True
        left -= 1
    return mids


def _root(a: float, ma: float, b: float, mb: float) -> float:
    """Zero of the line through (a, ma) and (b, mb); nan if it is flat."""
    return b - mb * (b - a) / (mb - ma) if mb != ma else math.nan


def _guesses(seen: dict, lo: float, hi: float) -> List[float]:
    """Secant guesses at the border inside (lo, hi) from the margins in
    ``seen`` (t -> (verdict, margin)): the one-sided secants through the two
    evaluated points nearest the bracket above it and below it, then regula
    falsi between lo and hi. The one-sided secants find the border of a
    margin that is flat at and below lo and linear above it, where regula
    falsi stalls. Non-finite margins and guesses outside (lo, hi) are
    dropped."""
    pts = sorted((t, m) for t, (_, m) in seen.items() if math.isfinite(m))
    below = [p for p in pts if p[0] <= lo][-2:]
    above = [p for p in pts if p[0] >= hi][:2]
    ends = [p for p in pts if p[0] in (lo, hi)]
    out = []
    for pair in (above, below, ends):
        if len(pair) == 2:
            g = _root(*pair[0], *pair[1])
            if lo < g < hi:
                out.append(g)
    return out


def _border(probe, lo: float, hi: float) -> float:
    """Largest t in [lo, hi] with pred true, assuming pred(lo) and not
    pred(hi), by bisection on the boolean, _BISECT_LEVELS levels deep.

    ``probe`` maps an array of t to (verdicts, margins): pred's booleans and
    a signed margin, positive where pred holds, that varies smoothly with t
    (nan where unknown). Whenever the next midpoint has no verdict yet, one
    probe call evaluates the midpoints of the next _LEVELS_PER_ROUND levels
    of the bisection tree, in the first round also lo for its margin, and
    the path bisection would take to each of _guesses' guesses, each path
    stopping once its bracket is narrower than _SPREAD_CUT of the guesses'
    spread (so a lone guess's path runs to the end). Each step applies the
    verdict at its own midpoint, so the answer equals that of sequential
    bisection, whatever the margins are: a wrong guess costs points, never
    answers. The search stops once float resolution leaves lo fixed
    (_settled); the initial hi counts as untested."""
    left, hi_tested, seen = _BISECT_LEVELS, False, {}
    while left and not _settled(lo, hi, hi_tested):
        mid = 0.5 * (lo + hi)
        if mid not in seen:
            ts, level = [] if seen else [lo], [(lo, hi)]
            for _ in range(min(_LEVELS_PER_ROUND, left)):
                nxt = []
                for a, b in level:
                    m = 0.5 * (a + b)
                    ts.append(m)
                    nxt += [(a, m), (m, b)]
                level = nxt
            guesses = _guesses(seen, lo, hi)
            for g in guesses:
                ts += _path(lo, hi, hi_tested, left, g,
                            _SPREAD_CUT * (max(guesses) - min(guesses)))
            ts = list(dict.fromkeys(ts))
            verdicts, margins = probe(np.array(ts))
            seen.update(zip(ts, zip(verdicts.tolist(), margins.tolist())))
        if seen[mid][0]:
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


def certify_capacity(tm: TransitionMatrix, tol_border: float = 1e-6,
                     tol_psd: float = 1e-9,
                     _depth: int = 0) -> CapacityCertificate:
    """Certificate for the quantum capacity of ``tm``. Certificates are
    stored under the exact Gamma, the tolerances and whether _MAX_DEPTH has
    been reached, and the diagonal maxima they use under the exact Gamma, so
    repeated and overlapping calls reuse earlier work; a stored certificate
    may have been computed at another depth below _MAX_DEPTH."""
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
        top, bottom_ok, border = _line(tm, j, i, tol_psd)
        if not bottom_ok:
            continue
        # the complete-damping end, at the line's top where the border
        # search ends, needs no border: drop an axis whose end is not exact
        tm_hi = tm.with_decay(j, i, top)
        sub = certify_capacity(tm_hi, tol_border, tol_psd, _depth + 1)
        if not sub.exact:
            continue
        # a border above gamma_ji would run the monotone path backwards
        t_border = border()
        if t_border > gji:
            continue
        tm_lo = tm.with_decay(j, i, t_border)
        v_low = _diag_max(tm_lo)
        if abs(v_low - sub.value) > tol_border:
            continue
        if not _monotone_axis(tm, j, i):
            # either side's connecting map CP, on both path segments
            try:
                path_ok = all(any(c.cp for c in
                                  monotonicity_certificate(a, b, tol_psd))
                              for a, b in ((tm_lo, tm), (tm, tm_hi)))
            except MadcapError:
                path_ok = False
            if not path_ok:
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
            # through tm with ``zeroed`` at 0, the bottom of ``zeroed``'s line
            _, bottom_ok, border = _line(tm.with_decay(*zeroed, 0.0), j, i,
                                         tol_psd)
            if not bottom_ok or _line(tm, *zeroed, tol_psd)[1]:
                continue
            # checked first: above gamma_ji the kept entry of ``zeroed`` can
            # push the row sum of tm.with_decay(j, i, t*) past 1
            t_star = border()
            if t_star >= gji - 1e-9:
                continue
            end = tm.with_decay(j, i, t_star)
            if _start_grid(end.gamma)[3].max() > lower + 2 * tol_border:
                continue
            sub = certify_capacity(end, tol_border, tol_psd, _depth + 1)
            if not sub.exact:
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
# At most this many iterations: at n = 53, gamma21 = 1 - 2^-n and gamma20 =
# 2^-(n+1) sum to 1.0 in floats, so gamma22 = 0 and Phi_1 has no inverse.
_MAX_ITERATIONS = 52


def mad3_acge_verification(gamma10: float, grid_step: float = 0.05,
                           iterations: int = 3,
                           k_grid: Optional[List[float]] = None,
                           tol_psd: float = 1e-9) -> dict:
    """Iterate the connecting-channel construction on the 3-level slice at
    fixed gamma10: at step n the PSD region of the connecting Choi must be
    omega21 <= 1 - k/2^(n+1), extending the certified-equal-capacity region;
    the certified value is adc_capacity(gamma10), cross-checked against the
    diagonal maximum at the degradable edge point (gamma21=0, gamma20=1/2).
    Every PSD test uses ``tol_psd``. Each step whose gamma22 = 2^-(n+1) is
    below inverse.CONDITIONING_WARN logs one warning. A grid_step whose
    omega grid on [0, 1] would hold more than _MAX_OMEGAS points, or more
    than _MAX_ITERATIONS iterations, raise ConditionViolatedError."""
    if not (0.0 <= gamma10 <= 0.5):
        raise ConditionViolatedError(f"gamma10={gamma10} outside [0, 0.5]")
    if iterations > _MAX_ITERATIONS:
        raise ConditionViolatedError(
            f"iterations={iterations} must be at most {_MAX_ITERATIONS}: "
            "beyond it gamma22 rounds to 0, leaving no connecting map")
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
        if (1.0 - g21) / 2.0 < CONDITIONING_WARN:
            logger.warning("mad3 step n=%d: connecting map poorly conditioned: "
                           "gamma_22 = %g < %g", n, (1.0 - g21) / 2.0,
                           CONDITIONING_WARN)
        k_checks = []
        for k in k_grid:
            bound = 1.0 - k / 2.0 ** (n + 1)
            chois = [connecting_choi(g21, float(w), k) for w in omegas]
            psds = _psd_status(np.stack(chois), tol_psd)[0] == "yes"
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
    edge_deg = is_degradable(edge, tol_psd).degradable
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
