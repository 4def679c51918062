import itertools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from madcap import capacity, structure
from madcap.capacity import (CapacityCertificate, adc_capacity,
                             certify_capacity, coherent_information,
                             diagonal_coherent_information,
                             mad3_acge_verification,
                             max_diagonal_coherent_info,
                             reduce_complete_damping,
                             verify_cd_decomposition)
from madcap.cli import _instantiate, _parse_sweep_spec
from madcap.channel import (TransitionMatrix, permute_levels,
                            random_transition_matrix, single_decay_matrix)
from madcap.errors import ConditionViolatedError, MadcapError
from madcap.linalg import random_density_matrix
from madcap.structure import is_antidegradable, is_degradable

from test_structure import example_channel, sparse_channel

DATA = Path(__file__).resolve().parent / "data"


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


def random_degradable_d3(rng):
    """Random 3-level channel from the two families that stay degradable:
    decays out of the top level only (total < 1/2), or decays straight to
    the ground level only. Generic multi-decay draws are essentially never
    degradable, so rejection sampling on random_transition_matrix stalls."""
    if rng.uniform() < 0.5:
        u = rng.uniform(0.0, 0.5) * rng.dirichlet([1.0, 1.0])
        return TransitionMatrix(3, {(2, 0): float(u[0]), (2, 1): float(u[1])})
    return TransitionMatrix(3, {(1, 0): float(rng.uniform(0.0, 0.5)),
                                (2, 0): float(rng.uniform(0.0, 0.5))})


class TestCoherentInformation:
    def test_identity_channel_maximally_mixed(self):
        for d in (2, 3, 4):
            tm = TransitionMatrix(d, {})
            got = coherent_information(tm, np.eye(d, dtype=complex) / d)
            assert got == pytest.approx(np.log2(d), abs=1e-10)

    def test_complete_decay_gives_minus_input_entropy(self, rng):
        tm = TransitionMatrix(2, {(1, 0): 1.0})
        rho = random_density_matrix(2, rng)
        from madcap.linalg import von_neumann_entropy
        got = coherent_information(tm, rho)
        assert got == pytest.approx(-von_neumann_entropy(rho), abs=1e-9)

    def test_non_finite_state_is_refused(self):
        tm = TransitionMatrix(2, {(1, 0): 0.25})
        with pytest.raises(MadcapError, match="non-finite"):
            coherent_information(tm, np.full((2, 2), np.nan))

    def test_adc_diagonal_closed_form(self):
        tm = TransitionMatrix(2, {(1, 0): 0.25})
        got = coherent_information(tm, np.diag([0.5, 0.5]).astype(complex))
        assert got == pytest.approx(h2(0.375) - h2(0.125), abs=1e-12)
        assert 0.0 < got < 1.0

    def test_diagonal_formula_matches_general(self, rng):
        for d in (2, 3, 4):
            for _ in range(5):
                tm = random_transition_matrix(d, rng)
                p = rng.dirichlet(np.ones(d))
                dense = coherent_information(tm, np.diag(p).astype(complex))
                fast = diagonal_coherent_information(tm, p)
                assert fast == pytest.approx(dense, abs=1e-9)


def reference_grid_values(g, pts):
    """Diagonal coherent information at the rows of ``pts``: x log2 x over
    the stacked output and environment columns, summed by .sum(axis=1)."""
    d = g.shape[0]
    out = pts @ g
    env = np.stack([pts @ np.diag(g)]
                   + [g[j, i] * pts[:, j] for j in range(1, d)
                      for i in range(j)], axis=1)

    def ent(x):
        x = np.where(x > 1e-12, x, 1.0)
        return -np.sum(x * np.log2(x), axis=1)

    return ent(out) - ent(env)


def grid_test_channels(d, rng):
    """Random channels plus the identity, a complete-damping one (gamma_kk
    = 0 at the top level) and ones with some decays exactly zero."""
    yield TransitionMatrix(d, {})
    yield TransitionMatrix(d, {(d - 1, 0): 1.0})
    yield TransitionMatrix(d, {(d - 1, d - 2): 0.4})
    for _ in range(6):
        tm = random_transition_matrix(d, rng)
        yield tm
        kept = {k: v for n, (k, v) in enumerate(sorted(tm.decays.items()))
                if n % 2 == 0}
        yield TransitionMatrix(d, kept)


def random_degradable(d, rng):
    """Random d-level channel from the families of random_degradable_d3:
    decays out of the top level only (total < 1/2), or decays straight to
    the ground level only (each < 1/2)."""
    if rng.uniform() < 0.5:
        u = rng.uniform(0.0, 0.5) * rng.dirichlet(np.ones(d - 1))
        return TransitionMatrix(d, {(d - 1, i): float(u[i])
                                    for i in range(d - 1)})
    return TransitionMatrix(d, {(j, 0): float(rng.uniform(0.0, 0.5))
                                for j in range(1, d)})


def frank_wolfe_gap(tm, p):
    """max_i slope_i - <grad, p> at p, from the maximizer's own slopes."""
    lin, w = capacity._diag_rows(tm.gamma)
    _, _, grad, slopes = capacity._diag_slopes(lin, w, p)
    return float(slopes.max() - grad @ p)


def simplex_scan(d, steps):
    """Every point of the (d-1)-simplex with entries k/steps: the
    compositions of ``steps`` into d parts, from the bar positions of
    stars and bars."""
    rows = []
    for bars in itertools.combinations(range(steps + d - 1), d - 1):
        edges = (-1,) + bars + (steps + d - 1,)
        rows.append([edges[k + 1] - edges[k] - 1 for k in range(d)])
    return np.array(rows) / steps


def grid_start_value(tm, pts):
    """Coherent information at the best point of the scan ``pts``."""
    start = pts[int(np.argmax(reference_grid_values(tm.gamma, pts)))]
    return diagonal_coherent_information(tm, start)


class TestDiagonalMaximization:
    def test_identity_d4(self):
        val, p = max_diagonal_coherent_info(TransitionMatrix(4, {}))
        assert abs(val - 2.0) <= 1e-15
        assert np.max(np.abs(p - 0.25)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_identity_reaches_log_d_at_uniform_input(self, d):
        val, p = max_diagonal_coherent_info(TransitionMatrix(d, {}))
        assert abs(val - np.log2(d)) <= 1e-15
        assert np.max(np.abs(p - 1.0 / d)) <= 1e-12

    def test_frank_wolfe_gap_closes_on_degradable_channels(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(6):
                tm = random_degradable(d, rng)
                assert is_degradable(tm).degradable == "yes", tm.decays
                _, p = max_diagonal_coherent_info(tm)
                assert frank_wolfe_gap(tm, p) <= 1e-9, (d, tm.decays)

    def test_value_plus_gap_bounds_a_dense_scan(self, rng):
        """Concavity makes value + gap an upper bound on the maximum, so it
        must reach the best point of a scan with step 1/300."""
        pts = capacity._simplex_grid(3, 300)
        for _ in range(8):
            tm = random_degradable_d3(rng)
            val, p = max_diagonal_coherent_info(tm)
            oracle = reference_grid_values(tm.gamma, pts).max()
            assert val + frank_wolfe_gap(tm, p) >= oracle, tm.decays
            assert val >= oracle - 1e-9

    def test_value_never_below_the_start_grid(self, rng):
        """Not below the best point of a 1/50 scan: the maximizer's own
        start grid at d = 3, finer than it at d = 4 and 5."""
        for d in (2, 3, 4, 5):
            pts = simplex_scan(d, 50)
            for tm in grid_test_channels(d, rng):
                val, p = max_diagonal_coherent_info(tm)
                assert val >= grid_start_value(tm, pts) - 1e-15, (d, tm.decays)
                assert abs(val - diagonal_coherent_information(tm, p)) <= 1e-12

    @pytest.mark.parametrize("decays, floor", [
        ({(1, 0): 0.23315856237387017, (2, 1): 0.1627591481857663},
         0.9182413745232447),
        ({(2, 0): 0.25335979780914025, (2, 1): 0.05660420637175602,
          (3, 0): 0.1922689879555884, (3, 1): 0.007771885110853572,
          (3, 2): 0.09737341467405235}, 1.1710325852777257),
        # the two best points of the 1/18 grid ascend to 0.70181, the third
        # to the maximum (0.469, 0, 0.524, 0.007)
        ({(1, 0): 0.13204038141088487, (2, 0): 0.01230563033820944,
          (2, 1): 0.40996904581913635, (3, 0): 0.17682037441841927,
          (3, 1): 0.2611988190124576, (3, 2): 0.014610986399159656},
         0.7023431831644241),
        # a start next to the interior best grid point, on a face of it,
        # ascends to the maximum; the best one reaches 1.0351781283607413
        ({(2, 1): .4, (3, 0): .2, (3, 1): .1, (3, 2): .1}, 1.036166413245552),
        # the same at d = 6, where the best one reaches 1.895322104871376
        ({(3, 2): .2, (4, 3): .2, (5, 0): .3, (5, 3): .5}, 1.897954014011384),
    ], ids=["d3", "d4", "d4-third-start", "d4-face-neighbour",
            "d6-face-neighbour"])
    def test_value_reaches_the_better_basin(self, decays, floor):
        """Non-degradable channels with a lower local maximum, which one
        start from the best point of a 1/10 grid reaches on the first two
        (0.91390 and 1.17081); the floors are the values of a 1/50 start
        grid on the first three, and of three ascents from the maximizer's
        own grid on the last two."""
        d = max(j for j, _ in decays) + 1
        val, _ = max_diagonal_coherent_info(TransitionMatrix(d, decays))
        assert val >= floor - 1e-15

    @pytest.mark.parametrize("decays, floor", [
        # every start ascends to p_4 = 0, where level 4 enters with slope
        # +inf but too little to show in f; the maximum has p_4 = 0.012
        ({(1, 0): 0.17076286948696462, (2, 0): 0.24952867459489844,
          (2, 1): 0.24997629288657106, (3, 0): 0.34428766542640954,
          (3, 1): 0.18528181876395722, (3, 2): 0.041250531184716034,
          (4, 0): 0.19254567467042885, (4, 1): 0.23412810796139497,
          (4, 2): 0.005186690661737643, (4, 3): 0.04421026218270955},
         0.5637964628869243),
        # a Newton step from the grid sets p_3, 0.019 at the maximum, to 0
        ({(1, 0): 0.6952853673020486, (2, 0): 0.08704329523773652,
          (2, 1): 0.7003854772322745, (3, 0): 0.08975442682403796,
          (3, 1): 0.6893237482764326}, 1.0037058051470904),
        # the starts end at (0.434, 0.445, 0, 0, 0.122); moving half of p_4
        # onto level 2 reaches the maximum (0.439, 0.442, 0.074, 0, 0.045)
        ({(1, 0): 0.008936469485275902, (2, 0): 0.22041518221978784,
          (2, 1): 0.1113712737501482, (3, 0): 0.31525242129800823,
          (3, 1): 0.027999999160324668, (3, 2): 0.1635527172169083,
          (4, 0): 0.23473617502147223, (4, 1): 0.02799289565398537,
          (4, 2): 0.1455251648960904, (4, 3): 0.01632116874110429},
         1.0190248436420222),
    ], ids=["level-entering-below-resolution", "level-set-to-0-by-a-step",
            "half-of-a-level-moved"])
    def test_face_search_reaches_a_small_level(self, decays, floor):
        """Non-degradable d = 5 channels whose maximum holds one level at a
        few hundredths; the floors are the values of a 1/50 start grid."""
        val, _ = max_diagonal_coherent_info(TransitionMatrix(5, decays))
        assert val >= floor - 1e-15

    def test_grid_steps_is_the_finest_within_the_point_budget(self):
        for d in (4, 5, 6):
            steps = capacity._grid_steps(d)
            assert (math.comb(steps + d - 1, d - 1) <= capacity._GRID_POINTS
                    < math.comb(steps + d, d - 1))
        assert [capacity._grid_steps(d) for d in range(2, 7)] == [
            50, 50, 18, 10, 8]

    def test_neighbour_faces_are_probability_vectors(self, rng):
        for d in (2, 3, 5):
            p = rng.dirichlet(np.ones(d))
            p[d // 2] = 0.0
            p /= p.sum()
            near = capacity._neighbour_faces(p)
            assert len(near) == capacity._ENTER_HALVINGS + 2 * d * (d - 1)
            assert near.min() >= 0.0
            assert np.max(np.abs(near.sum(axis=1) - 1.0)) <= 1e-15
            enter = near[:capacity._ENTER_HALVINGS, d // 2]
            assert enter.tolist() == [0.5 ** k for k in range(
                1, capacity._ENTER_HALVINGS + 1)]
            # moving all of a level's mass leaves it exactly 0
            assert (np.sum(near[-d * (d - 1):] == 0.0, axis=1) >= 1).all()

    def test_one_ascent_where_the_best_grid_points_are_neighbours(
            self, monkeypatch):
        """The next best points neighbour the best one, on a 1/50 grid
        (d = 3) or on its face of the 1/18 grid (d = 4, three ascents
        without the face rule), so they share its ascent; a degradable
        channel has no better face."""
        calls = []
        ascend = capacity._ascend
        monkeypatch.setattr(capacity, "_ascend",
                            lambda *a: calls.append(1) or ascend(*a))
        for tm in (TransitionMatrix(3, {(1, 0): 0.3, (2, 0): 0.1}),
                   TransitionMatrix(4, {(1, 0): 0.3, (3, 2): 0.1})):
            assert is_degradable(tm).degradable == "yes"
            calls.clear()
            max_diagonal_coherent_info(tm)
            assert len(calls) == 1, tm.dim

    def test_d6_value_is_coherent_information_above_a_scan(self, rng):
        pts = simplex_scan(6, 8)
        for _ in range(3):
            tm = random_transition_matrix(6, rng)
            val, p = max_diagonal_coherent_info(tm)
            assert abs(val - diagonal_coherent_information(tm, p)) <= 1e-12
            assert val >= grid_start_value(tm, pts), tm.decays

    def test_continuous_entropy_keeps_an_empty_level_at_zero(self):
        """A floored x log x rewards moving this level from 0 to about
        1e-12, which shifted the 12-digit value; the ascent must not."""
        tm = TransitionMatrix(3, {(1, 0): 0.3, (2, 0): 0.2, (2, 1): 0.3})
        val, p = max_diagonal_coherent_info(tm)
        assert f"{val:.12g}" == "0.327954761914"
        assert p[2] == 0.0

    def test_adc_endpoints(self):
        v0, _ = max_diagonal_coherent_info(TransitionMatrix(2, {}))
        assert v0 == pytest.approx(1.0, abs=1e-7)
        v5, _ = max_diagonal_coherent_info(TransitionMatrix(2, {(1, 0): 0.5}))
        assert abs(v5) < 1e-7

    def test_concavity_for_degradable(self, rng):
        for _ in range(10):
            tm = random_degradable_d3(rng)
            assert is_degradable(tm).degradable == "yes"
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            mid = diagonal_coherent_information(tm, (p + q) / 2)
            avg = (diagonal_coherent_information(tm, p)
                   + diagonal_coherent_information(tm, q)) / 2
            assert mid >= avg - 1e-9

    def test_value_is_coherent_information_at_returned_input(self, rng):
        for d in (2, 3, 4):
            for _ in range(4):
                tm = random_transition_matrix(d, rng)
                val, p = max_diagonal_coherent_info(tm)
                assert abs(val - diagonal_coherent_information(tm, p)) <= 1e-12
                assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cached_simplex_grid_is_read_only(self):
        grid = capacity._simplex_grid(3, 50)
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5
        _, p = max_diagonal_coherent_info(TransitionMatrix(3, {(2, 0): 0.3}))
        p[0] = 0.5  # the maximizer hands back its own, writable copy

    def test_simplex_grid_is_every_composition_in_lexicographic_order(self):
        for d, steps in ((2, 50), (3, 50), (4, 50), (4, 7), (5, 10)):
            rows = [list(c) + [steps - sum(c)]
                    for c in itertools.product(range(steps + 1), repeat=d - 1)
                    if sum(c) <= steps]
            assert np.array_equal(capacity._simplex_grid(d, steps),
                                  np.array(rows) / steps)

    def test_anchor_maxima_are_unchanged(self):
        """The README channel's exact grid optimum, and the LowerBound
        anchor's maximum log2(4/3) at (5/9, 4/9, 0)."""
        readme = TransitionMatrix(4, {(1, 0): 0.7, (3, 2): 0.35,
                                      (3, 0): 0.35})
        val, p = max_diagonal_coherent_info(readme)
        assert (val, p.tolist()) == (1.0, [0.5, 0.0, 0.5, 0.0])
        lower = TransitionMatrix(3, {(1, 0): 0.25, (2, 1): 0.3, (2, 0): 0.2})
        val, p = max_diagonal_coherent_info(lower)
        assert abs(val - math.log2(4 / 3)) <= 1e-15
        assert np.max(np.abs(p - [5 / 9, 4 / 9, 0.0])) <= 1e-12

    def test_relabeling_invariance(self):
        tm = single_decay_matrix(3, 2, 0, 0.4)
        relabeled = permute_levels(tm, (1, 0, 2))  # decay 2->0 becomes 2->1
        v1, _ = max_diagonal_coherent_info(tm)
        v2, _ = max_diagonal_coherent_info(relabeled)
        assert v1 == pytest.approx(v2, abs=1e-7)


class TestAdcCapacity:
    def test_anchors(self):
        assert adc_capacity(0.0) == pytest.approx(1.0, abs=1e-7)
        assert adc_capacity(0.5) == 0.0
        assert adc_capacity(1.0) == 0.0

    def test_matches_binary_entropy_scan(self):
        g = 0.25
        grid = np.linspace(0.0, 1.0, 200001)
        oracle = max(h2((1 - g) * p) - h2(g * p) for p in grid)
        assert adc_capacity(g) == pytest.approx(oracle, abs=1e-8)

    def test_continuity(self):
        h = 1e-3
        slopes = []
        for g in np.arange(0.0, 1.0 - h / 2, 0.05):
            slopes.append(abs(adc_capacity(float(g) + h)
                              - adc_capacity(float(g))) / h)
        assert max(slopes) < 10.0  # empirical max slope ~6.2 near gamma = 0

    @pytest.mark.parametrize("gamma, q", [
        # the maximum of h2((1-g)p) - h2(gp), to 20 digits of a 40-digit
        # mpmath computation
        (0.05, 0.83112461606992091584),
        (0.1, 0.70941826347367190753),
        (0.2, 0.50621524092721283531),
        (0.25, 0.41503749927884381855),
        (0.3, 0.3279547619139562631),
        (0.4, 0.1614798649008507538),
        (0.45, 0.080444848123237823885),
    ])
    def test_matches_high_precision_values(self, gamma, q):
        assert abs(adc_capacity(gamma) - q) <= 2.5e-16

    def test_range_check(self):
        with pytest.raises(ConditionViolatedError):
            adc_capacity(-0.1)


class TestCompleteDamping:
    def test_full_decay_d2_reduces_to_trivial(self):
        red = reduce_complete_damping(TransitionMatrix(2, {(1, 0): 1.0}))
        assert red.dim == 1
        cert = certify_capacity(TransitionMatrix(2, {(1, 0): 1.0}))
        # full decay is also antidegradable, so the cascade may stop at Zero
        assert cert.kind in ("Zero", "ExactByReduction")
        assert cert.exact
        assert cert.value == pytest.approx(0.0, abs=1e-9)

    def test_rejects_surviving_top_level(self):
        with pytest.raises(ConditionViolatedError):
            reduce_complete_damping(TransitionMatrix(2, {(1, 0): 0.5}))

    def test_example_channel_boundary_reduction(self):
        tm = example_channel(0.25, 0.5, 0.5)  # gamma_33 = 0
        red = reduce_complete_damping(tm)
        assert red.dim == 3
        assert red.decays == {(1, 0): 0.25}
        cert = certify_capacity(tm)
        sub = certify_capacity(red)
        assert cert.kind == "ExactByReduction"
        assert cert.value == pytest.approx(sub.value, abs=1e-9)

    def test_reduction_value_sandwich(self):
        """Restricted encoding gives a lower bound and the direct-sum upper
        bound adds at most the one flagged level: Q_red <= Q <= log2(2^Q + 1)."""
        tm = example_channel(0.3, 0.5, 0.5)
        red_val, _ = max_diagonal_coherent_info(reduce_complete_damping(tm))
        cert = certify_capacity(tm)
        assert red_val - 1e-7 <= cert.value <= np.log2(2 ** red_val + 1) + 1e-7

    def test_verify_cd_decomposition(self):
        assert verify_cd_decomposition(TransitionMatrix(2, {(1, 0): 1.0}))
        assert verify_cd_decomposition(
            TransitionMatrix(3, {(2, 0): 0.5, (2, 1): 0.5}))
        assert verify_cd_decomposition(example_channel(0.25, 0.5, 0.5))
        with pytest.raises(ConditionViolatedError):
            verify_cd_decomposition(TransitionMatrix(2, {(1, 0): 0.5}))


def first_cd_permutation(tm, zeros):
    """Brute-force reference for capacity._find_cd_permutation: the first
    relabeling in lexicographic order that keeps every decay downward and
    puts a level of ``zeros`` on top."""
    d = tm.dim
    if d - 1 in zeros:
        return tuple(range(d)), tm
    for perm in itertools.permutations(range(d)):
        if (perm.index(d - 1) in zeros
                and all(perm[i] < perm[j] for j, i in tm.decays)):
            return perm, permute_levels(tm, perm)
    return None


def zero_levels(tm):
    return [k for k in range(1, tm.dim)
            if tm.gamma[k, k] <= capacity._ZERO_LEVEL_TOL]


class TestCompleteDampingRelabeling:
    def check(self, tm):
        zeros = zero_levels(tm)
        got = capacity._find_cd_permutation(tm, zeros)
        want = first_cd_permutation(tm, zeros)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert got[1].gamma.tobytes() == want[1].gamma.tobytes()
        return want is not None

    def test_every_decay_support_up_to_d4(self):
        found = 0
        for d in (2, 3, 4):
            slots = [(j, i) for j in range(1, d) for i in range(j)]
            for mask in itertools.product((0, 1), repeat=len(slots)):
                support = [s for s, m in zip(slots, mask) if m]
                rows = sorted({j for j, _ in support})
                # each emitting row decays completely or halfway
                for full in itertools.product((True, False), repeat=len(rows)):
                    if not any(full):
                        continue
                    total = dict(zip(rows, (1.0 if f else 0.5 for f in full)))
                    width = {j: sum(1 for a, _ in support if a == j)
                             for j in rows}
                    tm = TransitionMatrix(d, {(j, i): total[j] / width[j]
                                              for j, i in support})
                    found += self.check(tm)
        assert found > 0

    @pytest.mark.parametrize("d", [5, 6])
    def test_random_channels(self, d):
        rng = np.random.default_rng(d)
        tried = found = 0
        while tried < 300:
            decays = {}
            for j in range(1, d):
                w = rng.dirichlet(np.ones(j)) * (rng.uniform(size=j) > 0.5)
                if w.sum() == 0.0:
                    continue
                total = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.1, 0.9)
                for i in np.flatnonzero(w):
                    decays[(j, int(i))] = float(total * w[i] / w.sum())
            tm = TransitionMatrix(d, decays)
            if not zero_levels(tm):
                continue
            tried += 1
            found += self.check(tm)
        assert 0 < found < tried


class TestCertifyCapacity:
    def test_zero_for_antidegradable(self):
        cert = certify_capacity(TransitionMatrix(2, {(1, 0): 0.7}))
        assert cert.kind == "Zero"
        assert cert.value == 0.0

    def test_exact_degradable_adc(self):
        cert = certify_capacity(TransitionMatrix(2, {(1, 0): 0.2}))
        assert cert.kind == "ExactDegradable"
        assert cert.value == pytest.approx(adc_capacity(0.2), abs=1e-7)

    def test_identity_d4(self):
        cert = certify_capacity(TransitionMatrix(4, {}))
        assert cert.exact
        assert cert.value == pytest.approx(2.0, abs=1e-7)

    def test_example_region_one_is_constant(self):
        border = certify_capacity(example_channel(0.25, 0.25, 0.25))
        assert border.exact
        for g33 in (0.1, 0.3, 0.45):
            tm = example_channel(0.25, (1 - g33) / 2, (1 - g33) / 2)
            cert = certify_capacity(tm)
            assert cert.kind == "ExactByRegionExtension"
            assert cert.value == pytest.approx(border.value, abs=1e-6)

    def test_example_orange_region_is_one_bit(self):
        for g11, g33 in ((0.1, 0.1), (0.3, 0.45), (0.48, 0.2)):
            tm = example_channel(1 - g11, (1 - g33) / 2, (1 - g33) / 2)
            cert = certify_capacity(tm)
            assert cert.exact, (g11, g33, cert.kind)
            assert cert.value == pytest.approx(1.0, abs=1e-6)

    def test_relabeling_reduction_when_middle_level_decays_fully(self):
        cert = certify_capacity(example_channel(1.0, 0.1, 0.1))
        assert cert.kind == "ExactByReduction"
        neighbor = certify_capacity(example_channel(0.98, 0.1, 0.1))
        assert abs(cert.value - neighbor.value) < 0.05

    def test_zero_and_positive_lower_bound_exclusive(self, rng):
        checked = 0
        while checked < 20:
            d = int(rng.integers(2, 5))
            tm = random_transition_matrix(d, rng)
            # keep the draws on the cheap certification paths
            if not (is_antidegradable(tm)
                    or is_degradable(tm).degradable == "yes"):
                continue
            checked += 1
            cert = certify_capacity(tm)
            assert (cert.kind == "Zero") == is_antidegradable(tm)

    def test_exact_dominates_lower_bounds(self, rng):
        from madcap.structure import best_capacity_witness
        for _ in range(10):
            tm = random_degradable_d3(rng)
            cert = certify_capacity(tm)
            assert cert.exact and cert.value is not None
            diag_val, _ = max_diagonal_coherent_info(tm)
            assert cert.value >= diag_val - 1e-7
            assert cert.value >= best_capacity_witness(tm) - 1e-7

    def test_monotone_along_d3_axes(self):
        """Certificate values never increase along single-axis increases, and
        saturate at the 2-level baseline once the extra level is fully lossy."""
        for g10 in (0.0, 0.2):
            vals = []
            for g20 in np.arange(0.0, 1.0001, 0.2):
                decays = {}
                if g10 > 0:
                    decays[(1, 0)] = g10
                if g20 > 0:
                    decays[(2, 0)] = float(g20)
                cert = certify_capacity(TransitionMatrix(3, decays))
                assert cert.exact
                vals.append(cert.value)
            assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(adc_capacity(g10), abs=1e-6)

    def test_certificate_json(self):
        tm = TransitionMatrix(2, {(1, 0): 0.2})
        cert = certify_capacity(tm)
        import json
        payload = json.loads(cert.to_json(tm))
        assert payload["kind"] == "ExactDegradable"
        assert len(payload["gamma"]) == 2

    def test_unknown_is_never_silent_zero(self):
        cert = CapacityCertificate("Unknown", None)
        assert not cert.exact

    def test_cache_keeps_psd_tolerances_apart(self, fresh_stores):
        tm = TransitionMatrix(3, {(1, 0): 0.028615813918262577,
                                  (2, 0): 0.4184927064735014,
                                  (2, 1): 0.011965525567453882})
        assert certify_capacity(tm, tol_psd=1e-9).kind == "LowerBound"
        assert certify_capacity(tm, tol_psd=1.0).kind == "ExactDegradable"

    @pytest.mark.parametrize("neighbour_first", [False, True])
    def test_certificates_ignore_a_neighbour_in_the_store(self, neighbour_first,
                                                          fresh_stores):
        # Gamma 9e-14 apart: the point is degradable, its neighbour is not
        # (lambda_min about -1e-7), and neither may answer for the other
        point = TransitionMatrix(3, {(1, 0): 0.5, (2, 0): 0.1})
        neighbour = TransitionMatrix(3, {(1, 0): 0.5, (2, 0): 0.1,
                                         (2, 1): 8.999918865715273e-14})
        assert is_degradable(point).degradable == "yes"
        assert is_degradable(neighbour).degradable == "no"
        order = [neighbour, point] if neighbour_first else [point, neighbour]
        kinds = {tm: certify_capacity(tm).kind for tm in order}
        assert kinds[neighbour] == "LowerBound"
        assert kinds[point] == "ExactDegradable"

    def test_programming_errors_in_axis_certificates_propagate(
            self, monkeypatch, fresh_stores):
        # the (2, 1) axis is not always monotone, so the sandwich asks
        # monotonicity_certificate for connecting-map certificates
        tm = TransitionMatrix(4, {(2, 0): 0.3, (2, 1): 0.3})

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(capacity, "monotonicity_certificate", broken)
        with pytest.raises(TypeError, match="injected"):
            certify_capacity(tm)

    @pytest.mark.parametrize("decays, value, provenance", [
        # sandwich: the (2, 1) axis meets its complete-damping end at 1 bit
        ({(2, 1): 0.6}, 1.0,
         "axis (2->1): degradable border at 0.500000001 (value 1.000000000) "
         "matches the complete-damping border (value 1.000000000); "
         "path monotone"),
        # pin: lowering (2, 0) gives an exact upper bound equal to the
        # diagonal maximum
        ({(1, 0): 0.1, (2, 0): 0.6, (2, 1): 0.1}, 0.709418263473672,
         "monotone decrease of (2->0) to 0.500000001 gives exact upper "
         "bound 0.709418263; lower bound 0.709418263 matches"),
        # the analytic border of the (2, 0) axis is 0.1; the search stops
        # where lambda_min crosses -tol_psd·scale
        ({(2, 0): 0.3, (2, 1): 0.4}, 1.0,
         "axis (2->0): degradable border at 0.100000001 (value 1.000000000) "
         "matches the complete-damping border (value 1.000000000); "
         "path monotone"),
        # the README channel
        ({(1, 0): 0.7, (3, 2): 0.35, (3, 0): 0.35}, 1.0,
         "monotone decrease of (1->0) to 0.500000001 gives exact upper "
         "bound 1.000000000; lower bound 1.000000000 matches"),
    ])
    def test_region_extension_forms(self, decays, value, provenance,
                                    fresh_stores):
        dim = 1 + max(j for j, _ in decays)
        cert = certify_capacity(TransitionMatrix(dim, decays))
        assert cert.kind == "ExactByRegionExtension"
        assert abs(cert.value - value) <= 1e-12
        assert cert.provenance == [provenance]

    @pytest.mark.parametrize("tol_psd, border", [(1e-12, "0.100000000"),
                                                 (1e-6, "0.100000750")])
    def test_tol_psd_moves_the_border(self, tol_psd, border, fresh_stores):
        cert = certify_capacity(
            TransitionMatrix(3, {(2, 0): 0.3, (2, 1): 0.4}), tol_psd=tol_psd)
        assert cert.kind == "ExactByRegionExtension"
        assert f"degradable border at {border} " in cert.provenance[0]

    def test_boundary_label_is_never_promoted(self, fresh_stores):
        # lambda_min = -1.33e-8 misses tol_psd = 1e-9 but lies in the band:
        # reported "boundary", and not degradable for the certificate
        tm = TransitionMatrix(3, {(1, 0): 0.5 + 1e-8, (2, 0): 0.1})
        res = is_degradable(tm)
        assert res.degradable == "boundary"
        assert -1e-7 < res.min_choi_eig < -1e-9
        cert = certify_capacity(tm)
        assert cert.kind == "ExactByRegionExtension"
        assert abs(cert.value - 0.7094182634736719) <= 1e-12

    def test_min_eig_within_tolerance_is_degradable(self, fresh_stores):
        tm = TransitionMatrix(3, {(1, 0): 0.5 + 1e-10, (2, 0): 0.1})
        res = is_degradable(tm)
        assert res.degradable == "yes"
        assert -1e-9 < res.min_choi_eig < -1e-12
        assert certify_capacity(tm).kind == "ExactDegradable"

    def test_axis_without_exact_end_skips_border_search(self, monkeypatch,
                                                       fresh_stores):
        # LowerBound anchor: axes (1, 0) and (2, 1) are degradable at t = 0,
        # but only (2, 1) has an exact complete-damping end
        tm = ANCHORS[0]
        cert = certify_capacity(tm)
        assert cert.kind == "LowerBound"
        assert abs(cert.value - math.log2(4 / 3)) <= 1e-15
        # each end at its line's top Gamma(0)[j, j], as the sandwich builds it
        tops = {(j, i): capacity._line(tm, j, i, 1e-9)[0]
                for j, i in [(1, 0), (2, 1)]}
        ends = [tm.with_decay(j, i, top) for (j, i), top in tops.items()]
        assert [certify_capacity(e, _depth=1).exact for e in ends] == [False, True]
        calls = []
        inner = capacity._border

        def counting(*args):
            calls.append(args)
            return inner(*args)

        # the ends are cached now and the line store is emptied, so only
        # the axis loop itself can bisect
        monkeypatch.setattr(capacity, "_LINES", {})
        monkeypatch.setattr(capacity, "_border", counting)
        assert capacity._try_axis_sandwich(tm, 1e-6, 1e-9, 0) is None
        assert len(calls) == 1

    def test_sandwich_end_is_a_function_of_the_line(self, monkeypatch,
                                                    fresh_stores):
        # points of the (2, 1) line through {(2, 0): 0.1}; gamma_21 +
        # gamma_22 rounds to 0.8999999999999999 at some of them, 0.9 at others
        ends = []
        inner = capacity.certify_capacity

        def recording(tm, tol_border, tol_psd, _depth):
            # the sandwich's ends; the (2, 1) axis keeps gamma_20
            if _depth == 1 and tm.gamma[2, 0] == 0.1:
                ends.append(tm.gamma.tobytes())
            return inner(tm, tol_border, tol_psd, _depth)

        monkeypatch.setattr(capacity, "certify_capacity", recording)
        for t in (0.05, 0.06, 0.2, 0.3):
            tm = TransitionMatrix(3, {(2, 0): 0.1, (2, 1): t})
            capacity._try_axis_sandwich(tm, 1e-6, 1e-9, 0)
        assert len(ends) == 4
        assert set(ends) == {TransitionMatrix(3, {(2, 0): 0.1, (2, 1): 0.9})
                             .gamma.tobytes()}

    def test_border_above_gamma_ji_is_not_used(self, monkeypatch,
                                               fresh_stores):
        # every border at its line's top, where level j decays completely
        tops = []
        inner = capacity._line

        def top_border(tm, j, i, tol_psd):
            top, bottom_ok, _ = inner(tm, j, i, tol_psd)

            def border():
                tops.append((j, i, tm.gamma.tobytes()))
                return top

            return top, bottom_ok, border

        monkeypatch.setattr(capacity, "_line", top_border)
        # the sandwich's only axis would otherwise run backwards to 1 bit
        sandwich = TransitionMatrix(3, {(2, 1): 0.6})
        assert capacity._try_axis_sandwich(sandwich, 1e-6, 1e-9, 0) is None
        assert tops == [(2, 1, sandwich.gamma.tobytes())]
        # with (2, 1) kept, tm.with_decay(2, 0, top) would be no channel
        pin = TransitionMatrix(3, {(1, 0): 0.1, (2, 0): 0.6, (2, 1): 0.1})
        tops.clear()
        assert capacity._try_monotone_pin(pin, 0.7, 1e-6, 1e-9, 0) is None
        # the pin's line through pin with (2, 1) zeroed
        assert (2, 0, pin.with_decay(2, 1, 0.0).gamma.tobytes()) in tops

    def test_pin_skips_ends_that_cannot_pin(self, monkeypatch, fresh_stores):
        # LowerBound anchor: the start-grid bound of most pin ends lies
        # above log2(4/3) + 2 tol_border, so they are never certified
        calls = []
        inner = capacity._certify

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(capacity, "_certify", counting)
        cert = certify_capacity(ANCHORS[0])
        assert cert.kind == "LowerBound"
        assert abs(cert.value - math.log2(4 / 3)) <= 1e-15
        assert len(calls) <= 10

    def test_exact_values_are_not_below_the_start_grid_bound(self, rng,
                                                              fresh_stores):
        # what the pin's skip rests on: an exact value is at least the
        # start-grid bound of its channel, less tol_border
        tms = d3_lattice()
        for d in (3, 4):
            tms += [random_transition_matrix(d, rng) for _ in range(50)]
            tms += [sparse_channel(d, rng) for _ in range(50)]
        exact = 0
        for tm in tms:
            cert = certify_capacity(tm)
            if cert.exact:
                exact += 1
                bound = capacity._start_grid(tm.gamma)[3].max()
                assert cert.value >= bound - 1e-6, tm.decays
        assert len(tms) == 926
        assert exact > 400

    def test_atlas_subset_matches_the_reference(self, fresh_stores):
        # a seeded 300-point subset of the 0.2-step d = 4 atlas, with kind,
        # repr(value) and provenance as tests/data/make_atlas_reference.py
        # recorded them; it holds both region-extension forms
        ref = json.loads((DATA / "atlas_d4_reference.json").read_text())
        spec = json.loads((DATA / ref["spec"]).read_text())
        dim, decays, names, _, _, _ = _parse_sweep_spec(spec)
        firsts = [row["provenance"][0] for row in ref["points"]
                  if row["kind"] == "ExactByRegionExtension"]
        assert len(ref["points"]) == 300
        assert sum(f.startswith("monotone decrease") for f in firsts) >= 4
        assert sum(f.startswith("axis") for f in firsts) >= 10
        mismatches = []
        for row in ref["points"]:
            cert = certify_capacity(_instantiate(dim, decays, names,
                                                 row["coords"]))
            got = (cert.kind, repr(cert.value), cert.provenance)
            if got != (row["kind"], row["value"], row["provenance"]):
                mismatches.append((row["coords"], got))
        assert mismatches == []


def d3_lattice():
    """The 726 channels of the 1/10 lattice in (g10, g20, g21), in the
    sweep's grid order."""
    tenths = [round(0.1 * k, 12) for k in range(11)]
    return [TransitionMatrix(3, {(1, 0): tenths[a], (2, 0): tenths[b],
                                 (2, 1): tenths[c]})
            for a, b, c in itertools.product(range(11), repeat=3)
            if b + c <= 10]


def certified_grid(dim, axes, ranges):
    """Certify, in grid order, every channel of a grid whose coordinate a
    sets the decay axes[a] to a value of ranges[a]; points that are no
    channel are left out. Returns {index tuple: (tm, certificate)}."""
    grid = {}
    for ks in itertools.product(*(range(len(r)) for r in ranges)):
        try:
            tm = TransitionMatrix(dim, {ax: r[k] for ax, r, k
                                        in zip(axes, ranges, ks)})
        except MadcapError:
            continue
        grid[ks] = (tm, certify_capacity(tm))
    return grid


def monotone_axis_audit(axes, grid, tol=1e-6):
    """Check a certified grid (certified_grid) along each monotone axis
    (_monotone_axis): raising the entry by one grid step never lifts a
    point's value (exact, or L) above an exact neighbour's value by more
    than tol. Returns the number of (point, neighbour one step down) pairs
    in the grid along monotone axes, and the pairs that break the rule, as
    index tuples; only a pair with an exact neighbour can break it."""
    pairs, broken = 0, []
    for ks, (tm, cert) in grid.items():
        for a, (j, i) in enumerate(axes):
            below = ks[:a] + (ks[a] - 1,) + ks[a + 1:]
            if below not in grid or not capacity._monotone_axis(tm, j, i):
                continue
            pairs += 1
            lower = grid[below][1]
            if lower.exact and cert.value is not None \
                    and cert.value > lower.value + tol:
                broken.append((ks, below))
    return pairs, broken


def relabeling_audit(grid, tol=1e-6):
    """Check a certified grid (certified_grid) under level relabeling: for
    each point and each other permutation that keeps its decays downward
    (permute_levels) and lands on a grid point, two exact values agree
    within tol, and where only one of them is exact the other's value (a
    lower bound, or none) is at most that value + tol. Returns the number of
    such (point, permutation) pairs and the (point, image) index pairs that
    break the rule."""
    where = {tm.gamma.tobytes(): ks for ks, (tm, _) in grid.items()}
    pairs, broken = 0, []
    for ks, (tm, cert) in grid.items():
        # permutations() yields the identity first
        for perm in itertools.islice(itertools.permutations(range(tm.dim)),
                                     1, None):
            try:
                image = where.get(permute_levels(tm, perm).gamma.tobytes())
            except MadcapError:  # a decay would go upward
                continue
            if image is None:
                continue
            pairs += 1
            other = grid[image][1]
            if cert.exact and other.exact:
                ok = abs(cert.value - other.value) <= tol
            elif cert.exact or other.exact:
                exact, bound = (cert, other) if cert.exact else (other, cert)
                ok = bound.value is None or bound.value <= exact.value + tol
            else:
                ok = True
            if not ok:
                broken.append((ks, image))
    return pairs, broken


class TestRelabelingAudit:
    """Capacity is invariant under level relabeling, which no single
    certificate checks: relabeling_audit over a certified grid."""

    def test_lattice_pairs_hold_and_a_raised_value_breaks_them(
            self, fresh_stores):
        axes = [(1, 0), (2, 0), (2, 1)]
        tenths = [round(0.1 * k, 12) for k in range(11)]
        grid = certified_grid(3, axes, [tenths] * 3)
        assert relabeling_audit(grid) == (210, [])
        # g20 = 0.3 alone relabels to g10 = 0.3 alone and g21 = 0.3 alone
        ks, images = (0, 3, 0), [(3, 0, 0), (0, 0, 3)]
        assert all(grid[k][1].exact for k in [ks] + images)
        tm, cert = grid[ks]
        both_ways = sorted([(ks, k) for k in images]
                           + [(k, ks) for k in images])
        grid[ks] = (tm, CapacityCertificate(cert.kind, cert.value + 1e-3,
                                            cert.provenance))
        pairs, broken = relabeling_audit(grid)
        assert (pairs, sorted(broken)) == (210, both_ways)
        # a lower bound may lie below an exact image's value, not above it
        for shift, want in ((-0.1, []), (1e-3, both_ways)):
            grid[ks] = (tm, CapacityCertificate("LowerBound",
                                                cert.value + shift, []))
            assert sorted(relabeling_audit(grid)[1]) == want


class TestMonotoneAxisAudit:
    """Capacity does not rise along a monotone axis, which no single
    certificate checks: monotone_axis_audit over certified grids."""

    def test_lattice_pairs_hold_and_a_raised_value_breaks_one(
            self, fresh_stores):
        axes = [(1, 0), (2, 0), (2, 1)]
        tenths = [round(0.1 * k, 12) for k in range(11)]
        grid = certified_grid(3, axes, [tenths] * 3)
        assert len(grid) == 726
        assert monotone_axis_audit(axes, grid) == (1870, [])
        # g10 = 0.5 and 0.6 (g20 = g21 = 0) both carry exactly 1 bit
        ks, below = (6, 0, 0), (5, 0, 0)
        assert grid[below][1].exact
        assert grid[ks][1].value == grid[below][1].value == 1.0
        tm, cert = grid[ks]
        grid[ks] = (tm, CapacityCertificate(cert.kind, cert.value + 1e-3,
                                            cert.provenance))
        assert monotone_axis_audit(axes, grid) == (1870, [(ks, below)])

    def test_atlas_block_pairs_hold(self, fresh_stores):
        # a block of the 0.2-step d = 4 atlas rich in exact neighbours:
        # g10, g30 from 0.2, g20 from 0.4, g21, g31, g32 up to 0.8
        spec = json.loads((DATA / "atlas_d4.json").read_text())
        dim, decays, _, ranges, _, _ = _parse_sweep_spec(spec)
        axes = [(j, i) for j, i, _ in decays]
        block = [(1, 5), (2, 5), (0, 4), (1, 5), (0, 4), (0, 4)]
        grid = certified_grid(dim, axes, [r[a:b + 1] for r, (a, b)
                                          in zip(ranges, block)])
        assert len(grid) == 1750
        pairs, broken = monotone_axis_audit(axes, grid)
        assert (pairs, broken) == (4400, [])
        assert relabeling_audit(grid) == (1560, [])


def sequential_bisection(pred, lo, hi):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


# What _border's probe may say as margins: the true ones, and margins that
# lie. Guesses only choose which points a batch evaluates, so every search
# must equal sequential bisection whatever the margins are.
MARGINS = {
    "true": lambda m, rng: m,
    "random": lambda m, rng: rng.standard_normal(len(m)),
    "nan": lambda m, rng: np.full(len(m), np.nan),
    "flipped": lambda m, rng: -m,
    "constant": lambda m, rng: np.full(len(m), 0.25),
}


def probe(pred, margin, kind, rng, calls=None):
    """_border's probe: pred's verdicts and margin(ts) as MARGINS[kind]
    passes them on; records each batch's size in ``calls``."""
    def batch(ts):
        if calls is not None:
            calls.append(len(ts))
        return pred(ts), MARGINS[kind](margin(ts), rng)

    return batch


def zeroed_channel(tm, zeroed):
    """tm with the decay ``zeroed`` at 0, the channel of the pin's line;
    tm itself when ``zeroed`` is None."""
    return tm if zeroed is None else tm.with_decay(*zeroed, 0.0)


def line_pred(tm, j, i):
    """One-t-per-call degradable_margins mask on the line Gamma(t) of
    _line."""
    return lambda t: bool(structure.degradable_margins(
        capacity._decay_stack(tm, j, i, [t]), 1e-9)[0][0])


class TestBorderSearch:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 7])
    def test_threshold_borders_match_sequential_bisection(self, rng,
                                                           monkeypatch, levels):
        monkeypatch.setattr(capacity, "_LEVELS_PER_ROUND", levels)
        for _, kind in itertools.product(range(20), MARGINS):
            hi = float(rng.uniform(0.01, 1.0))
            t_star = float(rng.uniform(0.0, hi))
            calls = []
            got = capacity._border(probe(lambda ts: ts <= t_star,
                                         lambda ts: t_star - ts, kind, rng,
                                         calls), 0.0, hi)
            assert got == sequential_bisection(lambda t: t <= t_star, 0.0, hi)
            if kind == "true":
                # linear margins: the path to the first guess is the
                # bisection's but for rounding in the last few levels
                assert len(calls) <= 4

    @pytest.mark.parametrize("levels", [1, 3, 4])
    def test_non_monotone_predicate_matches_sequential_bisection(
            self, rng, monkeypatch, levels):
        monkeypatch.setattr(capacity, "_LEVELS_PER_ROUND", levels)

        def margin(t):
            return np.sin(1.0 / (np.asarray(t) + 1e-3))

        for kind in MARGINS:
            got = capacity._border(probe(lambda ts: margin(ts) > 0.0, margin,
                                         kind, rng), 0.0, 0.7)
            assert got == sequential_bisection(
                lambda t: bool(margin(t) > 0.0), 0.0, 0.7)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_float_resolution_stop_keeps_sequential_answers(self, rng, width):
        for _, kind in itertools.product(range(50), MARGINS):
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo
            for _ in range(width):
                hi = float(np.nextafter(hi, 2.0))
            # pred true at hi, which _border never assumes tested
            for pred, root in ((lambda ts: ts <= hi, hi),
                               (lambda ts: ts < hi, hi),
                               (lambda ts: ts <= lo, lo)):
                calls = []
                want = sequential_bisection(lambda t: bool(pred(t)), lo, hi)
                got = capacity._border(probe(pred, lambda ts: root - ts,
                                             kind, rng, calls), lo, hi)
                assert got == want
                assert len(calls) <= 2 * width

    def test_sparse_line_borders_match_sequential_bisection(self,
                                                            fresh_stores):
        # random sparse d = 3/4 lines, with and without a second entry
        # zeroed, each border searched cold and against one t per call
        rng = np.random.default_rng(1313)
        lines = 0
        for k in range(60):
            d = 3 + k % 2
            tm = sparse_channel(d, rng)
            for (j, i), zeroed in itertools.product(
                    sorted(tm.decays), [None, *sorted(tm.decays)]):
                if (j, i) == zeroed:
                    continue
                line_tm = zeroed_channel(tm, zeroed)
                top, bottom_ok, border = capacity._line(line_tm, j, i, 1e-9)
                if not bottom_ok:
                    continue
                lines += 1
                assert border() == sequential_bisection(
                    line_pred(line_tm, j, i), 0.0, top)
        assert lines >= 100

    def test_kinked_line_needs_few_batches(self, monkeypatch, fresh_stores):
        # lambda_min is flat at 0 up to t = 0.01, then falls: regula falsi
        # from the flat end stalls, the secant through points above the
        # border does not
        tm = TransitionMatrix(4, {(1, 0): 0.98, (3, 2): 0.49, (3, 0): 0.49})
        calls = []
        inner = capacity.degradable_margins

        def counting(gammas, tol):
            calls.append(len(gammas))
            return inner(gammas, tol)

        monkeypatch.setattr(capacity, "degradable_margins", counting)
        line_tm = zeroed_channel(tm, (1, 0))
        top, bottom_ok, border = capacity._line(line_tm, 3, 2, 1e-9)
        calls.clear()
        t_star = border()
        assert bottom_ok
        assert t_star == sequential_bisection(line_pred(line_tm, 3, 2),
                                              0.0, top)
        assert abs(t_star - 0.01) <= 1e-8
        # blind 7-point tree rounds take 20 batches here
        assert len(calls) <= 8

    def test_sandwich_and_pin_share_a_key_for_one_predicate(
            self, monkeypatch):
        # one stored bottom verdict and one border per line Gamma(t) and PSD
        # tolerance: the verdict is keyed (Gamma(0), tol_psd), the border
        # (Gamma(0), j, i, tol_psd)
        monkeypatch.setattr(capacity, "_LINES", {})
        tm = TransitionMatrix(3, {(1, 0): 0.25, (2, 1): 0.3})
        # the pin's lines go through tm with a second entry zeroed: (2, 0)
        # is already 0, so that line is the sandwich's
        searches = [(tm, 2, 1, 1e-9),
                    (zeroed_channel(tm, (2, 0)), 2, 1, 1e-9),
                    (zeroed_channel(tm, (1, 0)), 2, 1, 1e-9),
                    (tm.with_decay(2, 1, 0.6), 2, 1, 1e-9),
                    (tm, 2, 1, 1e-8)]
        stored = []
        for args in searches:
            _, bottom_ok, border = capacity._line(*args)
            assert bottom_ok
            border()
            sizes = [len(k) for k in capacity._LINES]
            stored.append((sizes.count(2), sizes.count(4)))
        assert stored == [(1, 1), (1, 1), (2, 2), (2, 2), (3, 3)]

    def test_line_border_depends_on_the_line_only(self, rng, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return structure.degradable_margins(*args)

        monkeypatch.setattr(capacity, "degradable_margins", counting)
        lines = 0
        for d in (3, 4):
            for _ in range(10):
                tm = random_transition_matrix(d, rng)
                for (j, i), zeroed in itertools.product(sorted(tm.decays),
                                                        [None, (d - 1, 0)]):
                    if (j, i) == zeroed:
                        continue
                    pred = line_pred(zeroed_channel(tm, zeroed), j, i)
                    if not pred(0.0):
                        continue
                    lines += 1
                    # points on the line: t = 0, the channel itself and
                    # random t up to where the row keeps its other entries
                    room = float(tm.gamma[j, i] + tm.gamma[j, j])
                    ts = np.r_[0.0, tm.gamma[j, i], rng.uniform(0, room, 3)]
                    points = [tm.with_decay(j, i, float(t)) for t in ts]
                    top = float(capacity._decay_stack(
                        zeroed_channel(tm, zeroed), j, i, [0.0])[0, j, j])
                    got = []
                    for point in points:
                        monkeypatch.setattr(capacity, "_LINES", {})
                        record = capacity._line(
                            zeroed_channel(point, zeroed), j, i, 1e-9)
                        got.append((record[0], record[1], record[2]()))
                    want = sequential_bisection(pred, 0.0, top)
                    assert got == [(top, True, want)] * len(points)
                    # a warm repeat from any point makes no predicate call,
                    # for the bottom's verdict or the border
                    calls.clear()
                    for point in points:
                        record = capacity._line(
                            zeroed_channel(point, zeroed), j, i, 1e-9)
                        assert record[1] and record[2]() == want
                    assert calls == []
        assert lines >= 10

    def test_decay_stack_equals_with_decay(self, rng):
        # bytes, so that -0.0 cannot pass for +0.0; from d = 9 on, rows
        # j >= 8 take TransitionMatrix's np.sum branch
        for d in range(2, 11):
            for draw in range(5):
                tm = random_transition_matrix(d, rng)
                axes = sorted(tm.decays)
                # the last draw's axis is in the top row
                k = len(axes) - 1 if draw == 4 else int(rng.integers(len(axes)))
                j, i = axes[k]
                gji = tm.gamma[j, i]
                ts = np.r_[0.0, gji, rng.uniform(0.0, gji, 6)]
                want = np.stack([tm.with_decay(j, i, t).gamma for t in ts])
                got = capacity._decay_stack(tm, j, i, ts)
                assert got.tobytes() == want.tobytes()
                # the pin's lines: through tm with a second entry zeroed,
                # which is zeroing it on the line itself
                for j2, i2 in axes:
                    tm_z = tm.with_decay(j2, i2, 0.0)
                    got = capacity._decay_stack(tm_z, j, i, ts).tobytes()
                    want = np.stack([tm_z.with_decay(j, i, t).gamma
                                     for t in ts])
                    assert got == want.tobytes()
                    if (j2, i2) != (j, i):
                        want = np.stack([tm.with_decay(j, i, t)
                                         .with_decay(j2, i2, 0.0).gamma
                                         for t in ts])
                        assert got == want.tobytes()


# the d = 3 LowerBound point and the README channel
ANCHORS = [TransitionMatrix(3, {(1, 0): 0.25, (2, 1): 0.3, (2, 0): 0.2}),
           example_channel(0.7, 0.35, 0.35)]


class TestCertificateCache:
    def test_diagonal_maximum_once_per_gamma_in_a_call(self, monkeypatch,
                                                       fresh_stores):
        seen = []
        inner = capacity.max_diagonal_coherent_info

        def counting(tm, *args, **kwargs):
            seen.append(tm.gamma.tobytes())
            return inner(tm, *args, **kwargs)

        monkeypatch.setattr(capacity, "max_diagonal_coherent_info", counting)
        assert certify_capacity(ANCHORS[0]).kind == "LowerBound"
        assert len(seen) == len(set(seen)) > 1

    def test_lattice_pass_tests_each_single_gamma_once(self, monkeypatch,
                                                      fresh_stores):
        # each line's bottom verdict is decided once and shared by both
        # region-extension forms: no single Gamma reaches degradable_margins
        # twice outside a border search, and border batches are the rest
        # (661 calls in all; 2031 with blind tree rounds, 5316 while each
        # form tested its own bottoms)
        calls, singles, searching = [], [], []
        inner, inner_border = capacity.degradable_margins, capacity._border

        def counting(gammas, tol):
            calls.append(len(gammas))
            if len(gammas) == 1 and not searching:
                singles.append(gammas[0].tobytes())
            return inner(gammas, tol)

        def border(*args):
            # a border batch may hold one point, which may be another
            # line's bottom
            searching.append(True)
            try:
                return inner_border(*args)
            finally:
                searching.pop()

        monkeypatch.setattr(capacity, "degradable_margins", counting)
        monkeypatch.setattr(capacity, "_border", border)
        for tm in d3_lattice():
            certify_capacity(tm)
        assert len(singles) == len(set(singles)) > 0
        assert len(calls) <= 700

    def test_cold_warm_and_evicting_caches_agree(self, rng, monkeypatch,
                                                 fresh_stores):
        tms = ANCHORS + [random_transition_matrix(3, rng) for _ in range(4)]
        cold = []
        for tm in tms:
            fresh_stores()
            cert = certify_capacity(tm)
            cold.append((cert.kind, cert.value))
        fresh_stores()
        warm = [certify_capacity(tm) for tm in reversed(tms)][::-1]
        assert [(c.kind, c.value) for c in warm] == cold
        fresh_stores()
        monkeypatch.setattr(capacity, "_STORE_MAX", 3)
        evicting = []
        for tm in tms:
            cert = certify_capacity(tm)
            evicting.append((cert.kind, cert.value))
            assert len(capacity._CERT_CACHE) <= 3
            assert len(capacity._DIAG_MAX) <= 3
            assert len(capacity._LINES) <= 3
        assert evicting == cold

    @staticmethod
    def run_threads(work_item, n_items):
        """Eight threads each run work_item over a permutation of
        range(n_items) with a 1 us switch interval, all without error."""
        errors, done = [], []

        def work(seed):
            try:
                for k in np.random.default_rng(seed).permutation(n_items):
                    work_item(int(k))
                done.append(seed)
            except Exception as exc:  # KeyError or RuntimeError from a race
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(done) == list(range(8))

    def test_threads_share_a_small_cache(self, monkeypatch):
        # cheap antidegradable channels, so nearly all the time goes to the
        # cache; with a cap of 2 every insertion evicts
        tms = [TransitionMatrix(2, {(1, 0): 0.5 + 1e-4 * k}) for k in range(4000)]
        monkeypatch.setattr(capacity, "_CERT_CACHE", {})
        monkeypatch.setattr(capacity, "_STORE_MAX", 2)

        def item(k):
            assert certify_capacity(tms[k]).kind == "Zero"

        self.run_threads(item, len(tms))
        assert len(capacity._CERT_CACHE) <= 2

    def test_threads_share_a_small_border_store(self, monkeypatch):
        # threshold predicates on 16 lines; with a cap of 2 nearly every
        # bottom verdict and search evicts another thread's record
        tms = [TransitionMatrix(3, {(2, 0): 0.05 * (k + 1), (2, 1): 0.1})
               for k in range(16)]

        def threshold(gammas, tol):
            return (gammas[:, 2, 1] <= 0.3 * gammas[:, 2, 0],
                    0.3 * gammas[:, 2, 0] - gammas[:, 2, 1])

        # each line's top is Gamma(0)[2, 2] = 1 - gamma_20
        want = [sequential_bisection(lambda t, tm=tm: t <= 0.3 * tm.gamma[2, 0],
                                     0.0, 1.0 - tm.gamma[2, 0]) for tm in tms]
        monkeypatch.setattr(capacity, "degradable_margins", threshold)
        monkeypatch.setattr(capacity, "_LINES", {})
        monkeypatch.setattr(capacity, "_STORE_MAX", 2)

        def item(k):
            _, bottom_ok, border = capacity._line(tms[k % 16], 2, 1, 1e-9)
            assert bottom_ok and border() == want[k % 16]

        self.run_threads(item, 160)
        assert len(capacity._LINES) <= 2


class TestMad3Verification:
    def test_gamma10_zero_slice(self):
        rep = mad3_acge_verification(0.0, grid_step=0.1, iterations=2)
        assert rep["certificate_value"] == pytest.approx(1.0, abs=1e-7)
        assert rep["crosscheck"]["matches"]

    def test_gamma10_half_slice(self):
        rep = mad3_acge_verification(0.5, grid_step=0.1, iterations=1)
        assert rep["certificate_value"] == 0.0

    def test_boundary_values_and_mismatches(self):
        rep = mad3_acge_verification(0.2, grid_step=0.05, iterations=3)
        for step in rep["steps"]:
            n = step["n"]
            assert step["gamma21"] == pytest.approx(1 - 2.0 ** (-n))
            for kc in step["k_checks"]:
                assert kc["analytic_bound"] == pytest.approx(
                    1 - kc["k"] / 2.0 ** (n + 1))
                assert kc["mismatches"] == 0
        assert rep["certified_omega_max"] == pytest.approx(1 - 2.0 ** -4)

    def test_mismatches_equal_a_count_per_omega(self):
        # tol_psd = 0.1 passes Chois outside the region, so counts are > 0;
        # the count is redone one omega and one Choi at a time
        step = 0.05
        rep = mad3_acge_verification(0.2, grid_step=step, iterations=3,
                                     tol_psd=0.1)
        total = 0
        for n_step in rep["steps"]:
            g21 = n_step["gamma21"]
            for kc in n_step["k_checks"]:
                k, bound, count = kc["k"], kc["analytic_bound"], 0
                for w in np.arange(0.0, 1.0 + 1e-12, step):
                    c = structure.connecting_choi(g21, float(w), k)
                    psd = structure._psd_status(c[None], 0.1)[0][0] == "yes"
                    expected = g21 <= w + 1e-12 and w <= bound + 1e-12
                    if (psd != expected
                            and min(abs(w - bound), abs(w - g21)) > step):
                        count += 1
                assert kc["mismatches"] == count, (n_step["n"], k)
                total += count
        assert total > 0

    def test_range_check(self):
        with pytest.raises(ConditionViolatedError):
            mad3_acge_verification(0.7)

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), 1e-300, 1e-7,
                                      0.99e-4])
    def test_omega_grid_is_bounded(self, step):
        with pytest.raises(ConditionViolatedError):
            mad3_acge_verification(0.2, grid_step=step, iterations=0)

    def test_iterations_are_bounded(self, monkeypatch):
        # at n = 52 gamma22 = 2^-53 survives; at 53 it rounds to 0
        rep = mad3_acge_verification(0.2, grid_step=0.5, iterations=52)
        assert rep["steps"][-1]["n"] == 52
        built = []
        monkeypatch.setattr(capacity, "connecting_chois",
                            lambda *args: built.append(args))
        with pytest.raises(ConditionViolatedError, match="iterations.*52"):
            mad3_acge_verification(0.2, grid_step=0.5, iterations=53)
        assert built == []
