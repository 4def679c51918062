import itertools
import math
import sys
import threading

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
from madcap.channel import (TransitionMatrix, permute_levels,
                            random_transition_matrix, single_decay_matrix)
from madcap.errors import ConditionViolatedError
from madcap.linalg import random_density_matrix
from madcap.structure import is_antidegradable, is_degradable

from test_structure import sparse_channel


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


def example_channel(gamma10, gamma32, gamma30):
    decays = {}
    if gamma10 > 0:
        decays[(1, 0)] = gamma10
    if gamma32 > 0:
        decays[(3, 2)] = gamma32
    if gamma30 > 0:
        decays[(3, 0)] = gamma30
    return TransitionMatrix(4, decays)


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
    ], ids=["d3", "d4", "d4-third-start"])
    def test_value_reaches_the_better_basin(self, decays, floor):
        """Non-degradable channels with a lower local maximum, which one
        start from the best point of a 1/10 grid reaches on the first two
        (0.91390 and 1.17081); the floors are the values of a 1/50 start
        grid."""
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
        """On a 1/50 grid the next best points neighbour the best one, so
        they share its ascent; a degradable channel has no better face."""
        calls = []
        ascend = capacity._ascend
        monkeypatch.setattr(capacity, "_ascend",
                            lambda *a: calls.append(1) or ascend(*a))
        tm = TransitionMatrix(3, {(1, 0): 0.3, (2, 0): 0.1})
        assert is_degradable(tm).degradable == "yes"
        max_diagonal_coherent_info(tm)
        assert len(calls) == 1

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
        # _axis_cert_ok for connecting-map certificates
        tm = TransitionMatrix(4, {(2, 0): 0.3, (2, 1): 0.3})

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(structure, "monotonicity_certificate", broken)
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
        tops = {(j, i): float(capacity._decay_stack(tm, j, i, [0.0])[0, j, j])
                for j, i in [(1, 0), (2, 1)]}
        ends = [tm.with_decay(j, i, top) for (j, i), top in tops.items()]
        assert [certify_capacity(e, _depth=1).exact for e in ends] == [False, True]
        calls = []
        inner = capacity._border

        def counting(*args):
            calls.append(args)
            return inner(*args)

        # the ends are cached now and the border store is emptied, so only
        # the axis loop itself can bisect
        monkeypatch.setattr(capacity, "_BORDERS", {})
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

        def top_border(tm, j, i, tol_psd, zeroed=None):
            tops.append((j, i, zeroed))
            g0 = capacity._decay_stack(tm, j, i, [0.0], zeroed)[0]
            return float(g0[j, j])

        monkeypatch.setattr(capacity, "_line_border", top_border)
        # the sandwich's only axis would otherwise run backwards to 1 bit
        sandwich = TransitionMatrix(3, {(2, 1): 0.6})
        assert capacity._try_axis_sandwich(sandwich, 1e-6, 1e-9, 0) is None
        assert tops == [(2, 1, None)]
        # with (2, 1) kept, tm.with_decay(2, 0, top) would be no channel
        pin = TransitionMatrix(3, {(1, 0): 0.1, (2, 0): 0.6, (2, 1): 0.1})
        tops.clear()
        assert capacity._try_monotone_pin(pin, 0.7, 1e-6, 1e-9, 0) is None
        assert (2, 0, (2, 1)) in tops

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
        tenths = [round(0.1 * k, 12) for k in range(11)]
        tms = [TransitionMatrix(3, {(1, 0): tenths[a], (2, 0): tenths[b],
                                    (2, 1): tenths[c]})
               for a, b, c in itertools.product(range(11), repeat=3)
               if b + c <= 10]
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


def sequential_bisection(pred, lo, hi):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestBorderSearch:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 7])
    def test_threshold_borders_match_sequential_bisection(self, rng,
                                                           monkeypatch, levels):
        monkeypatch.setattr(capacity, "_LEVELS_PER_ROUND", levels)
        for _ in range(20):
            hi = float(rng.uniform(0.01, 1.0))
            t_star = float(rng.uniform(0.0, hi))
            got = capacity._border(lambda ts: ts <= t_star, 0.0, hi)
            assert got == sequential_bisection(lambda t: t <= t_star, 0.0, hi)

    @pytest.mark.parametrize("levels", [1, 3, 4])
    def test_non_monotone_predicate_matches_sequential_bisection(
            self, monkeypatch, levels):
        monkeypatch.setattr(capacity, "_LEVELS_PER_ROUND", levels)

        def pred(t):
            return np.sin(1.0 / (np.asarray(t) + 1e-3)) > 0.0

        got = capacity._border(pred, 0.0, 0.7)
        assert got == sequential_bisection(lambda t: bool(pred(t)), 0.0, 0.7)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_float_resolution_stop_keeps_sequential_answers(self, rng, width):
        for _ in range(50):
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo
            for _ in range(width):
                hi = float(np.nextafter(hi, 2.0))
            # pred true at hi, which _border never assumes tested
            for pred in (lambda ts: ts <= hi, lambda ts: ts < hi,
                         lambda ts: ts <= lo):
                calls = []

                def counting(ts, pred=pred):
                    calls.append(len(ts))
                    return pred(ts)

                want = sequential_bisection(lambda t: bool(pred(t)), lo, hi)
                assert capacity._border(counting, lo, hi) == want
                assert len(calls) <= 2 * width

    def test_sandwich_and_pin_share_a_key_for_one_predicate(
            self, monkeypatch):
        # one stored border per line Gamma(t) and PSD tolerance
        monkeypatch.setattr(capacity, "_BORDERS", {})
        tm = TransitionMatrix(3, {(1, 0): 0.25, (2, 1): 0.3})
        searches = [(tm, 2, 1, 1e-9), (tm, 2, 1, 1e-9, (2, 0)),
                    (tm, 2, 1, 1e-9, (1, 0)),
                    (tm.with_decay(2, 1, 0.6), 2, 1, 1e-9),
                    (tm, 2, 1, 1e-8)]
        stored = []
        for args in searches:
            capacity._line_border(*args)
            stored.append(len(capacity._BORDERS))
        assert stored == [1, 1, 2, 2, 3]

    def test_line_border_depends_on_the_line_only(self, rng, monkeypatch):
        calls = []
        inner = capacity._degradable_at

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(capacity, "_degradable_at", counting)
        lines = 0
        for d in (3, 4):
            for _ in range(10):
                tm = random_transition_matrix(d, rng)
                for (j, i), zeroed in itertools.product(sorted(tm.decays),
                                                        [None, (d - 1, 0)]):
                    if (j, i) == zeroed or not inner(tm, j, i, [0.0], 1e-9,
                                                     zeroed)[0]:
                        continue
                    lines += 1
                    # points on the line: t = 0, the channel itself and
                    # random t up to where the row keeps its other entries
                    room = float(tm.gamma[j, i] + tm.gamma[j, j])
                    ts = np.r_[0.0, tm.gamma[j, i], rng.uniform(0, room, 3)]
                    points = [tm.with_decay(j, i, float(t)) for t in ts]
                    got = []
                    for point in points:
                        monkeypatch.setattr(capacity, "_BORDERS", {})
                        got.append(capacity._line_border(point, j, i, 1e-9,
                                                         zeroed))
                    g0 = capacity._decay_stack(tm, j, i, [0.0], zeroed)[0]
                    want = sequential_bisection(
                        lambda t: bool(inner(tm, j, i, [t], 1e-9, zeroed)[0]),
                        0.0, float(g0[j, j]))
                    assert got == [want] * len(points)
                    # a warm repeat from any point makes no predicate call
                    calls.clear()
                    for point in points:
                        assert capacity._line_border(point, j, i, 1e-9,
                                                     zeroed) == want
                    assert calls == []
        assert lines >= 10

    def test_decay_stack_equals_with_decay(self, rng):
        for d in (3, 4):
            for _ in range(5):
                tm = random_transition_matrix(d, rng)
                axes = sorted(tm.decays)
                j, i = axes[int(rng.integers(len(axes)))]
                gji = tm.gamma[j, i]
                ts = np.r_[0.0, gji, rng.uniform(0.0, gji, 6)]
                want = np.stack([tm.with_decay(j, i, t).gamma for t in ts])
                assert np.array_equal(capacity._decay_stack(tm, j, i, ts), want)
                for j2, i2 in axes:
                    want = np.stack([
                        tm.with_decay(j, i, t).with_decay(j2, i2, 0.0).gamma
                        for t in ts])
                    got = capacity._decay_stack(tm, j, i, ts, (j2, i2))
                    assert np.array_equal(got, want)


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
            assert len(capacity._BORDERS) <= 3
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
        # search evicts another thread's border
        tms = [TransitionMatrix(3, {(2, 0): 0.05 * (k + 1), (2, 1): 0.1})
               for k in range(16)]

        def threshold(tm, j, i, ts, tol_psd, zeroed=None):
            return np.asarray(ts) <= 0.3 * tm.gamma[2, 0]

        # each line's top is Gamma(0)[2, 2] = 1 - gamma_20
        want = [sequential_bisection(lambda t, tm=tm: threshold(tm, 2, 1, t, 0),
                                     0.0, 1.0 - tm.gamma[2, 0]) for tm in tms]
        monkeypatch.setattr(capacity, "_degradable_at", threshold)
        monkeypatch.setattr(capacity, "_BORDERS", {})
        monkeypatch.setattr(capacity, "_STORE_MAX", 2)

        def item(k):
            got = capacity._line_border(tms[k % 16], 2, 1, 1e-9)
            assert got == want[k % 16]

        self.run_threads(item, 160)
        assert len(capacity._BORDERS) <= 2


class TestMad3Verification:
    def test_gamma10_zero_slice(self):
        rep = mad3_acge_verification(0.0, grid_step=0.1, iterations=2)
        assert rep["certificate_value"] == pytest.approx(1.0, abs=1e-7)
        assert rep["crosscheck"]["matches"]

    def test_gamma10_half_slice(self):
        rep = mad3_acge_verification(0.5, grid_step=0.1, iterations=1)
        assert rep["certificate_value"] == 0.0

    def test_boundary_values_and_mismatches(self):
        rep = mad3_acge_verification(0.2, grid_step=0.05, iterations=3,
                                     k_grid=[1.0, 1.5])
        for step in rep["steps"]:
            n = step["n"]
            assert step["gamma21"] == pytest.approx(1 - 2.0 ** (-n))
            for kc in step["k_checks"]:
                assert kc["analytic_bound"] == pytest.approx(
                    1 - kc["k"] / 2.0 ** (n + 1))
                assert kc["mismatches"] == 0
        assert rep["certified_omega_max"] == pytest.approx(1 - 2.0 ** -4)

    def test_range_check(self):
        with pytest.raises(ConditionViolatedError):
            mad3_acge_verification(0.7)

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), 1e-300, 1e-7,
                                      0.99e-4])
    def test_omega_grid_is_bounded(self, step):
        with pytest.raises(ConditionViolatedError):
            mad3_acge_verification(0.2, grid_step=step, iterations=0,
                                   k_grid=[1.0])
