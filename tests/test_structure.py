import numpy as np
import pytest

from madcap.channel import (TransitionMatrix, apply, channel_map,
                            decompose_by_level, random_transition_matrix)
from madcap.complementary import complementary_apply, complementary_map, env_dim
from madcap.errors import (ConditionViolatedError, IndexOutOfRangeError,
                           NotComparableError, SingularInverseError)
from madcap.inverse import inverse_superops, mad_inverse
from madcap.linalg import partial_trace, random_density_matrix
from madcap import structure
from madcap.structure import (best_capacity_witness, build_two_extension,
                              capacity_positive_witness, connecting_choi,
                              connecting_chois, connecting_eigenvalues, degradability_status,
                              degradable_margins,
                              degrading_chois,
                              degrading_map,
                              is_antidegradable, is_degradable,
                              mad_choi_state, mad_choi_states,
                              monotonicity_certificate, two_extension_taus)


def example_channel(gamma10, gamma32, gamma30):
    """The worked 4-level example: decays 1->0, 3->2 and 3->0, zero ones
    left out."""
    decays = {}
    if gamma10 > 0:
        decays[(1, 0)] = gamma10
    if gamma32 > 0:
        decays[(3, 2)] = gamma32
    if gamma30 > 0:
        decays[(3, 0)] = gamma30
    return TransitionMatrix(4, decays)


class TestChoi:
    def test_mad_choi_state_matches_map(self, rng):
        for d in (2, 3, 4):
            tm = random_transition_matrix(d, rng)
            assert np.max(np.abs(channel_map(tm).choi()
                                 - mad_choi_state(tm))) < 1e-12

    def test_choi_output_trace_is_maximally_mixed_input_marginal(self, rng):
        tm = random_transition_matrix(3, rng)
        c = mad_choi_state(tm)
        marg = partial_trace(c, [3, 3], [0])
        assert np.allclose(marg, np.eye(3) / 3, atol=1e-12)


class TestDegradingMap:
    def test_identity_channel_constant_map(self, rng):
        lam = degrading_map(TransitionMatrix(3, {}))
        out = lam(random_density_matrix(3, rng))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.shape == (env_dim(3),) * 2

    def test_degrading_reproduces_complementary(self, rng):
        tm = TransitionMatrix(2, {(1, 0): 0.3})
        lam = degrading_map(tm)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            assert np.max(np.abs(lam(apply(tm, rho))
                                 - complementary_apply(tm, rho))) < 1e-10

    def test_not_cp_above_half(self):
        c = degrading_map(TransitionMatrix(2, {(1, 0): 0.7})).choi()
        assert np.linalg.eigvalsh((c + c.conj().T) / 2)[0] < -1e-6


def sparse_channel(d, rng):
    """Random channel with some decays exactly zero and survival
    probabilities drawn log-uniformly down to 1e-3."""
    decays = {}
    for j in range(1, d):
        w = rng.dirichlet(np.ones(j)) * (rng.uniform(size=j) > 0.3)
        if w.sum() == 0.0:
            continue
        keep = 10.0 ** rng.uniform(-3.0, 0.0)
        for i in range(j):
            if w[i] > 0.0:
                decays[(j, i)] = float((1.0 - keep) * w[i] / w.sum())
    return TransitionMatrix(d, decays)


class TestDegradingChoiKernel:
    def test_matches_composed_reference(self, rng):
        for d in (2, 3, 4, 5):
            tms = [sparse_channel(d, rng) for _ in range(12)]
            tms.append(TransitionMatrix(d, {(d - 1, 0): 1.0 - 1e-3}))
            got = degrading_chois(np.stack([tm.gamma for tm in tms]))
            for tm, c in zip(tms, got):
                ref = mad_inverse(tm).then(complementary_map(tm)).choi()
                assert c.shape == ref.shape == (d * env_dim(d),) * 2
                assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_inverse_superops_invert_kraus_channels(self, rng):
        # independent of the kernel: the channel side is built from Kraus
        # operators, and the inverse must undo it in both orders
        for d in (2, 3, 4, 5):
            tms = [sparse_channel(d, rng) for _ in range(12)]
            tms.append(TransitionMatrix(d, {(d - 1, 0): 1.0 - 1e-3}))
            invs = inverse_superops(np.stack([tm.gamma for tm in tms]))
            for tm, inv in zip(tms, invs):
                ch = channel_map(tm).superoperator()
                bound = 1e-13 * np.max(np.abs(inv))
                assert np.max(np.abs(inv @ ch - np.eye(d * d))) <= bound
                assert np.max(np.abs(ch @ inv - np.eye(d * d))) <= bound

    def test_stack_equals_single_calls(self, rng):
        for d in (2, 3, 4):
            stack = np.stack([sparse_channel(d, rng).gamma for _ in range(6)])
            chois = degrading_chois(stack)
            status, lo = degradability_status(stack)
            for k, g in enumerate(stack):
                assert np.array_equal(chois[k], degrading_chois(g[None])[0])
                one_status, one_lo = degradability_status(g[None])
                assert status[k] == one_status[0]
                assert lo[k] == one_lo[0]

    def test_degrading_map_uses_the_same_superoperator(self, rng):
        tm = random_transition_matrix(4, rng)
        assert np.array_equal(degrading_map(tm).choi(),
                              degrading_chois(tm.gamma[None])[0])
        with pytest.raises(SingularInverseError):
            degrading_map(TransitionMatrix(3, {(2, 0): 1.0}))

    def test_status_stack_matches_is_degradable(self):
        tms = [TransitionMatrix(2, {(1, 0): g}) for g in (0.2, 0.5, 0.7, 1.0)]
        status, lo = degradability_status(np.stack([tm.gamma for tm in tms]))
        for tm, s, v in zip(tms, status, lo):
            res = is_degradable(tm)
            assert s == res.degradable
            if res.min_choi_eig is None:
                assert np.isnan(v)
            else:
                assert v == res.min_choi_eig
        assert list(status[[0, 2, 3]]) == ["yes", "no", "unknown"]


def weak_channel(d, rng):
    """Random channel with every survival probability gamma_kk = 1e-3."""
    decays = {}
    for j in range(1, d):
        w = rng.dirichlet(np.ones(j)) * (1.0 - 1e-3)
        decays.update({(j, i): float(w[i]) for i in range(j)})
    return TransitionMatrix(d, decays)


def planned_choi_mask(d):
    """Choi positions (d·e × d·e) the sector plan reads, mapped from its
    superoperator positions with degrading_chois's reshuffle."""
    e = env_dim(d)
    pos, _, _ = structure._sector_plan(d)
    covered = np.zeros(e * e * d * d, dtype=bool)
    covered[pos] = True
    return covered.reshape(e, e, d, d).transpose(2, 0, 3, 1).reshape(
        d * e, d * e)


def dense_min_eigs(chois):
    return np.linalg.eigvalsh((chois + chois.swapaxes(-1, -2)) / 2)[:, 0]


def d3_grid_stack(step=0.05):
    """Gamma of every point of the d = 3 grid (gamma10, gamma20, gamma21)
    with the given step, as TransitionMatrix builds it."""
    n = round(1 / step)
    tms = [TransitionMatrix(3, {(1, 0): a * step, (2, 0): b * step,
                                (2, 1): c * step})
           for a in range(n + 1) for b in range(n + 1)
           for c in range(n + 1 - b)]
    return np.stack([tm.gamma for tm in tms])


class TestSectorPlan:
    def test_plan_shape(self):
        for d, singles, sizes in ((3, 7, (2, 3)), (4, 19, (2, 3, 4))):
            pos, n_diag, blocks = structure._sector_plan(d)
            assert n_diag == singles
            assert tuple(size for _, _, size in blocks) == sizes
            assert all(k == 1 for _, k, _ in blocks)
            assert len(pos) == singles + sum(s * s for s in sizes)
            assert len(set(pos.tolist())) == len(pos)
            assert not pos.flags.writeable

    def test_every_nonzero_lies_in_a_planned_single_or_block(self, rng):
        for d in range(1, 6):
            tms = [random_transition_matrix(d, rng) for _ in range(40)]
            tms += [sparse_channel(d, rng) for _ in range(40)]
            if d > 1:
                tms += [weak_channel(d, rng) for _ in range(40)]
            chois = degrading_chois(np.stack([tm.gamma for tm in tms]))
            outside = (chois != 0) & ~planned_choi_mask(d)
            assert not outside.any(), d

    def test_min_eig_matches_the_dense_solve(self, rng):
        for d in range(1, 6):
            tms = [random_transition_matrix(d, rng) for _ in range(30)]
            tms += [sparse_channel(d, rng) for _ in range(30)]
            if d > 1:
                tms += [weak_channel(d, rng) for _ in range(30)]
            stack = np.stack([tm.gamma for tm in tms])
            chois = degrading_chois(stack)
            scale = np.maximum(1.0, np.abs(chois).max(axis=(1, 2)))
            _, lo = degradability_status(stack)
            assert np.all(np.abs(lo - dense_min_eigs(chois))
                          <= 1e-12 * scale), d

    def test_empty_and_one_level_stacks(self):
        for d in (1, 2, 3):
            status, lo = degradability_status(np.zeros((0, d, d)))
            assert status.shape == lo.shape == (0,)
            assert degradable_margins(np.zeros((0, d, d)))[0].shape == (0,)
        status, lo = degradability_status(np.ones((1, 1, 1)))
        assert list(status) == ["yes"] and lo[0] == 1.0

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_verdicts_and_border_predicate_match_dense_status(self, tol):
        rng = np.random.default_rng(1206)
        # gamma10 just above 1/2 puts lambda_min at -1e-4 ... -1e-13.5 (times
        # about 4/3): "no", then "boundary" (below tol only), then "yes"
        near = np.stack([TransitionMatrix(3, {(1, 0): 0.5 + 10.0 ** -e}).gamma
                         for e in np.arange(4.0, 14.0, 0.5)])
        stacks = [d3_grid_stack(), near, np.stack(
            [random_transition_matrix(4, rng).gamma for _ in range(200)])]
        for stack in stacks:
            status, lo = degradability_status(stack, tol)
            known = status != "unknown"
            assert np.array_equal(known, np.all(
                np.diagonal(stack, axis1=1, axis2=2)[:, 1:] > 0.0, axis=1))
            assert np.all(np.isnan(lo[~known]))
            dense, _ = structure._psd_status(degrading_chois(stack[known]),
                                             tol)
            assert np.array_equal(status[known], dense)
            # the border search's probe: the "yes" mask, and margins that
            # are nan where unknown and >= 0 exactly where the mask holds
            mask, margin = degradable_margins(stack, tol)
            assert np.array_equal(mask, status == "yes")
            assert np.array_equal(np.isnan(margin), ~known)
            assert np.array_equal(margin[known] >= 0.0, mask[known])
        assert {"yes", "no", "unknown"} <= set(
            degradability_status(stacks[0], tol)[0])
        labels = set(degradability_status(near, tol)[0])
        assert {"yes", "no"} <= labels
        assert ("boundary" in labels) == (tol < structure.BOUNDARY_BAND)


class TestIsDegradable:
    def test_identity_is_degradable(self):
        assert is_degradable(TransitionMatrix(3, {})).degradable == "yes"

    def test_d2_flip_at_half(self):
        for g in np.arange(0.0, 1.0, 0.1):
            r = is_degradable(TransitionMatrix(2, {(1, 0): float(g)}))
            if abs(g - 0.5) < 1e-9:
                assert r.degradable in ("yes", "boundary")
            elif g < 0.5:
                assert r.degradable == "yes", (g, r)
            else:
                assert r.degradable == "no", (g, r)

    def test_unknown_when_level_fully_decays(self):
        r = is_degradable(TransitionMatrix(2, {(1, 0): 1.0}))
        assert r.degradable == "unknown"
        assert r.min_choi_eig is None

    def test_example_channel_region_coarse(self):
        for g11 in (0.2, 0.4, 0.6, 0.8):
            for g33 in (0.2, 0.4, 0.6, 0.8):
                tm = example_channel(1 - g11, (1 - g33) / 2, (1 - g33) / 2)
                expect = g11 >= 0.5 and g33 >= 0.5
                got = is_degradable(tm).degradable in ("yes", "boundary")
                assert got == expect, (g11, g33)


class TestIsAntidegradable:
    def test_d2(self):
        assert not is_antidegradable(TransitionMatrix(2, {(1, 0): 0.49}))
        assert is_antidegradable(TransitionMatrix(2, {(1, 0): 0.5}))
        assert is_antidegradable(TransitionMatrix(2, {(1, 0): 0.8}))

    def test_identity_is_not(self):
        assert not is_antidegradable(TransitionMatrix(3, {}))

    def test_strong_ground_decay_d4(self):
        tm = TransitionMatrix(4, {(1, 0): 0.6, (2, 0): 0.6, (3, 0): 0.6})
        assert is_antidegradable(tm)


class TestTwoExtension:
    def test_boundary_adc_has_zero_modes(self):
        ext = build_two_extension(TransitionMatrix(2, {(1, 0): 0.5}))
        eig = np.linalg.eigvalsh(ext.tau)
        assert eig[0] > -1e-12
        assert np.min(np.abs(eig)) < 1e-12

    def test_adc_partial_traces(self):
        tm = TransitionMatrix(2, {(1, 0): 0.8})
        ext = build_two_extension(tm)
        c = mad_choi_state(tm)
        assert np.max(np.abs(partial_trace(ext.tau, [2, 2, 2], [0, 2])
                             - c)) < 1e-12
        assert np.max(np.abs(partial_trace(ext.tau, [2, 2, 2], [0, 1])
                             - c)) < 1e-12
        assert np.linalg.eigvalsh(ext.tau)[0] > -1e-12

    def test_random_antidegradable_witnesses(self, rng):
        done = 0
        while done < 15:
            d = int(rng.integers(2, 5))
            tm = random_transition_matrix(d, rng)
            if not is_antidegradable(tm):
                continue
            done += 1
            ext = build_two_extension(tm)
            tau = ext.tau
            assert np.max(np.abs(tau - tau.conj().T)) < 1e-13
            c = mad_choi_state(tm)
            assert np.max(np.abs(partial_trace(tau, [d] * 3, [0, 2])
                                 - c)) < 1e-10
            assert np.max(np.abs(partial_trace(tau, [d] * 3, [0, 1])
                                 - c)) < 1e-10
            assert np.linalg.eigvalsh(tau)[0] > -1e-9

    def test_stack_equals_single_witnesses_bit_for_bit(self, rng):
        for d in (2, 3, 4, 5):
            tms = [TransitionMatrix(d, {(j, 0): 1.0 for j in range(1, d)})]
            while len(tms) < 7:
                tm = random_transition_matrix(d, rng)
                if is_antidegradable(tm):
                    tms.append(tm)
            stack = np.stack([tm.gamma for tm in tms])
            taus = two_extension_taus(stack)
            chois = mad_choi_states(stack)
            for k, tm in enumerate(tms):
                ext = build_two_extension(tm)
                assert taus[k].tobytes() == ext.tau.tobytes()
                assert chois[k].tobytes() == mad_choi_state(tm).tobytes()
                g = tm.gamma
                p = np.zeros((d, d))
                for j in range(1, d):
                    p[j, :j] = g[j, :j] / (1.0 - g[j, j])
                assert ext.p.tobytes() == p.tobytes()

    def test_cached_scatter_plans_are_read_only(self):
        for d in (2, 3, 4):
            for plan in (structure._extension_plan(d),
                         structure._choi_plan(d)):
                # the single scatter pass adds at each position once
                assert len(np.unique(plan[0])) == len(plan[0])
                for table in plan:
                    with pytest.raises(ValueError):
                        table[0] = 0

    def test_rejects_non_antidegradable(self):
        with pytest.raises(ConditionViolatedError):
            build_two_extension(TransitionMatrix(2, {(1, 0): 0.3}))

    def test_survival_block_is_rank_one_quadratic_form(self, rng):
        """The cross-level block of tau restricted to the 'both copies intact'
        states acts as |w><w| with w_j = sqrt(gamma_jj): its expectation on a
        random vector (alpha_j) is |sum_j sqrt(gamma_jj) alpha_j|^2."""
        tm = TransitionMatrix(3, {(1, 0): 0.7, (2, 0): 0.6, (2, 1): 0.1})
        d = tm.dim
        ext = build_two_extension(tm)

        def idx(a, b1, b2):
            return (a * d + b1) * d + b2

        rows = [idx(0, 0, 0)] + [idx(j, 0, j) for j in range(1, d)]
        sub = ext.tau[np.ix_(rows, rows)] * d
        w = np.sqrt(np.diag(tm.gamma))
        for _ in range(200):
            alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
            got = np.real(alpha.conj() @ sub @ alpha)
            expect = np.abs(w @ alpha) ** 2
            assert got == pytest.approx(expect, abs=1e-10)
            assert got >= -1e-12


class TestCapacityWitness:
    def test_endpoint_values_of_f(self):
        # f(0) = 1 and f(1) = 1/4 show up as the extreme witness 1 bit
        tm = TransitionMatrix(2, {})  # gamma_10 = 0, gamma_11 = 1
        assert capacity_positive_witness(tm, 1) == pytest.approx(1.0)

    def test_positive_when_violating(self):
        tm = TransitionMatrix(3, {(2, 0): 0.1, (2, 1): 0.4})
        w = capacity_positive_witness(tm, 2)
        assert w > 0.0

    def test_below_diagonal_coherent_info_max(self):
        from madcap.capacity import diagonal_coherent_information
        tm = TransitionMatrix(3, {(2, 0): 0.1, (2, 1): 0.4})
        w = capacity_positive_witness(tm, 2)
        grid = np.linspace(0.0, 1.0, 2001)
        best = max(diagonal_coherent_information(
            tm, np.array([1 - p, 0.0, p])) for p in grid)
        assert w <= best + 1e-9

    def test_rejects_antidegradable_level(self):
        tm = TransitionMatrix(2, {(1, 0): 0.6})
        with pytest.raises(ConditionViolatedError):
            capacity_positive_witness(tm, 1)

    @pytest.mark.parametrize("j", [-1, 0, 3, 4])
    def test_rejects_levels_outside_1_to_d(self, j):
        # j = -1 would read level 2: gamma_20 = 0 < gamma_22 = 1
        tm = TransitionMatrix(3, {(1, 0): 0.1})
        with pytest.raises(IndexOutOfRangeError, match="1 <= j < dim=3"):
            capacity_positive_witness(tm, j)

    def test_best_witness_zero_for_antidegradable(self):
        assert best_capacity_witness(TransitionMatrix(2, {(1, 0): 0.6})) == 0.0


class TestDegradableComposition:
    def test_factors_of_degradable_channel_are_degradable(self, rng):
        """Whenever Gamma = Gamma' Gamma'' and the composition is degradable,
        so are the factors (checked on level-decomposition factorizations)."""
        done = 0
        while done < 25:
            d = int(rng.integers(2, 4))
            tm = random_transition_matrix(d, rng)
            if min(tm.gamma[k, k] for k in range(1, d)) < 0.05:
                continue
            if is_degradable(tm).degradable != "yes":
                continue
            done += 1
            for f in decompose_by_level(tm):
                if any(f.gamma[k, k] <= 0 for k in range(1, d)):
                    continue
                assert is_degradable(f).degradable in ("yes", "boundary")


class TestMonotonicityCertificate:
    def test_gamma10_increase_right_certificate_cp(self, rng):
        for _ in range(10):
            g = float(rng.uniform(0.05, 0.8))
            eps = float(rng.uniform(0.01, min(0.15, 0.95 - g)))
            tm = TransitionMatrix(3, {(1, 0): g})
            big = TransitionMatrix(3, {(1, 0): g + eps})
            cert = monotonicity_certificate(tm, big)[1]
            assert cert.cp, (g, eps, cert.min_eig)

    def test_gamma21_increase_depends_on_half_space(self):
        base = {(1, 0): 0.2, (2, 1): 0.1}
        inside = TransitionMatrix(4, {**base, (2, 0): 0.4})
        outside = TransitionMatrix(4, {**base, (2, 0): 0.05})
        bigger_in = inside.with_decay(2, 1, 0.2)
        bigger_out = outside.with_decay(2, 1, 0.2)
        assert monotonicity_certificate(inside, bigger_in)[1].cp
        assert not monotonicity_certificate(outside, bigger_out)[1].cp

    def test_left_certificate_needs_empty_top_row(self):
        flat = TransitionMatrix(4, {(1, 0): 0.2, (2, 0): 0.3, (2, 1): 0.2})
        assert monotonicity_certificate(
            flat, flat.with_decay(2, 1, 0.3))[0].cp
        tall = flat.with_decay(3, 2, 0.3)
        assert not monotonicity_certificate(
            tall, tall.with_decay(2, 1, 0.3))[0].cp

    def test_boundary_status_is_not_cp(self):
        # the right map misses CP by about 46·eps: "boundary" at eps = 1e-6
        # (lambda_min -4.6e-8), within tol_psd = 1e-9 at eps = 1e-9
        tm = TransitionMatrix(3, {(1, 0): 0.2, (2, 0): 0.1})
        cert = monotonicity_certificate(tm, tm.with_decay(2, 1, 1e-6))[1]
        assert (cert.status, cert.cp) == ("boundary", False)
        cert = monotonicity_certificate(tm, tm.with_decay(2, 1, 1e-9))[1]
        assert (cert.status, cert.cp) == ("yes", True)

    def test_soundness_on_degradable_pair(self):
        from madcap.capacity import max_diagonal_coherent_info
        tm = TransitionMatrix(2, {(1, 0): 0.2})
        big = TransitionMatrix(2, {(1, 0): 0.3})
        left, right = monotonicity_certificate(tm, big)
        assert (left.side, right.side) == ("left", "right")
        assert right.cp
        v_small, _ = max_diagonal_coherent_info(tm)
        v_big, _ = max_diagonal_coherent_info(big)
        assert v_big <= v_small + 1e-6

    def test_not_comparable(self):
        a = TransitionMatrix(3, {(1, 0): 0.2, (2, 0): 0.2})
        b = TransitionMatrix(3, {(1, 0): 0.3, (2, 0): 0.3})
        with pytest.raises(NotComparableError):
            monotonicity_certificate(a, b)
        with pytest.raises(NotComparableError):
            monotonicity_certificate(b.with_decay(1, 0, 0.2), a)


class TestConnectingChoi:
    def test_equal_rates_near_unit_k_boundary(self):
        e = connecting_eigenvalues(0.4, 0.4, 1.0 + 1e-12)
        assert abs(e[1]) < 1e-9  # second eigenvalue vanishes at omega = gamma

    def test_n0_k15_psd_boundary(self):
        for w in np.arange(0.0, 1.0001, 0.05):
            c = connecting_choi(0.0, float(w), 1.5)
            lo = np.linalg.eigvalsh((c + c.conj().T) / 2)[0]
            if w <= 0.25 - 1e-9:
                assert lo > -1e-9, w
            elif w >= 0.25 + 1e-9:
                assert lo < -1e-9, w

    def test_eigenvalues_match_numerics(self, rng):
        for _ in range(50):
            g = float(rng.uniform(0.0, 0.99))
            w = float(rng.uniform(0.0, 1.0))
            k = float(rng.uniform(1.0, 1.999))
            c = connecting_choi(g, w, k)
            num = np.sort(np.linalg.eigvalsh((c + c.conj().T) / 2))
            ana = np.sort(np.concatenate(
                [connecting_eigenvalues(g, w, k), np.zeros(6)]))
            assert np.max(np.abs(num - ana)) < 1e-9

    def test_eigenvalue_sum_is_trace(self, rng):
        for _ in range(20):
            g = float(rng.uniform(0.0, 0.95))
            w = float(rng.uniform(0.0, 1.0))
            k = float(rng.uniform(1.0, 1.9))
            c = connecting_choi(g, w, k)
            assert abs(np.sum(connecting_eigenvalues(g, w, k))
                       - np.trace(c).real) < 1e-9

    def test_stack_equals_single_chois_bit_for_bit(self):
        # mad3's grids: n <= 20, the default k grid, omega step 0.05
        omegas = np.arange(0.0, 1.0 + 1e-12, 0.05)
        for n in range(21):
            g21 = 1.0 - 2.0 ** -n
            for k in [round(1.0 + 0.1 * t, 10) for t in range(10)]:
                stack = connecting_chois(g21, omegas, k)
                assert stack.shape == (len(omegas), 9, 9)
                for w, c in zip(omegas, stack):
                    one = connecting_choi(g21, float(w), k)
                    assert c.dtype == one.dtype and c.tobytes() == one.tobytes()

    def test_stack_range_check_names_the_first_bad_omega(self):
        with pytest.raises(ConditionViolatedError, match="omega21=1.5 "):
            connecting_chois(0.5, [0.2, 1.5, np.nan], 1.5)
        with pytest.raises(ConditionViolatedError, match="omega21=nan "):
            connecting_chois(0.5, [np.nan, 1.5], 1.5)

    def test_range_checks(self):
        with pytest.raises(ConditionViolatedError):
            connecting_choi(1.0, 0.5, 1.5)
        with pytest.raises(ConditionViolatedError):
            connecting_choi(0.5, 1.5, 1.5)
        with pytest.raises(ConditionViolatedError):
            connecting_choi(0.5, 0.5, 2.5)
        # gamma21 one ulp below 1 rounds gamma22 to 0
        with pytest.raises(SingularInverseError):
            connecting_choi(1.0 - 2.0 ** -53, 0.5, 1.5)
