import json

import numpy as np
import pytest

from madcap.channel import (TransitionMatrix, apply, channel_map,
                            compose, conjugate_by_swap, decompose_by_level,
                            decompose_single_decays, has_ladder_structure,
                            isolate_decay, kraus_from_gamma, permute_levels,
                            random_transition_matrix, recompose_single_decays,
                            single_decay_matrix, swap_unitary)
from madcap.errors import (DegenerateDecompositionError,
                           DimensionMismatchError, IndexOutOfRangeError,
                           InvalidStateError, MadcapError)
from madcap.linalg import is_psd, random_density_matrix


def kraus_choi(ops, d_in):
    """Independent Choi oracle: sum of vectorized-Kraus outer products / d."""
    c = np.zeros((d_in * ops[0].shape[0],) * 2, dtype=complex)
    for k in ops:
        v = np.asarray(k, dtype=complex).T.reshape(-1)
        c += np.outer(v, v.conj())
    return c / d_in


class TestTransitionMatrix:
    def test_identity_has_unit_diagonal(self):
        tm = TransitionMatrix(3, {})
        assert np.allclose(tm.gamma, np.eye(3))

    def test_diagonal_recomputed_from_decays(self):
        tm = TransitionMatrix(3, {(2, 0): 0.25, (2, 1): 0.5})
        assert tm.gamma[2, 2] == pytest.approx(0.25, abs=1e-15)
        assert tm.gamma[1, 1] == 1.0

    def test_rejects_row_overflow(self):
        with pytest.raises(MadcapError):
            TransitionMatrix(3, {(2, 0): 0.7, (2, 1): 0.5})

    def test_rejects_upward_decay(self):
        with pytest.raises(MadcapError):
            TransitionMatrix(3, {(0, 2): 0.5})

    def test_from_matrix_round_trip(self, rng):
        tm = random_transition_matrix(4, rng)
        again = TransitionMatrix.from_matrix(tm.gamma)
        assert np.allclose(again.gamma, tm.gamma, atol=1e-15)

    def test_json_round_trip(self):
        tm = TransitionMatrix(4, {(1, 0): 0.25, (3, 2): 0.5, (3, 0): 0.25})
        again = TransitionMatrix.from_json(tm.to_json())
        assert again.dim == 4
        assert np.allclose(again.gamma, tm.gamma, atol=1e-15)

    def test_json_rejects_overflowing_row(self):
        payload = {"dim": 2, "decays": [{"from": 1, "to": 0, "p": 1.5}]}
        with pytest.raises(MadcapError):
            TransitionMatrix.from_json(json.dumps(payload))

    @staticmethod
    def loop_gamma(dim, decays):
        """Gamma entry by entry with a numpy row sum per level: the
        constructor's arithmetic spelled out, or the error it must raise."""
        g = np.zeros((dim, dim))
        for (j, i), p in decays.items():
            if not (0 <= i < j < dim):
                return IndexOutOfRangeError(
                    f"decay ({j}->{i}) needs 0 <= target < source < dim={dim}")
            if p < -1e-12 or p > 1 + 1e-12:
                return InvalidStateError(f"decay probability {p} outside [0, 1]")
            g[j, i] = min(max(p, 0.0), 1.0)
        for j in range(dim):
            s = g[j, :j].sum()
            if s > 1 + 1e-12:
                return InvalidStateError(
                    f"row {j} decay probabilities sum to {s} > 1")
            g[j, j] = max(1.0 - s, 0.0)
        return g

    def assert_same_as_loop(self, dim, decays):
        want = self.loop_gamma(dim, decays)
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as err:
                TransitionMatrix(dim, decays)
            assert str(err.value) == str(want)
        else:
            assert TransitionMatrix(dim, decays).gamma.tobytes() == want.tobytes()

    def test_gamma_bit_identical_to_row_sum_loop(self, rng):
        # rows of 8 or more decays sum in numpy's pairwise order
        for d in range(2, 11):
            for _ in range(200):
                decays = {}
                scale = rng.choice([1.0, 1e-3, 1.0 + 5e-13, 1.1])
                for j in range(1, d):
                    w = rng.dirichlet(np.ones(j + 1)) * scale
                    for i in range(j):
                        u = rng.random()
                        if u < 0.2:
                            continue
                        decays[(j, i)] = (0.0 if u < 0.3 else
                                          -1e-13 if u < 0.35 else
                                          w[i] if u < 0.6 else float(w[i]))
                self.assert_same_as_loop(d, decays)

    def test_gamma_bit_identical_on_the_lattice(self):
        steps = [t / 10 for t in range(11)]
        for a in steps:
            for b in steps:
                for c in steps:
                    self.assert_same_as_loop(
                        3, {(1, 0): a, (2, 0): b, (2, 1): c})

    def test_constructor_errors_unchanged(self):
        for dim, decays in [(3, {(0, 2): 0.5}), (3, {(1, 1): 0.5}),
                            (2, {(2, 0): 0.1}), (2, {(1, 0): 1.5}),
                            (3, {(1, 0): -0.2}), (3, {(2, 0): 0.7, (2, 1): 0.5}),
                            (3, {(2, 0): 2.0, (0, 1): 0.1}),
                            (3, {(0, 1): 0.1, (2, 0): 2.0})]:
            self.assert_same_as_loop(dim, decays)
        with pytest.raises(DimensionMismatchError):
            TransitionMatrix(0)


class TestKraus:
    def test_identity_channel_single_operator(self):
        ops = kraus_from_gamma(TransitionMatrix(3, {}))
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(3))

    def test_adc_operators(self):
        g = 0.36
        ops = kraus_from_gamma(TransitionMatrix(2, {(1, 0): g}))
        assert np.allclose(ops[0], np.diag([1.0, np.sqrt(1 - g)]))
        assert np.allclose(ops[1], [[0.0, np.sqrt(g)], [0.0, 0.0]])

    def test_operator_count_matches_decays(self):
        tm = TransitionMatrix(4, {(1, 0): 0.25, (3, 2): 0.375, (3, 0): 0.375})
        assert len(kraus_from_gamma(tm)) == 4

    def test_completeness(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(10):
                tm = random_transition_matrix(d, rng)
                acc = sum(k.conj().T @ k for k in kraus_from_gamma(tm))
                assert np.max(np.abs(acc - np.eye(d))) < 1e-12


class TestApply:
    def test_identity(self, rng):
        rho = random_density_matrix(3, rng)
        assert np.allclose(apply(TransitionMatrix(3, {}), rho), rho,
                           atol=1e-14)

    def test_complete_decay_resets_excited_state(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply(TransitionMatrix(2, {(1, 0): 1.0}), rho)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_half_damping_on_plus_state(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = apply(TransitionMatrix(2, {(1, 0): 0.5}), rho)
        expected = np.array([[0.75, 0.5 / np.sqrt(2)],
                             [0.5 / np.sqrt(2), 0.25]])
        assert np.allclose(out, expected, atol=1e-14)

    def test_matches_kraus_evaluation(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(5):
                tm = random_transition_matrix(d, rng)
                rho = random_density_matrix(d, rng)
                direct = apply(tm, rho)
                via_kraus = sum(k @ rho @ k.conj().T
                                for k in kraus_from_gamma(tm))
                assert np.max(np.abs(direct - via_kraus)) < 1e-12

    def test_preserves_trace_and_positivity(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            tm = random_transition_matrix(d, rng)
            out = apply(tm, random_density_matrix(d, rng))
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert is_psd(out, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(TransitionMatrix(3, {}), np.eye(2) / 2)


class TestCompose:
    def test_identity_is_neutral(self, rng):
        tm = random_transition_matrix(3, rng)
        out = compose(TransitionMatrix(3, {}), tm)
        assert np.allclose(out.gamma, tm.gamma, atol=1e-15)

    def test_two_half_dampings(self):
        half = TransitionMatrix(2, {(1, 0): 0.5})
        assert compose(half, half).gamma[1, 0] == pytest.approx(0.75,
                                                                abs=1e-15)

    def test_matches_sequential_application(self, rng):
        for _ in range(10):
            a = random_transition_matrix(4, rng)
            b = random_transition_matrix(4, rng)
            seq_ops = [kb @ ka for ka in kraus_from_gamma(a)
                       for kb in kraus_from_gamma(b)]
            seq_choi = kraus_choi(seq_ops, 4)
            assert np.max(np.abs(kraus_choi(kraus_from_gamma(compose(a, b)), 4)
                                 - seq_choi)) < 1e-11
            assert np.max(np.abs(channel_map(compose(a, b)).choi()
                                 - seq_choi)) < 1e-11

    def test_associativity(self, rng):
        a, b, c = (random_transition_matrix(4, rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.gamma - right.gamma)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(TransitionMatrix(2, {}), TransitionMatrix(3, {}))


class TestDecompositions:
    def test_by_level_identity(self):
        for f in decompose_by_level(TransitionMatrix(3, {})):
            assert np.allclose(f.gamma, np.eye(3))

    def test_by_level_single_active_level(self):
        tm = TransitionMatrix(3, {(2, 1): 0.4})
        facs = decompose_by_level(tm)
        assert np.allclose(facs[0].gamma, np.eye(3))
        assert np.allclose(facs[1].gamma, tm.gamma, atol=1e-15)

    def test_by_level_reconstructs(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(25):
                tm = random_transition_matrix(d, rng)
                prod = np.eye(d)
                for f in decompose_by_level(tm):
                    prod = prod @ f.gamma
                assert np.max(np.abs(prod - tm.gamma)) < 1e-12

    def test_single_decay_trivial(self):
        tm = single_decay_matrix(3, 2, 0, 0.3)
        assert decompose_single_decays(tm) == [(2, 0, pytest.approx(0.3))]

    def test_single_decay_modified_amplitude(self):
        tm = TransitionMatrix(3, {(2, 1): 0.25, (2, 0): 0.25})
        factors = dict(((k, n), p) for k, n, p in decompose_single_decays(tm))
        assert factors[(2, 0)] == pytest.approx(0.25 / 0.75, abs=1e-14)

    def test_single_decay_reconstructs(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(25):
                tm = random_transition_matrix(d, rng)
                rec = recompose_single_decays(d, decompose_single_decays(tm))
                assert np.max(np.abs(rec.gamma - tm.gamma)) < 1e-12

    def test_single_decay_omits_zero_factors_and_handles_full_decay(self):
        tm = TransitionMatrix(3, {(2, 1): 1.0})
        factors = decompose_single_decays(tm)
        assert factors == [(2, 1, pytest.approx(1.0))]
        rec = recompose_single_decays(3, factors)
        assert np.max(np.abs(rec.gamma - tm.gamma)) < 1e-12

    def test_isolate_decay_trivial(self):
        tm = TransitionMatrix(4, {(3, 2): 0.4})
        head, rest = isolate_decay(tm, 3, 0)
        assert np.allclose(rest.gamma, np.eye(4))
        assert np.allclose(head.gamma, tm.gamma, atol=1e-15)

    def test_isolate_decay_example(self):
        tm = TransitionMatrix(4, {(3, 2): 0.2, (3, 1): 0.2, (3, 0): 0.2})
        head, rest = isolate_decay(tm, 3, 1)
        assert rest.gamma[3, 1] == pytest.approx(0.2 / 0.6, abs=1e-14)
        assert np.max(np.abs(head.gamma @ rest.gamma - tm.gamma)) < 1e-12

    def test_isolate_decay_degenerate_denominator(self):
        tm = TransitionMatrix(4, {(3, 2): 0.5, (3, 1): 0.5})
        with pytest.raises(DegenerateDecompositionError):
            isolate_decay(tm, 3, 0)

    def test_isolate_decay_reconstructs(self, rng):
        for _ in range(20):
            row = rng.dirichlet(np.ones(4)) * 0.9
            tm = TransitionMatrix(4, {(3, i): float(row[i]) for i in range(3)})
            for n in range(3):
                head, rest = isolate_decay(tm, 3, n)
                assert np.max(np.abs(head.gamma @ rest.gamma
                                     - tm.gamma)) < 1e-12


class TestSwaps:
    def test_swap_unitary_is_permutation(self):
        u = swap_unitary(3, 0, 2)
        assert np.allclose(u @ u, np.eye(3))

    def test_same_level_is_identity_conjugation(self, rng):
        tm = random_transition_matrix(3, rng)
        rho = random_density_matrix(3, rng)
        assert np.allclose(conjugate_by_swap(tm, 1, 1)(rho), apply(tm, rho),
                           atol=1e-13)

    def test_double_swap_restores_channel(self, rng):
        tm = random_transition_matrix(3, rng)
        u = swap_unitary(3, 0, 2)
        swapped = conjugate_by_swap(tm, 0, 2)
        rho = random_density_matrix(3, rng)
        back = u @ swapped(u @ rho @ u) @ u
        assert np.max(np.abs(back - apply(tm, rho))) < 1e-12

    def test_adc_reversed_decay_spectrum(self):
        tm = TransitionMatrix(2, {(1, 0): 0.3})
        c1 = channel_map(tm).choi()
        c2 = conjugate_by_swap(tm, 0, 1).choi()
        s1 = np.sort(np.linalg.eigvalsh(c1))
        s2 = np.sort(np.linalg.eigvalsh(c2))
        assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_spectator_swap_relabels_decay(self):
        # decay 2 -> 0 with levels 0 and 1 swapped acts as decay 2 -> 1
        tm = single_decay_matrix(3, 2, 0, 0.4)
        swapped = conjugate_by_swap(tm, 0, 1)
        direct = channel_map(single_decay_matrix(3, 2, 1, 0.4))
        probe = np.zeros((3, 3), dtype=complex)
        probe[2, 2] = 0.5
        probe[0, 1] = probe[1, 0] = 0.5
        assert np.max(np.abs(swapped(probe) - direct(probe))) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            conjugate_by_swap(TransitionMatrix(3, {}), 0, 3)

    def test_permute_levels_round_trip(self, rng):
        tm = TransitionMatrix(4, {(3, 1): 0.5, (3, 0): 0.5, (2, 0): 0.25})
        perm = (0, 2, 1, 3)
        out = permute_levels(tm, perm)
        assert out.gamma[3, 2] == pytest.approx(0.5)
        back = permute_levels(out, perm)
        assert np.allclose(back.gamma, tm.gamma, atol=1e-15)

    def test_permute_levels_rejects_upward_decay(self):
        tm = TransitionMatrix(2, {(1, 0): 0.5})
        with pytest.raises(MadcapError):
            permute_levels(tm, (1, 0))


class TestLadderStructure:
    def test_identity_has_none(self):
        assert not has_ladder_structure(TransitionMatrix(4, {}))

    def test_chain_detected(self):
        tm = TransitionMatrix(4, {(2, 1): 0.3, (1, 0): 0.3})
        assert has_ladder_structure(tm)

    def test_all_to_ground_is_not_ladder(self):
        tm = TransitionMatrix(
            4, {(3, 0): 0.3, (2, 0): 0.3, (1, 0): 0.3})
        assert not has_ladder_structure(tm)
