import numpy as np
import pytest

from madcap.channel import (TransitionMatrix, apply, kraus_from_gamma,
                            random_transition_matrix)
from madcap.complementary import (complementary_apply, complementary_map,
                                  env_basis, env_dim, env_index,
                                  stinespring_isometry)
from madcap.errors import DimensionMismatchError
from madcap.linalg import partial_trace, random_density_matrix
from madcap.maps import LinearMap


class TestEnvBasis:
    def test_count(self):
        for d in range(2, 7):
            assert env_dim(d) == 1 + d * (d - 1) // 2
            assert len(env_basis(d)) == env_dim(d)

    def test_ordering_d4(self):
        assert env_basis(4) == [(0, 0), (0, 1), (0, 2), (1, 2),
                                (0, 3), (1, 3), (2, 3)]

    def test_index_lookup(self):
        assert env_index(4, 0, 0) == 0
        assert env_index(4, 1, 3) == 5


class TestComplementaryApply:
    def test_identity_channel_leaks_nothing(self, rng):
        rho = random_density_matrix(3, rng)
        out = complementary_apply(TransitionMatrix(3, {}), rho)
        expected = np.zeros((env_dim(3), env_dim(3)))
        expected[0, 0] = 1.0
        assert np.allclose(out, expected, atol=1e-14)

    def test_complete_decay_fills_pair_state(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = complementary_apply(TransitionMatrix(2, {(1, 0): 1.0}), rho)
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0  # index 1 is the (0,1) environment label
        assert np.allclose(out, expected, atol=1e-14)

    def test_half_damping_maximally_mixed_input(self):
        out = complementary_apply(TransitionMatrix(2, {(1, 0): 0.5}),
                                  np.eye(2, dtype=complex) / 2)
        assert out[0, 0] == pytest.approx(0.75)
        assert out[1, 1] == pytest.approx(0.25)

    def test_trace_one(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            tm = random_transition_matrix(d, rng)
            out = complementary_apply(tm, random_density_matrix(d, rng))
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_matches_kraus_backed_map(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(5):
                tm = random_transition_matrix(d, rng)
                rho = random_density_matrix(d, rng)
                assert np.max(np.abs(complementary_apply(tm, rho)
                                     - complementary_map(tm)(rho))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            complementary_apply(TransitionMatrix(3, {}), np.eye(2) / 2)


class TestStinespring:
    def test_isometry(self, rng):
        for d in (2, 3, 4):
            tm = random_transition_matrix(d, rng)
            v = stinespring_isometry(tm)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-12

    def test_reductions_match_channel_and_complementary(self, rng):
        for d in (2, 3, 4):
            for _ in range(5):
                tm = random_transition_matrix(d, rng)
                rho = random_density_matrix(d, rng)
                v = stinespring_isometry(tm)
                big = v @ rho @ v.conj().T
                e = env_dim(d)
                sys_out = partial_trace(big, [d, e], [0])
                env_out = partial_trace(big, [d, e], [1])
                assert np.max(np.abs(sys_out - apply(tm, rho))) < 1e-12
                spec_env = np.sort(np.linalg.eigvalsh(env_out))
                spec_cf = np.sort(
                    np.linalg.eigvalsh(complementary_apply(tm, rho)))
                assert np.max(np.abs(spec_env - spec_cf)) < 1e-10

    def test_two_stage_trace_identities(self, rng):
        """For a composition Psi = Psi2 ∘ Psi1, tracing one environment factor
        out of the two-stage dilation recovers the per-factor leakage."""
        d = 3
        e = env_dim(d)
        for _ in range(5):
            tm1 = random_transition_matrix(d, rng)
            tm2 = random_transition_matrix(d, rng)
            rho = random_density_matrix(d, rng)
            v1 = stinespring_isometry(tm1)  # d -> (d, E1)
            v2 = stinespring_isometry(tm2)  # d -> (d, E2)
            w = np.kron(v2, np.eye(e)) @ v1  # d -> (d, E2, E1)
            big = w @ rho @ w.conj().T
            env_both = partial_trace(big, [d, e, e], [1, 2])  # (E2, E1)
            env1 = partial_trace(env_both, [e, e], [1])  # keep E1
            env2 = partial_trace(env_both, [e, e], [0])  # keep E2
            assert np.max(np.abs(env1 - complementary_apply(tm1, rho))) < 1e-10
            assert np.max(np.abs(env2 - complementary_apply(
                tm2, apply(tm1, rho)))) < 1e-10


class TestComplementaryMap:
    def test_equals_regrouped_kraus_slots(self, rng):
        # reference: (Ktilde_b)_{a m} = (K_a)_{b m}, with K_a in its
        # environment slot, on random and sparsified channels
        for _ in range(400):
            d = int(rng.integers(2, 6))
            tm = random_transition_matrix(d, rng)
            if rng.random() < 0.5:
                tm = TransitionMatrix(d, {k: p for k, p in tm.decays.items()
                                          if rng.random() < 0.5})
            labels = env_basis(d)
            slots = [0] + [labels.index((i, j)) for j in range(1, d)
                           for i in range(j) if tm.gamma[j, i] > 0.0]
            comp = np.zeros((d, env_dim(d), d), dtype=complex)
            for slot, k in zip(slots, kraus_from_gamma(tm)):
                comp[:, slot, :] = k
            want = LinearMap.from_kraus(list(comp)).superoperator()
            assert np.array_equal(complementary_map(tm).superoperator(), want)

    def test_trace_preserving(self, rng):
        for d in (2, 3, 4):
            tm = random_transition_matrix(d, rng)
            assert complementary_map(tm).is_trace_preserving(tol=1e-11)

    def test_identity_channel_is_constant_map(self, rng):
        m = complementary_map(TransitionMatrix(3, {}))
        rho = random_density_matrix(3, rng)
        out = m(rho)
        assert out[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(out[1:, :])) < 1e-14

    def test_choi_is_psd(self, rng):
        for _ in range(5):
            tm = random_transition_matrix(3, rng)
            c = complementary_map(tm).choi()
            assert np.linalg.eigvalsh((c + c.conj().T) / 2)[0] > -1e-12

    def test_adc_self_complementary_under_rate_swap(self, rng):
        """For d=2, the environment output at rate g has the spectrum of the
        channel output at rate 1-g on diagonal inputs."""
        for g in (0.1, 0.3, 0.45):
            p = rng.uniform(0.05, 0.95)
            rho = np.diag([1 - p, p]).astype(complex)
            env = complementary_apply(TransitionMatrix(2, {(1, 0): g}), rho)
            out = apply(TransitionMatrix(2, {(1, 0): 1 - g}), rho)
            s1 = np.sort(np.linalg.eigvalsh(env))
            s2 = np.sort(np.linalg.eigvalsh(out))
            assert np.max(np.abs(s1 - s2)) < 1e-12
