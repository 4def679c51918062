import logging

import numpy as np
import pytest

from madcap.channel import (TransitionMatrix, channel_map,
                            compose, random_transition_matrix,
                            single_decay_matrix)
from madcap.errors import InvalidStateError, SingularInverseError
from madcap.inverse import adc_inverse, mad_inverse, single_decay_inverse


def probe_basis(d):
    for m in range(d):
        for n in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[m, n] = 1.0
            yield e


def round_trips(tm, tol):
    ch = channel_map(tm)
    inv = mad_inverse(tm)
    d = tm.dim
    return all(np.max(np.abs(inv(ch(e)) - e)) < tol
               and np.max(np.abs(ch(inv(e)) - e)) < tol
               for e in probe_basis(d))


class TestAdcInverse:
    def test_zero_damping_is_identity(self, rng):
        theta = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(adc_inverse(0.0)(theta), theta, atol=1e-14)

    def test_half_damping_example(self):
        theta = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        out = adc_inverse(0.5)(theta)
        expected = np.array([[0.0, 0.2 * np.sqrt(2)],
                             [0.2 * np.sqrt(2), 1.0]])
        assert np.allclose(out, expected, atol=1e-14)

    def test_round_trip(self, rng):
        g = 0.3
        ch = channel_map(TransitionMatrix(2, {(1, 0): g}))
        inv = adc_inverse(g)
        for _ in range(20):
            theta = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.max(np.abs(ch(inv(theta)) - theta)) < 1e-12
            assert np.max(np.abs(inv(ch(theta)) - theta)) < 1e-12

    def test_singular(self):
        with pytest.raises(SingularInverseError):
            adc_inverse(1.0)
        for gamma in (-0.5, np.nan):  # no channel: the constructor refuses
            with pytest.raises(InvalidStateError):
                adc_inverse(gamma)


class TestSingleDecayInverse:
    def test_zero_amplitude_is_identity(self):
        m = single_decay_inverse(2, 0, 0.0, 3)
        assert np.allclose(m(np.eye(3, dtype=complex)), np.eye(3))

    def test_d2_embedding_matches_adc(self, rng):
        theta = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = single_decay_inverse(1, 0, 0.4, 2)(theta)
        b = adc_inverse(0.4)(theta)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_round_trip_d4(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(0, k))
            p = float(rng.uniform(0.05, 0.9))
            tm = single_decay_matrix(4, k, n, p)
            assert round_trips(tm, 1e-12)

    def test_amplitude_one_is_singular(self):
        with pytest.raises(SingularInverseError):
            single_decay_inverse(2, 1, 1.0, 3)
        with pytest.raises(InvalidStateError):
            single_decay_inverse(2, 0, -1.0, 3)


class TestMadInverse:
    def test_identity_channel(self, rng):
        theta = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(mad_inverse(TransitionMatrix(3, {}))(theta), theta,
                           atol=1e-14)

    def test_d2_matches_adc_inverse(self):
        inv = mad_inverse(TransitionMatrix(2, {(1, 0): 0.3}))
        ref = adc_inverse(0.3)
        for e in probe_basis(2):
            assert np.max(np.abs(inv(e) - ref(e))) < 1e-13

    def test_round_trips_random(self, rng):
        for d in (2, 3, 4):
            done = 0
            while done < 5:
                tm = random_transition_matrix(d, rng)
                if min(tm.gamma[k, k] for k in range(1, d)) < 0.2:
                    continue
                assert round_trips(tm, 1e-10)
                done += 1

    def test_trace_preserving(self, rng):
        tm = random_transition_matrix(4, rng)
        while min(tm.gamma[k, k] for k in range(1, 4)) < 0.2:
            tm = random_transition_matrix(4, rng)
        assert mad_inverse(tm).is_trace_preserving(tol=1e-11)

    def test_not_cp_at_half_damping(self):
        c = mad_inverse(TransitionMatrix(2, {(1, 0): 0.5})).choi()
        assert np.linalg.eigvalsh((c + c.conj().T) / 2)[0] < -1e-6

    def test_inverse_of_composition_is_reversed(self, rng):
        d = 3
        a = b = None
        while a is None or min(min(x.gamma[k, k] for k in range(1, d))
                               for x in (a, b, compose(a, b))) < 0.2:
            a = random_transition_matrix(d, rng)
            b = random_transition_matrix(d, rng)
        lhs = mad_inverse(compose(a, b))
        rhs = mad_inverse(b).then(mad_inverse(a))
        for e in probe_basis(d):
            assert np.max(np.abs(lhs(e) - rhs(e))) < 1e-10

    def test_singular_level_reported(self):
        tm = TransitionMatrix(3, {(2, 0): 0.5, (2, 1): 0.5})
        with pytest.raises(SingularInverseError, match=r"\[2\]"):
            mad_inverse(tm)

    def test_conditioning_warning(self, caplog):
        tm = TransitionMatrix(2, {(1, 0): 1.0 - 1e-8})
        with caplog.at_level(logging.WARNING, logger="madcap.inverse"):
            mad_inverse(tm)
        assert [(r.name, r.levelno) for r in caplog.records] == \
            [("madcap.inverse", logging.WARNING)]
        assert caplog.records[0].getMessage() == (
            "mad_inverse poorly conditioned: gamma_kk < 1e-06 at level(s) [1]")
