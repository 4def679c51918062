import numpy as np
import pytest

from madcap.channel import random_transition_matrix
from madcap.errors import DimensionMismatchError
from madcap.inverse import mad_inverse
from madcap.maps import LinearMap


def test_identity_map():
    ident = LinearMap.identity(3)
    m = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.allclose(ident(m), m)
    assert ident.is_trace_preserving()


def test_identity_choi_is_maximally_entangled_state():
    c = LinearMap.identity(2).choi()
    eig = np.sort(np.linalg.eigvalsh(c))
    assert np.allclose(eig, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert abs(np.trace(c) - 1.0) < 1e-12


def test_depolarizing_choi_is_maximally_mixed():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    dep = LinearMap.from_kraus([p / 2 for p in paulis])
    assert np.allclose(dep.choi(), np.eye(4) / 4, atol=1e-12)


def test_then_applies_left_factor_first(rng):
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    reset = LinearMap.from_kraus([np.array([[1, 0], [0, 0]]),
                                  np.array([[0, 1], [0, 0]])])
    flip = LinearMap.from_kraus([np.array([[0, 1], [1, 0]])])
    rho = np.diag([0.3, 0.7]).astype(complex)
    out = reset.then(flip)(rho)
    assert np.allclose(out, np.diag([0.0, 1.0]))  # reset to |0>, then flip


def test_choi_reconstructs_map(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = LinearMap.from_kraus([a, b])
    c = m.choi()
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    # Phi(rho) = 3 * tr_in[(rho^T ⊗ I) C]
    big = np.kron(rho.T, np.eye(3)) @ c
    rec = 3 * big.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)
    assert np.max(np.abs(rec - m(rho))) < 1e-11


def test_superoperator_matches_action(rng):
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    m = LinearMap.from_kraus([a])
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose((m.superoperator() @ rho.reshape(-1)).reshape(2, 2),
                       m(rho), atol=1e-12)


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        LinearMap.from_kraus([])
    with pytest.raises(DimensionMismatchError):
        LinearMap.identity(2)(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        LinearMap.identity(2).then(LinearMap.identity(3))
    with pytest.raises(DimensionMismatchError):
        LinearMap.from_kraus([np.eye(2), np.eye(3)])


def _kraus_sum(ops, x):
    return sum(a @ x @ a.conj().T for a in ops)


@pytest.mark.parametrize("d_out, d_in, n_ops", [(2, 3, 2), (4, 2, 3), (3, 3, 1)])
def test_rectangular_kraus_matches_explicit_sum(rng, d_out, d_in, n_ops):
    ops = [rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in))
           for _ in range(n_ops)]
    m = LinearMap.from_kraus(ops)
    x = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    assert np.allclose(m(x), _kraus_sum(ops, x), atol=1e-12)
    sup = np.empty((d_out * d_out, d_in * d_in), dtype=complex)
    choi = np.empty((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            e = np.zeros((d_in, d_in))
            e[i, j] = 1.0
            block = _kraus_sum(ops, e)
            sup[:, i * d_in + j] = block.reshape(-1)
            choi[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] = block
    assert np.allclose(m.superoperator(), sup, atol=1e-12)
    assert np.allclose(m.choi() * d_in, choi, atol=1e-12)
    assert np.allclose(m.choi(), choi / d_in, atol=1e-12)


def test_then_is_superoperator_product(rng):
    a = LinearMap.from_kraus(
        [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))])
    b = LinearMap.from_kraus([rng.normal(size=(4, 3)), rng.normal(size=(4, 3))])
    assert np.array_equal(a.then(b).superoperator(),
                          b.superoperator() @ a.superoperator())


def test_trace_preservation_of_non_cp_inverses(rng):
    checked = 0
    while checked < 10:
        tm = random_transition_matrix(int(rng.integers(2, 5)), rng)
        if np.min(np.diag(tm.gamma)) < 0.2:
            continue
        checked += 1
        inv = mad_inverse(tm)
        assert np.linalg.eigvalsh(inv.choi())[0] < -1e-3  # not CP
        assert inv.is_trace_preserving()
    assert not LinearMap.from_kraus([0.5 * np.eye(3)]).is_trace_preserving()
