import importlib.util
from pathlib import Path

import numpy as np
import pytest

from madcap.channel import TransitionMatrix
from madcap.errors import (ConditionViolatedError, DimensionMismatchError,
                           InvalidStateError, NonHermitianError)
from madcap.linalg import (check_density_matrix, hermitian_eigenvalues,
                           is_psd, min_eigenvalues, partial_trace,
                           random_density_matrix, shannon_entropy,
                           von_neumann_entropy)
from madcap.structure import build_two_extension


def test_hermitian_eigenvalues_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(x), [-1.0, 1.0])


def test_hermitian_eigenvalues_sum_is_trace(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a + a.conj().T
        assert abs(np.sum(hermitian_eigenvalues(h)) - np.trace(h).real) < 1e-10


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_shannon_entropy_values():
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert abs(shannon_entropy(np.array([0.5, 0.5])) - 1.0) < 1e-12
    assert abs(shannon_entropy(np.full(8, 1 / 8)) - 3.0) < 1e-12


def test_von_neumann_entropy_pure_and_mixed():
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    assert abs(von_neumann_entropy(pure)) < 1e-10
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12


def test_von_neumann_entropy_additive_on_products(rng):
    for _ in range(10):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        lhs = von_neumann_entropy(np.kron(a, b))
        rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert abs(lhs - rhs) < 1e-9


def test_von_neumann_entropy_rejects_bad_states():
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # negative eigenvalue
    for x in (np.nan, np.inf):  # every comparison with NaN is False
        with pytest.raises(InvalidStateError, match="non-finite"):
            von_neumann_entropy(np.full((2, 2), x))
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = x
        with pytest.raises(InvalidStateError, match="non-finite"):
            check_density_matrix(rho)


def test_check_density_matrix_accepts_random(rng):
    for d in (2, 3, 5):
        check_density_matrix(random_density_matrix(d, rng))


def test_partial_trace_product_state(rng):
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    ab = np.kron(a, b)
    assert np.allclose(partial_trace(ab, [2, 3], [0]), a, atol=1e-12)
    assert np.allclose(partial_trace(ab, [2, 3], [1]), b, atol=1e-12)


def test_partial_trace_three_factors(rng):
    a = random_density_matrix(2, rng)
    b = random_density_matrix(2, rng)
    c = random_density_matrix(3, rng)
    abc = np.kron(np.kron(a, b), c)
    assert np.allclose(partial_trace(abc, [2, 2, 3], [0, 2]), np.kron(a, c),
                       atol=1e-12)
    assert np.allclose(partial_trace(abc, [2, 2, 3], [1]), b, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    m = m + m.conj().T
    reduced = partial_trace(m, [3, 4], [0])
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-10


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), [2, 2], [0])


def test_partial_trace_keeps_dtype_and_checks_keep():
    out = partial_trace(np.eye(8), [2, 2, 2], [0, 2])
    assert out.dtype == complex and out.shape == (4, 4)
    assert np.array_equal(out, 2 * np.eye(4))
    assert partial_trace(np.eye(6), [2, 3], []).shape == (1, 1)
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), [2, 3], [2])
    with pytest.raises(DimensionMismatchError, match="repeats"):
        partial_trace(np.eye(4), [2, 2], [0, 0])


def test_is_psd():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -0.1]))
    # the 1e-12 rounding floor holds at tol = 0, and only the floor
    assert is_psd(np.diag([1.0, -1e-13]), tol=0.0)
    assert not is_psd(np.diag([1.0, -1e-11]), tol=0.0)
    assert is_psd(np.diag([1.0, -1e-11]), tol=1e-10)


def test_is_psd_rejects_non_hermitian_and_non_square():
    with pytest.raises(NonHermitianError):
        is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NonHermitianError):
        is_psd(np.array([[1.0, 1j], [1j, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        is_psd(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        is_psd(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        min_eigenvalues(np.zeros((3, 2)))
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidStateError, match="non-finite"):
            is_psd(np.full((2, 2), x))
        with pytest.raises(InvalidStateError, match="non-finite"):
            hermitian_eigenvalues(np.diag([1.0, x]))


def random_hermitian(s, rng, complex_):
    a = rng.normal(size=(s, s))
    if complex_:
        a = a + 1j * rng.normal(size=(s, s))
    return a + a.conj().T


def hidden_block_diagonal(sizes, rng, complex_, chains=False):
    """Block-diagonal Hermitian matrix with random blocks, its rows and
    columns shuffled by one random permutation. With ``chains`` each block
    is tridiagonal, so its members are connected only through a path."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex if complex_ else float)
    at = 0
    for s in sizes:
        block = random_hermitian(s, rng, complex_)
        if chains:
            block = np.triu(np.tril(block, 1), -1)
        m[at:at + s, at:at + s] = block
        at += s
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def dense_min(m):
    return np.linalg.eigvalsh(m)[..., 0]


def assert_matches_dense(m):
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    assert np.all(np.abs(min_eigenvalues(m) - dense_min(m)) <= 1e-12 * scale)


@pytest.mark.parametrize("chains", [False, True])
@pytest.mark.parametrize("complex_", [False, True])
def test_min_eigenvalues_on_hidden_blocks(rng, complex_, chains):
    for _ in range(30):
        sizes = rng.integers(1, 8, size=rng.integers(1, 9)).tolist()
        assert_matches_dense(hidden_block_diagonal(sizes, rng, complex_, chains))


@pytest.mark.parametrize("complex_", [False, True])
def test_min_eigenvalues_stack_with_different_patterns(rng, complex_):
    # every member has its own blocks; the stack's combined pattern is
    # coarser than each of them
    stack = np.stack([hidden_block_diagonal([1, 2, 3, 7, 1, 4], rng, complex_)
                      for _ in range(6)])
    assert_matches_dense(stack)
    assert_matches_dense(stack.reshape(2, 3, 18, 18))


def test_min_eigenvalues_dense_diagonal_and_1x1(rng):
    for complex_ in (False, True):
        assert_matches_dense(random_hermitian(9, rng, complex_))
    d = rng.normal(size=(4, 10))
    assert np.array_equal(min_eigenvalues(d[..., None] * np.eye(10)),
                          d.min(axis=1))
    assert min_eigenvalues(np.array([[-2.5]])) == -2.5
    assert np.array_equal(min_eigenvalues(np.array([[[3.0]], [[-1.0 + 0j]]])),
                          [3.0, -1.0])
    assert min_eigenvalues(np.zeros((5, 5))) == 0.0


@pytest.mark.parametrize("complex_", [False, True])
def test_min_eigenvalues_reads_the_lower_triangle(rng, complex_):
    m = hidden_block_diagonal([3, 5, 1, 4], rng, complex_)
    upper = np.triu(rng.normal(size=m.shape), 1) * (m != 0)
    near = m + 1e-3 * upper
    assert abs(dense_min(near) - np.linalg.eigvalsh(near, UPLO="U")[0]) > 1e-6
    assert_matches_dense(near)


def test_min_eigenvalues_real_path_for_zero_imaginary_part(rng):
    m = hidden_block_diagonal([2, 6, 1], rng, False)
    assert np.array_equal(min_eigenvalues(m.astype(complex)), min_eigenvalues(m))


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_is_psd_verdicts_match_dense_on_extension_grid():
    """Every two-extension of one benchmark round (seed 0): the sector split
    gives the dense solve's verdict."""
    wl = load_bench_workloads()
    tol = wl.TOL_PSD
    built = 0
    for rows in wl.extension_points(0, 0, wl.EXTENSION_POINTS[0]):
        decays = {(j + 1, i): row[i] / wl.EXT_STEPS
                  for j, row in enumerate(rows) for i in range(j + 1)
                  if row[i] > 0}
        try:
            tau = build_two_extension(TransitionMatrix(wl.EXT_DIM, decays)).tau
        except ConditionViolatedError:
            continue  # known float-boundary point
        built += 1
        dense = dense_min(tau.astype(complex)) >= -tol * max(1.0, np.abs(tau).max())
        assert is_psd(tau, tol) == dense
    assert built > 3000


def test_random_density_matrix_is_valid(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density_matrix(d, rng)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert is_psd(rho, tol=1e-12)
