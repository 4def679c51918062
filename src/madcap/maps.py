"""Generic linear maps on matrices, held as one dense superoperator.

A map is stored as the matrix S of shape d_out² × d_in² acting on row-major
vectorized inputs: vec(Phi(X)) = S vec(X). The map theta -> sum_k A_k theta
A_k† has S = sum_k A_k ⊗ conj A_k; maps that are not CP, such as channel
inverses, are built directly from their superoperators. Composition is a
matrix product and the Choi matrix is a reshuffle of S.
"""
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError


class LinearMap:
    def __init__(self, superop: np.ndarray):
        s = np.asarray(superop, dtype=complex)
        dims = [math.isqrt(n) for n in s.shape]
        if len(dims) != 2 or s.shape != (dims[0] ** 2, dims[1] ** 2):
            raise DimensionMismatchError(
                f"superoperator shape {s.shape} is not d_out² × d_in²")
        self._s = s
        self.out_dim, self.in_dim = dims

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "LinearMap":
        """theta -> sum_k A_k theta A_k†."""
        try:
            a = np.asarray(ops, dtype=complex)
        except ValueError as exc:  # operators of different shapes
            raise DimensionMismatchError("inconsistent operator shapes") from exc
        if a.ndim != 3 or not len(a):
            raise DimensionMismatchError(
                "a LinearMap needs a non-empty list of equally shaped matrices")
        do, d = a.shape[1:]
        sup = np.einsum("kpm,kqn->pqmn", a, a.conj())
        return cls(sup.reshape(do * do, d * d))

    @classmethod
    def identity(cls, d: int) -> "LinearMap":
        return cls.from_kraus([np.eye(d)])

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        x = np.asarray(mat, dtype=complex)
        if x.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"map expects {self.in_dim}x{self.in_dim} input, got {x.shape}")
        return (self._s @ x.reshape(-1)).reshape(self.out_dim, self.out_dim)

    def then(self, nxt: "LinearMap") -> "LinearMap":
        """Composition: apply self first, then ``nxt``."""
        if nxt.in_dim != self.out_dim:
            raise DimensionMismatchError("composition dimension mismatch")
        return LinearMap(nxt._s @ self._s)

    def choi(self, normalized: bool = True) -> np.ndarray:
        """(Id ⊗ map)(|Ω⟩⟨Ω|), divided by d_in when ``normalized``.

        Subsystem order: input copy first, output second, so the block (i, j)
        is map(|i⟩⟨j|). Always a fresh array.
        """
        d, do = self.in_dim, self.out_dim
        c = self._s.reshape(do, do, d, d).transpose(2, 0, 3, 1)
        c = c.reshape(d * do, d * do)
        return c / d if normalized else c.copy()

    def superoperator(self) -> np.ndarray:
        """Dense d_out² × d_in² matrix acting on row-major vectorized inputs."""
        return self._s.copy()

    def is_trace_preserving(self, tol: float = 1e-12) -> bool:
        """tr map(X) = tr X for all X: the rows of S belonging to the output's
        diagonal entries must sum to vec(I)."""
        do = self.out_dim
        traced = self._s.reshape(do, do, -1).trace(axis1=0, axis2=1)
        return bool(np.max(np.abs(traced - np.eye(self.in_dim).reshape(-1))) <= tol)
