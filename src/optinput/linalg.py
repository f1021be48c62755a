"""Dense symmetric-matrix services shared by the design and estimation layers.

Kernel inverses and least-squares solves funnel through the handful of
operations here, thin layers over LAPACK's Cholesky factor, so the failure
mode is centralized: factorizations raise :class:`NotPositiveDefinite`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NotPositiveDefinite(Exception):
    """A factorization or solve required a positive definite matrix."""


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix, stored symmetrized so a[i, j] == a[j, i] exactly."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def as_sym(m) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix) to SymMatrix."""
    return m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m, dtype=float))


def cholesky(m) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == m; NotPositiveDefinite if m is not PD."""
    try:
        return np.linalg.cholesky(as_sym(m).a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky factorization failed") from None


def solve(m, b) -> np.ndarray:
    """Solve m @ x = b for positive definite m via its Cholesky factor."""
    L = cholesky(m)
    return scipy.linalg.cho_solve((L, True), np.asarray(b, dtype=float))


def inverse(m) -> np.ndarray:
    """Inverse of a positive definite matrix (n triangular solves)."""
    a = as_sym(m).a
    return solve(a, np.eye(a.shape[0]))
