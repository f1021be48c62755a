"""Dense symmetric-matrix services shared by the design and estimation layers.

The layers pass plain ndarrays.  :class:`SymMatrix` validates a matrix that comes
from outside (a CustomInverse p_inv, the P given to bayesian_mse) and types
FirEstimate.posterior_cov.  A failed Cholesky factorization, here or in the
layers' own LAPACK calls, is reported as :class:`NotPositiveDefinite`.
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


def inverse(m: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of a positive definite matrix (n triangular solves on its Cholesky factor)."""
    try:
        L = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky factorization failed") from None
    x = scipy.linalg.cho_solve((L, True), np.eye(len(m)))
    return (x + x.T) / 2.0
