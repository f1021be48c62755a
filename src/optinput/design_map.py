"""The circular correlation map, its polytope image and its inverse.

For an N-periodic input u the first n circular correlations
r_j = sum_k u_k u_{(k-j) mod N} are the image of u under a quadratic map f.
f factors as f(u) = S h(W^T u) with W an orthogonal N x N matrix of sampled
cosine/sine vectors, h the elementwise square, and S the n x N matrix of
sampled cosines S[j, l] = cos(2 pi j l / N).  Under the energy constraint
u^T u = E the image of f is therefore the convex hull of the scaled distinct
columns of S, which is what the design solver optimizes over.  This module
computes f by FFT, lists the polytope's vertices, checks simplex weights over
the columns of S, and inverts f at such weights, for instance the ones that
produced the solver's optimal r.  No N x N matrix is formed: the dense W and
S are built only by the test oracles (tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from .estimator import InputSequence, OrderTooLarge, _lag_products


class InvalidWeights(ValueError):
    """Weights are not a valid point of the probability simplex."""


def circular_correlation(values: np.ndarray, n: int) -> np.ndarray:
    """r_j = sum_k u_k u_{(k-j) mod N} for j = 0..n-1 (raw array form), by FFT."""
    return _lag_products(np.asarray(values, dtype=float), None, n)


def vertices(N: int, n: int, energy: float) -> np.ndarray:
    """The K = floor(N/2)+1 candidate vertices E * S[:, j], as a (K, n) array.

    Mirrored columns of S (column N - j equals column j) are dropped; for n = 1 the rows
    coincide but are kept so vertex j always corresponds to column j of S.
    """
    if not energy > 0:
        raise ValueError("energy must be positive")
    if n > N:
        raise OrderTooLarge(f"n={n} needs N >= n (N={N})")
    js = np.arange(N // 2 + 1)[:, None]
    l = np.arange(n)[None, :]
    return energy * np.cos(2.0 * np.pi * js * l / N)


def check_weights(a, N: int, tol: float = 1e-10) -> np.ndarray:
    """Validate simplex weights over the N columns of S."""
    a = np.asarray(a, dtype=float)
    if a.shape != (N,):
        raise InvalidWeights(f"weights must have length N={N}")
    if np.min(a) < -tol:
        raise InvalidWeights("weights must be nonnegative")
    if abs(a.sum() - 1.0) > tol:
        raise InvalidWeights("weights must sum to 1")
    return np.clip(a, 0.0, None)


def recover_input(a, energy: float, N: int, sign_pattern=None, seed: int | None = None) -> InputSequence:
    """Invert the correlation map at the point E * S a of the feasible set.

    x = E * a solves S x = r with x >= 0; any elementwise square root z of x
    (sign_pattern chooses the branches: None = all +1, "random" = seeded coin
    flips, or an explicit array of +-1) gives an input u = W z with
    f(u) = E S a and u^T u = E.
    """
    a = check_weights(a, N)
    x = energy * a
    if sign_pattern is None:
        signs = np.ones(N)
    elif isinstance(sign_pattern, str) and sign_pattern == "random":
        signs = np.where(np.random.default_rng(seed).random(N) < 0.5, -1.0, 1.0)
    else:
        signs = np.asarray(sign_pattern, dtype=float)
        if signs.shape != (N,) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("sign_pattern must be an array of +-1 of length N")
    # u = W z as one inverse real DFT: column j <= N/2 of W is the cosine at
    # frequency j and column N - j the sine at frequency j
    K = N // 2 + 1
    z = signs * np.sqrt(x)
    spec = np.sqrt(N / 2.0) * z[:K].astype(complex)
    spec[1 : (N + 1) // 2] -= 1j * np.sqrt(N / 2.0) * z[: N // 2 : -1]
    spec[0] *= np.sqrt(2.0)
    if N % 2 == 0:
        spec[-1] *= np.sqrt(2.0)
    u = np.fft.irfft(spec, N)
    # defensive roundtrip check, exact up to roundoff: lags 0..K-1 cover every
    # lag (correlations are even in it), and there E S a = E Re(rfft(a))
    r = energy * np.fft.rfft(a).real
    back = circular_correlation(u, K)
    if np.max(np.abs(back - r)) > 1e-8 * energy or abs(u @ u - energy) > 1e-10 * energy:
        raise ArithmeticError("input recovery failed its roundtrip check")
    return InputSequence(u, energy)

