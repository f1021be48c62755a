"""The circular correlation map and its trigonometric decomposition.

For an N-periodic input u the first n circular correlations
r_j = sum_k u_k u_{(k-j) mod N} are the image of u under a quadratic map f.
f factors as f(u) = S h(W^T u) with W an orthogonal matrix of sampled
cosine/sine vectors, h the elementwise square, and S the n x N matrix of
sampled cosines S[j, l] = cos(2 pi j l / N).  Under the energy constraint
u^T u = E the image of f is therefore the convex hull of the scaled distinct
columns of S, which is what the design solver optimizes over; this module
also inverts the map, recovering an input from simplex weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import InputSequence, OrderTooLarge, _lag_products


class InvalidWeights(ValueError):
    """Weights are not a valid point of the probability simplex."""


def xi(N: int, j: int) -> np.ndarray:
    """Sampled cosine vector, xi_j[l] = cos(2 pi j l / N), l = 0..N-1."""
    return np.cos(2.0 * np.pi * j * np.arange(N) / N)


def zeta(N: int, j: int) -> np.ndarray:
    """Sampled sine vector, zeta_j[l] = sin(2 pi j l / N), l = 0..N-1."""
    return np.sin(2.0 * np.pi * j * np.arange(N) / N)


@dataclass(frozen=True)
class CorrelationVector:
    """First n circular correlations of an input, with its energy budget."""

    r: np.ndarray
    energy: float

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("r must be a nonempty 1-D array")
        if not self.energy > 0:
            raise ValueError("energy must be positive")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "energy", float(self.energy))

    @property
    def n(self) -> int:
        return self.r.size


def circular_correlation(values: np.ndarray, n: int) -> np.ndarray:
    """r_j = sum_k u_k u_{(k-j) mod N} for j = 0..n-1 (raw array form), by FFT."""
    return _lag_products(np.asarray(values, dtype=float), None, n)


def quadratic_map(u, n: int, energy: float | None = None) -> CorrelationVector:
    """Apply the correlation map to an input sequence (or raw array)."""
    if isinstance(u, InputSequence):
        values, energy = u.values, u.energy
    else:
        values = np.asarray(u, dtype=float)
        if energy is None:
            energy = float(values @ values)
    return CorrelationVector(circular_correlation(values, n), energy)


def build_W(N: int) -> np.ndarray:
    """Orthogonal N x N matrix of normalized sampled cosines and sines.

    Columns (before the common factor sqrt(2/N)): xi_0/sqrt(2), then the
    cosines xi_1.. in increasing frequency (xi_{N/2}/sqrt(2) last for even N),
    then the sines in decreasing frequency.  With this ordering the l-th
    diagonal entry of W^T L_j W equals cos(2 pi j l / N), i.e. S[j, l].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    cols = [xi(N, 0) / np.sqrt(2.0)]
    if N % 2 == 0:
        cols += [xi(N, j) for j in range(1, N // 2)]
        if N >= 2:
            cols.append(xi(N, N // 2) / np.sqrt(2.0))
        cols += [zeta(N, j) for j in range(N // 2 - 1, 0, -1)]
    else:
        cols += [xi(N, j) for j in range(1, (N - 1) // 2 + 1)]
        cols += [zeta(N, j) for j in range((N - 1) // 2, 0, -1)]
    return np.sqrt(2.0 / N) * np.column_stack(cols)


def build_S(N: int, n: int) -> np.ndarray:
    """n x N matrix with S[j, l] = cos(2 pi j l / N)."""
    if n < 1 or N < 1:
        raise ValueError("N and n must be >= 1")
    if n > N:
        raise OrderTooLarge(f"n={n} rows need N >= n (N={N})")
    j = np.arange(n)[:, None]
    l = np.arange(N)[None, :]
    return np.cos(2.0 * np.pi * j * l / N)


def decompose_check(u, n: int, rel_tol: float = 1e-9) -> bool:
    """Check the factorization f(u) == S h(W^T u) on a concrete input."""
    values = u.values if isinstance(u, InputSequence) else np.asarray(u, dtype=float)
    N = values.size
    lhs = build_S(N, n) @ (build_W(N).T @ values) ** 2
    rhs = circular_correlation(values, n)
    scale = max(float(values @ values), np.finfo(float).tiny)
    return bool(np.max(np.abs(lhs - rhs)) <= rel_tol * scale)


def vertices(N: int, n: int, energy: float) -> np.ndarray:
    """The K = floor(N/2)+1 candidate vertices E * xi_j(0:n), as a (K, n) array.

    Mirrored columns of S (xi_{N-j} = xi_j) are dropped; for n = 1 the rows
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


def weights_to_r(a, S: np.ndarray, energy: float) -> CorrelationVector:
    """Map simplex weights to the correlation vector E * S a."""
    S = np.asarray(S, dtype=float)
    a = check_weights(a, S.shape[1])
    return CorrelationVector(energy * (S @ a), energy)


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
    # defensive roundtrip check; the identity is exact up to roundoff.  Columns
    # j and N - j of S coincide, and correlations are even in the lag, so the
    # K vertices at lags 0..K-1 cover every column and every lag.
    folded = a[:K].copy()
    folded[1 : (N + 1) // 2] += a[: N // 2 : -1]
    r = vertices(N, K, energy).T @ folded
    back = circular_correlation(u, K)
    if np.max(np.abs(back - r)) > 1e-8 * energy or abs(u @ u - energy) > 1e-10 * energy:
        raise ArithmeticError("input recovery failed its roundtrip check")
    return InputSequence(u, energy)


def nullspace_basis(N: int, n: int) -> list[np.ndarray]:
    """Orthogonal basis of the nullspace of S (the directions f cannot see).

    The sines zeta_1 .. zeta_{floor((N-1)/2)} are always annihilated by S;
    when n - 1 < floor(N/2) the unused cosines xi_n .. xi_{floor(N/2)} join
    them.  Together they span all N - rank(S) dimensions.
    """
    if n > N:
        raise OrderTooLarge(f"n={n} needs N >= n (N={N})")
    basis = [xi(N, j) for j in range(n, N // 2 + 1)]
    basis += [zeta(N, j) for j in range(1, (N - 1) // 2 + 1)]
    return basis
