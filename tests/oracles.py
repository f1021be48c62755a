"""Reference constructions the tests check the program against.

The dense matrices of the paper's factorization f(u) = S h(W^T u) of the
correlation map, and an exhaustive grid oracle for the design problem.  The
oracle shares no code with the design solver: its vertices come from build_S,
its criterion values from batched slogdet / inv / eigvalsh, and its gradient
from an explicit inverse (or eigendecomposition) of Q(r).  Of optinput it
reads only the problem statement and P^-1 (DesignProblem.p_inverse, which is
the kernels layer).
"""

import itertools
from typing import NamedTuple

import numpy as np
import scipy.linalg

from optinput.design_map import check_weights
from optinput.estimator import OrderTooLarge


class TooManyVertices(ValueError):
    """The brute-force oracle is restricted to few-vertex problems."""


class GridDesign(NamedTuple):
    """Best grid point r, its criterion value, and a first-order bound on value - optimum."""

    r: np.ndarray
    value: float
    slack: float


def build_W(N: int) -> np.ndarray:
    """Orthogonal N x N matrix of normalized sampled cosines and sines.

    Columns (before the common factor sqrt(2/N)): cos(2 pi 0 l / N)/sqrt(2),
    then the cosines at frequencies 1.. in increasing order (frequency N/2
    divided by sqrt(2) last for even N), then the sines in decreasing
    frequency.  With this ordering the l-th diagonal entry of W^T L_j W
    equals cos(2 pi j l / N), i.e. S[j, l].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    l = np.arange(N)
    cols = [np.cos(2.0 * np.pi * j * l / N) for j in range(N // 2 + 1)]
    cols[0] = cols[0] / np.sqrt(2.0)
    if N % 2 == 0:
        cols[-1] = cols[-1] / np.sqrt(2.0)
    cols += [np.sin(2.0 * np.pi * j * l / N) for j in range((N - 1) // 2, 0, -1)]
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


def weights_to_r(a, N: int, n: int, energy: float) -> np.ndarray:
    """The correlation vector E * S a of simplex weights a over the N columns of S."""
    return energy * (build_S(N, n) @ check_weights(a, N))


def _bands(n: int) -> np.ndarray:
    """(n, n, n) stack of the 0/1 Toeplitz band matrices B_i; B_0 is the identity."""
    bands = np.zeros((n, n, n))
    for i in range(n):
        idx = np.arange(n - i)
        bands[i, idx, idx + i] = 1.0
        bands[i, idx + i, idx] = 1.0
    return bands


def criterion_gradient(problem, r, p_inv=None) -> np.ndarray:
    """Gradient (E: a subgradient) of the criterion in r_1..r_{n-1}, from Q = Toeplitz(r) + sigma2 P^-1.

    D: -tr(Q^-1 B_i);  A: -sigma2 tr(Q^-2 B_i);  E: -(sigma2 / lam_0^2) v^T B_i v,
    with (lam_0, v) the minimal eigenpair of Q.
    """
    if p_inv is None:
        p_inv = problem.p_inverse()
    sigma2 = problem.sigma2
    Q = scipy.linalg.toeplitz(np.asarray(r, dtype=float)) + sigma2 * p_inv
    if problem.criterion == "D":
        M = np.linalg.inv(Q)
    elif problem.criterion == "A":
        Q_inv = np.linalg.inv(Q)
        M = sigma2 * Q_inv @ Q_inv
    else:
        lam, vecs = np.linalg.eigh(Q)
        M = sigma2 / lam[0] ** 2 * np.outer(vecs[:, 0], vecs[:, 0])
    return -np.einsum("ijk,jk->i", _bands(problem.n)[1:], M)


def _batched_criterion(criterion: str, rs: np.ndarray, p_inv: np.ndarray, sigma2: float, n: int) -> np.ndarray:
    Q = np.einsum("mi,ijk->mjk", rs, _bands(n)) + sigma2 * p_inv
    if criterion == "D":
        sign, ld = np.linalg.slogdet(Q)
        out = n * np.log(sigma2) - ld
        out[sign <= 0] = np.inf
        return out
    if criterion == "A":
        return sigma2 * np.trace(np.linalg.inv(Q), axis1=1, axis2=2)
    return sigma2 / np.linalg.eigvalsh(Q)[:, 0]


def _compositions(total: int, parts: int):
    """Yield chunks of all nonnegative integer compositions of total into parts.

    Stars and bars: each (parts - 1)-subset of the total + parts - 1 slots
    places the bars, and the parts are the gaps between consecutive bars.
    """
    bars = itertools.combinations(range(total + parts - 1), parts - 1)
    while block := list(itertools.islice(bars, 65536)):
        cuts = np.array(block, dtype=np.int64).reshape(len(block), parts - 1)
        edges = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, total + parts - 1))
        yield np.diff(edges, axis=1) - 1.0


def brute_force_design(problem, grid_resolution: int = 200) -> GridDesign:
    """Exhaustive scan of the weight simplex over the distinct vertices at a fixed grid.

    Only meant for problems with at most 6 distinct vertices, the columns
    0..floor(N/2) of E S (column N - j mirrors column j).  The slack bounds
    how far the best grid value can sit above the true minimum to first
    order: the gradient sup-norm over the vertices at the best grid point
    times the simplex rounding radius 2K/resolution.
    """
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    N, n = problem.N, problem.n
    columns = build_S(N, n)[:, : N // 2 + 1].T
    keys = {}
    for j, col in enumerate(columns):
        keys.setdefault(tuple(np.round(col, 12)), j)
    V = problem.energy * columns[sorted(keys.values())]
    K = len(V)
    if K > 6:
        raise TooManyVertices(f"{K} distinct vertices; the oracle allows at most 6")
    p_inv = problem.p_inverse()
    best_value, best_w = np.inf, None
    for chunk in _compositions(grid_resolution, K):
        weights = chunk / grid_resolution
        vals = _batched_criterion(problem.criterion, weights @ V, p_inv, problem.sigma2, n)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value, best_w = float(vals[i]), weights[i]
    r = best_w @ V
    g = criterion_gradient(problem, r, p_inv)
    slack = float(np.max(np.abs(V[:, 1:] @ g))) * 2.0 * K / grid_resolution
    return GridDesign(r=r, value=best_value, slack=slack)
