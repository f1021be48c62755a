"""Convex design of power-constrained inputs over the correlation polytope.

A design problem fixes a kernel, noise level, FIR order n, period N, energy
budget E and a criterion.  The decision variable is the correlation vector
r = E S a restricted to the polytope spanned by the K = floor(N/2)+1 distinct
vertices E xi_j(0:n); all three criteria are convex functions of

    Q(r) = Toeplitz(r) + sigma2 * P^{-1}.

All three, and the barrier that E is solved through, are spectral functions
of Q(r).  So one private kernel, _spectral, computes every value, gradient
and Hessian from one eigendecomposition Q = U diag(lam) U^T, taken through
the Cholesky factor; the solver and the public eval_criterion and
gradient_in_r all call it.

One projected Newton loop solves all three.  Each iteration takes the Newton
point of a smooth convex function of the free correlations r_1..r_{n-1},
projects it onto the polytope in the Hessian metric (one nonnegative
least-squares solve over the vertices, then an exact re-solve on its support),
and backtracks on the segment to that projection.  Both ends of the segment
are feasible, so every iterate is, and the Frank-Wolfe gap at an iterate is a
true bound.  D and A run the loop on their own value from r_dagger =
(E, 0, .., 0) and are certified by that gap.  E runs it along the log-det
barrier path of its semidefinite form, max t s.t. Q(r) - t I >= 0, and is
certified by the dual point Z = G / tr G, G = (Q - t I)^{-1}, which bounds
the optimal value from below.  A chunked brute-force grid scan over the
weight simplex, with its own batched slogdet / inv / eigvalsh formulas,
serves as an independent oracle for small K.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import linalg
from .design_map import CorrelationVector, recover_input, vertices
from .estimator import InputSequence
from .kernels import KernelSpec, kernel_inverse

CRITERIA = ("D", "A", "E")


class DimensionMismatch(ValueError):
    """Vector/matrix sizes are inconsistent with the problem dimensions."""


class TooManyVertices(ValueError):
    """The brute-force oracle is restricted to few-vertex problems."""


@dataclass(frozen=True)
class DesignProblem:
    """Immutable statement of one input-design instance."""

    kernel: KernelSpec
    sigma2: float
    n: int
    N: int
    energy: float
    criterion: str

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if not (self.n >= 1 and self.N >= self.n):
            raise ValueError("need N >= n >= 1")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not self.energy > 0:
            raise ValueError("energy must be positive")
        if self.kernel.n != self.n:
            raise DimensionMismatch("kernel order must equal the FIR order n")

    def p_inverse(self) -> np.ndarray:
        return kernel_inverse(self.kernel).a

    def r_dagger(self) -> np.ndarray:
        """The zero-correlation point (E, 0, ..., 0)."""
        r = np.zeros(self.n)
        r[0] = self.energy
        return r


@dataclass(frozen=True)
class SolverOptions:
    """Tolerance and budget for solve(); defaults favor accuracy over speed.

    One convergence rule for D, A and E: a design is converged when its
    certified gap is <= gap_rel_tol * |value|, or <= 1e-8 * |value| when the
    loop stalls at roundoff (no step lowers the value or shrinks the gap, or
    the E barrier path reaches s * lambda_min > 1e11).  max_iter bounds the
    Newton steps.
    """

    gap_rel_tol: float = 1e-13
    max_iter: int = 5000


@dataclass(frozen=True)
class Certificate:
    """How a design was found: the gap at the returned r (value minus a lower
    bound on the optimum), the Newton steps or grid points of the method that
    returned it ("newton" for D/A, "barrier" for E, or "grid"), and whether
    the gap met its target.  The gap is clamped at 0: at a vertex optimum the
    difference of nearly equal numbers can round below it (-5.6e-17)."""

    gap: float
    iterations: int
    converged: bool
    method: str


@dataclass(frozen=True)
class DesignSolution:
    """Optimal correlations r, simplex weights a, a realizing input, and value."""

    r: np.ndarray
    a: np.ndarray
    u: InputSequence
    value: float
    criterion: str
    certificate: Certificate

    def correlation(self) -> CorrelationVector:
        return CorrelationVector(self.r, self.u.energy)

    def to_json(self) -> dict:
        return {
            "r": self.r.tolist(),
            "a": self.a.tolist(),
            "u": self.u.values.tolist(),
            "value": self.value,
            "criterion": self.criterion,
            "certificate": {
                "gap": self.certificate.gap,
                "iterations": self.certificate.iterations,
                "converged": self.certificate.converged,
                "method": self.certificate.method,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DesignSolution":
        r = np.asarray(obj["r"], dtype=float)
        cert = obj["certificate"]
        return cls(
            r=r,
            a=np.asarray(obj["a"], dtype=float),
            u=InputSequence(np.asarray(obj["u"], dtype=float), float(r[0])),
            value=float(obj["value"]),
            criterion=obj["criterion"],
            certificate=Certificate(
                float(cert["gap"]), int(cert["iterations"]), bool(cert["converged"]), cert.get("method", "")
            ),
        )


def q_of_r(r, p_inv, sigma2: float) -> linalg.SymMatrix:
    """Q(r) = Toeplitz(r) + sigma2 * P^{-1}."""
    r = np.asarray(r, dtype=float)
    p = linalg.as_sym(p_inv)
    if r.shape != (p.dim,):
        raise DimensionMismatch(f"r has length {r.size}, P^-1 is {p.dim} x {p.dim}")
    return linalg.SymMatrix(scipy.linalg.toeplitz(r) + sigma2 * p.a)


def _toeplitz_bands(n: int) -> np.ndarray:
    """(n, n, n) stack of the 0/1 Toeplitz band matrices; slice 0 is the identity."""
    bands = np.zeros((n, n, n))
    for i in range(n):
        idx = np.arange(n - i)
        bands[i, idx, idx + i] = 1.0
        bands[i, idx + i, idx] = 1.0
    return bands


def _spectral(problem, Q: np.ndarray, bands: np.ndarray | None = None, s: float | None = None):
    """Criterion value, gradient and Hessian from one eigendecomposition Q(r) = U diag(lam) U^T.

    The decomposition is the SVD L^T = X diag(sqrt(lam)) U^T of the Cholesky
    factor Q = L L^T.  eigh resolves eigenvalues only to eps ||Q||: on the
    graded Q of a TC prior that puts 1e-13 relative error on the A value and
    1e-5 on its gradient, and the Newton loop stalls short of its target.
    Through the factor the errors there are 6e-16 and 3e-7.

    D = n log sigma2 - sum log lam_a, A = sigma2 sum 1/lam_a, E = sigma2 / lam_0;
    with s, the E barrier E_s = min_t [-s t - sum log(lam_a - t)], whose t
    solves sum 1/(lam_a - t) = s: Newton on x = lam_0 - t from x = 1/s, where
    the sum is >= s, rises monotonically to the root.

    Returns (value,), or with the band matrices B_1..B_{n-1} the tuple
    (value, g, H, lam, f'(lam)) of the gradient and Hessian in r[1:].  With
    C_i = U^T B_i U, g_i = sum_a f'(lam_a) C_i[a, a] and
    H_ik = sum_ab Gam_ab C_i[a, b] C_k[a, b], Gam the divided differences of f'
    (Lewis, Math. Oper. Res. 21(3), 1996): D has f' = -w, Gam = w w^T with
    w = 1/lam; A has f' = -sigma2 w^2, Gam_ab = sigma2 (w_a + w_b) w_a w_b;
    E_s is D's form with w = 1/(lam - t), less the Schur term of the
    minimization over t; E has the subgradient of sigma2 / lam_0 and no H.
    Returns None where Q is not positive definite.
    """
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return None
    _, sv, Vt = np.linalg.svd(L.T)
    lam, U = sv[::-1] ** 2, Vt[::-1].T
    sigma2 = problem.sigma2
    if s is not None:
        delta = lam - lam[0]
        x = 1.0 / s
        while True:
            w = 1.0 / (delta + x)
            x_next = x + (float(np.sum(w)) - s) / float(w @ w)
            if not x_next > x:
                break
            x = x_next
        value = -s * (lam[0] - x) - float(np.sum(np.log(delta + x)))
        fp, gam = -w, np.outer(w, w)
    elif problem.criterion == "D":
        w = 1.0 / lam
        value = problem.n * np.log(sigma2) - float(np.sum(np.log(lam)))
        fp, gam = -w, np.outer(w, w)
    elif problem.criterion == "A":
        w = 1.0 / lam
        value = sigma2 * float(np.sum(w))
        fp, gam = -sigma2 * w * w, sigma2 * (w[:, None] + w) * np.outer(w, w)
    else:
        value = sigma2 / lam[0]
        fp, gam = np.zeros_like(lam), None
        fp[0] = -value / lam[0]
    if bands is None:
        return (value,)
    C = U.T @ bands @ U
    diag = np.diagonal(C, axis1=1, axis2=2)
    g = diag @ fp
    if gam is None:
        return value, g, None, lam, fp
    C = C.reshape(-1, lam.size**2)
    H = (C * gam.ravel()) @ C.T
    if s is not None:
        f_rt = diag @ (w * w)
        H -= np.outer(f_rt, f_rt) / float(w @ w)
    return value, g, H, lam, fp


def _terms_at(problem: DesignProblem, r, p_inv, derivs: bool):
    """_spectral at r for the public functions; NotPositiveDefinite where Q(r) is not PD."""
    if p_inv is None:
        p_inv = problem.p_inverse()
    Q = q_of_r(r, p_inv, problem.sigma2).a
    out = _spectral(problem, Q, _toeplitz_bands(problem.n)[1:] if derivs else None)
    if out is None:
        raise linalg.NotPositiveDefinite("Q(r) is not positive definite")
    return out


def eval_criterion(problem: DesignProblem, r, p_inv=None) -> float:
    """Criterion value at r: D = n log sigma2 - log det Q, A = sigma2 tr Q^{-1},
    E = sigma2 / lambda_min(Q)."""
    return float(_terms_at(problem, r, p_inv, False)[0])


def gradient_in_r(problem: DesignProblem, r, p_inv=None) -> np.ndarray:
    """Gradient (for E: a subgradient) in the free coordinates r_1..r_{n-1}.

    D: -tr(Q^{-1} Q_i);  A: -sigma2 tr(Q^{-2} Q_i);  E: -(sigma2/lam^2) v^T Q_i v,
    where Q_i is the 0/1 Toeplitz band matrix at offset i and (lam, v) is a
    minimal eigenpair of Q(r).
    """
    return _terms_at(problem, r, p_inv, True)[1]


_GAP_FLOOR = 1e-8  # relative gap accepted when the loop stalls at roundoff
_BARRIER_LIMIT = 1e11  # s * lambda_min beyond which the barrier terms lose their digits


def _duality_gap(V: np.ndarray, r: np.ndarray, g: np.ndarray) -> float:
    """Frank-Wolfe gap g.r[1:] - min_j g.v_j[1:]; bounds value - optimum when r is feasible."""
    return float(g @ r[1:] - np.min(V[:, 1:] @ g))


def _project(V1: np.ndarray, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Point of conv(rows of V1) nearest to z in the metric H = L L^T.

    One NNLS of [L^T V1^T; M 1^T] w ~ [L^T z; M] finds the active vertices; its
    penalty row leaves sum(w) off 1, so w is re-solved on that support by
    least squares with sum(w) = 1 exactly (kept when it stays nonnegative).
    """
    A = L.T @ V1.T
    b = L.T @ z
    M = 1e3 * float(np.max(np.abs(A)))
    w, _ = scipy.optimize.nnls(np.vstack([A, np.full(A.shape[1], M)]), np.append(b, M))
    S = np.flatnonzero(w)
    y = np.linalg.lstsq(A[:, S[:-1]] - A[:, S[-1:]], b - A[:, S[-1]], rcond=None)[0]
    if np.all(y >= 0.0) and y.sum() <= 1.0:
        w[S] = np.append(y, 1.0 - y.sum())
    return (w / w.sum()) @ V1


def _descend(terms, V: np.ndarray, r: np.ndarray):
    """Projected Newton iterates of a smooth convex function of r[1:] over the polytope.

    terms(r, derivs) returns a tuple led by the value, the gradient g and the
    Hessian H in r[1:] (None beyond the value unless derivs), or None where the
    function is undefined.  Each step projects the Newton point r[1:] - H^{-1} g
    onto the polytope in the H metric and backtracks (Armijo) on the segment
    from r to that projection.  Both ends are feasible, so every iterate is,
    and its Frank-Wolfe gap bounds value - optimum.  Yields (r, gap, terms(r,
    True)) from the start r on.  Returns once no step lowers the value, or a
    step that only held it within roundoff did not shrink the gap: the loop
    has stalled at roundoff.
    """
    V1, eps = V[:, 1:], np.finfo(float).eps
    prev_gap, flat = np.inf, False
    while True:
        out = terms(r, True)
        value, g, H = out[:3]
        gap = _duality_gap(V, r, g)
        if flat and not gap < prev_gap:
            return
        yield r, gap, out
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            return
        d = _project(V1, L, r[1:] - scipy.linalg.cho_solve((L, True), g)) - r[1:]
        slope = float(g @ d)
        # a rise within the value's roundoff passes, so Newton steps near the optimum go through
        slack = 8.0 * eps * abs(value)
        t = 1.0
        while True:
            trial = r.copy()
            trial[1:] += t * d
            new = terms(trial, False)
            if new is not None and new[0] <= value + 0.25 * t * slope + slack:
                break
            t *= 0.5
            if t < 1e-12:
                return
        flat, prev_gap, r = not new[0] < value, gap, trial


def _vertex_weights(V: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Basic vertex weights of a point of the polytope: one NNLS of [V^T / E; 1^T] w = [r / E; 1]."""
    w, _ = scipy.optimize.nnls(np.vstack([V.T / r[0], np.ones(V.shape[0])]), np.append(r / r[0], 1.0))
    return w / w.sum()


def _certificate(gap: float, value: float, iterations: int, stalled: bool, method: str, opts) -> Certificate:
    """The one convergence rule: gap <= gap_rel_tol |value|, or <= 1e-8 |value| after a stall."""
    gap = max(gap, 0.0)
    met = gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny
    converged = met or (stalled and gap <= _GAP_FLOOR * abs(value))
    return Certificate(gap=float(gap), iterations=iterations, converged=bool(converged), method=method)


def _in_r(problem, p_inv: np.ndarray, s: float | None = None):
    """_spectral as the terms(r, derivs) of _descend."""
    bands = _toeplitz_bands(problem.n)[1:]

    def terms(r, derivs):
        return _spectral(problem, scipy.linalg.toeplitz(r) + problem.sigma2 * p_inv, bands if derivs else None, s)

    return terms


def _newton_design(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """D/A: projected Newton on the criterion from r_dagger, certified by the Frank-Wolfe gap."""
    it, stalled = 0, True
    for it, (r, gap, (value, *_)) in enumerate(_descend(_in_r(problem, p_inv), V, problem.r_dagger())):
        if gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny or it == opts.max_iter:
            stalled = False
            break
    return r, value, _certificate(gap, value, it, stalled, "newton", opts)


def _e_bound(sigma2: float, lam: np.ndarray, fp: np.ndarray, gap: float) -> float:
    """sigma2 / max_r' <Z, Q(r')> over the polytope for the dual point Z = U diag(w) U^T / sum(w), w = -f'(lam).

    lambda_min(Q(r')) <= <Z, Q(r')> = <Z, Q(r)> + <Z, Toeplitz(r' - r)>, and
    <Z, Q(r)> = w.lam / sum(w).  For E and E_s the gradient is
    g_i = -<U diag(w) U^T, B_i>, so the maximum of the last term over the
    vertices is the Frank-Wolfe gap of g over sum(w): the result bounds the
    optimal E value from below.
    """
    w = -fp
    return sigma2 * float(np.sum(w)) / (float(w @ lam) + gap)


def _barrier_design(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """E: projected Newton along the log-det barrier path of max t s.t. Q(r) - t I >= 0.

    r_dagger is tested first with Z = v v^T from its bottom eigenvector.  Then
    E_s is minimized from s = n / lambda_min(Q(r_dagger)) on, s growing tenfold
    once the barrier's own gap is below 1.  Each iterate gives the dual point
    Z = G / tr G, G = (Q - t I)^{-1}; the best value and the best bound make
    the certificate.
    """
    sigma2, tol = problem.sigma2, opts.gap_rel_tol
    r = problem.r_dagger()
    best, g, _, lam, fp = _in_r(problem, p_inv)(r, True)
    best_r, bound = r, _e_bound(sigma2, lam, fp, _duality_gap(V, r, g))
    s, lam0, it, stalled = problem.n / lam[0], lam[0], 0, False
    while best - bound > tol * best and it < opts.max_iter and not stalled:
        for r, gap, (_, _, _, lam, fp) in _descend(_in_r(problem, p_inv, s), V, r):
            lam0 = lam[0]
            if sigma2 / lam0 < best:
                best_r, best = r, sigma2 / lam0
            bound = max(bound, _e_bound(sigma2, lam, fp, gap))
            if best - bound <= tol * best or it == opts.max_iter or gap <= 1.0:
                break
            it += 1
        else:
            stalled = True
        stalled = stalled or s * lam0 > _BARRIER_LIMIT
        s *= 10.0
    return best_r, best, _certificate(best - bound, best, it, stalled, "barrier", opts)


def solve(
    problem: DesignProblem,
    options: SolverOptions | None = None,
    sign_pattern=None,
    seed: int | None = None,
) -> DesignSolution:
    """Minimize the problem's criterion over the correlation polytope.

    Returns the optimal correlations, the full-length simplex weights over the
    columns of S (mass only on the first K = floor(N/2)+1 columns), and one
    input realizing them via recover_input.
    """
    opts = options or SolverOptions()
    p_inv = problem.p_inverse()
    V = vertices(problem.N, problem.n, problem.energy)
    design = _barrier_design if problem.criterion == "E" else _newton_design
    r, value, cert = design(problem, V, p_inv, opts)
    w = _vertex_weights(V, r)
    a = np.zeros(problem.N)
    a[: w.size] = w
    a = np.clip(a, 0.0, None)
    a /= a.sum()
    u = recover_input(a, problem.energy, problem.N, sign_pattern=sign_pattern, seed=seed)
    return DesignSolution(r=r, a=a, u=u, value=value, criterion=problem.criterion, certificate=cert)


def check_rdagger_optimality(problem: DesignProblem, tol: float = 1e-10) -> dict:
    """Stationarity test of r^dagger = (E, 0, .., 0) for the problem's criterion.

    Returns the inner products of the gradient at r^dagger with the vertex
    directions xi_j(1:n), j = 0..floor(N/2); r^dagger is optimal iff all are
    nonnegative (up to tol).
    """
    g = gradient_in_r(problem, problem.r_dagger())
    values = vertices(problem.N, problem.n, 1.0)[:, 1:] @ g
    return {"is_stationary": bool(np.all(values >= -tol)), "directional_derivatives": values}


def _batched_criterion(criterion: str, rs: np.ndarray, p_inv: np.ndarray, sigma2: float, n: int) -> np.ndarray:
    Q = np.einsum("mi,ijk->mjk", rs, _toeplitz_bands(n)) + sigma2 * p_inv
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


def brute_force_design(problem: DesignProblem, grid_resolution: int = 200) -> DesignSolution:
    """Independent oracle: exhaustive scan of the weight simplex at a fixed grid.

    Only meant for problems with at most 6 distinct vertices.  The returned
    certificate's gap field carries a first-order bound on how far the best
    grid value can sit above the true minimum (gradient sup-norm at the best
    grid point times the simplex rounding radius 2K/resolution).
    """
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    p_inv = problem.p_inverse()
    V = vertices(problem.N, problem.n, problem.energy)
    keys = {}
    for idx, row in enumerate(V):
        key = tuple(np.round(row / problem.energy, 12))
        keys.setdefault(key, idx)
    distinct = sorted(keys.values())
    Vd = V[distinct]
    K = Vd.shape[0]
    if K > 6:
        raise TooManyVertices(f"{K} distinct vertices; the oracle allows at most 6")
    best_value = np.inf
    best_w = None
    count = 0
    for chunk in _compositions(grid_resolution, K):
        weights = chunk / grid_resolution
        rs = weights @ Vd
        vals = _batched_criterion(problem.criterion, rs, p_inv, problem.sigma2, problem.n)
        count += len(vals)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value = float(vals[i])
            best_w = weights[i]
    r = best_w @ Vd
    g = gradient_in_r(problem, r, p_inv)
    g_w = Vd[:, 1:] @ g
    slack = float(np.max(np.abs(g_w))) * 2.0 * K / grid_resolution
    a = np.zeros(problem.N)
    for wj, idx in zip(best_w, distinct):
        a[idx] += wj
    a /= a.sum()
    u = recover_input(a, problem.energy, problem.N)
    return DesignSolution(
        r=r,
        a=a,
        u=u,
        value=best_value,
        criterion=problem.criterion,
        certificate=Certificate(gap=slack, iterations=count, converged=True, method="grid"),
    )
