"""Convex design of power-constrained inputs over the correlation polytope.

A design problem fixes a kernel, noise level, FIR order n, period N, energy
budget E and a criterion.  The decision variable is the correlation vector
r = E S a restricted to the polytope spanned by the K = floor(N/2)+1 distinct
vertices E S[:, j]; all three criteria are convex functions of

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
true bound; the iterate's vertex weights move with it, and solve returns
them.  D and A run the loop on their own value from r_dagger = (E, 0, .., 0)
and are certified by that gap.  E runs it once along the log-det barrier path
of max t s.t. Q(r) - t I >= 0, raising the barrier parameter after every step
from the certified gap, and is certified by the dual point Z = G / tr G,
G = (Q - t I)^{-1}.  The tests hold an independent oracle for small K: a
grid scan over the weight simplex with its own criterion and gradient
formulas (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import linalg
from .design_map import recover_input, vertices
from .estimator import InputSequence
from .kernels import KernelSpec, kernel_inverse

CRITERIA = ("D", "A", "E")


class DimensionMismatch(ValueError):
    """Vector/matrix sizes are inconsistent with the problem dimensions."""


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
        if not 0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0 < self.energy < np.inf:
            raise ValueError(f"energy must be positive and finite, got {self.energy}")
        if self.kernel.n != self.n:
            raise DimensionMismatch("kernel order must equal the FIR order n")

    def p_inverse(self) -> np.ndarray:
        return kernel_inverse(self.kernel)

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
    loop stalls at roundoff (no step lowers the value or shrinks the gap).
    max_iter bounds the Newton steps; at 0, solve returns r_dagger with its
    certificate.
    """

    gap_rel_tol: float = 1e-13
    max_iter: int = 5000

    def __post_init__(self):
        if not self.gap_rel_tol >= 0:
            raise ValueError(f"gap_rel_tol must be >= 0, got {self.gap_rel_tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class Certificate:
    """How a design was found: the gap at the returned r (value minus a lower
    bound on the optimum), the Newton steps of the method that returned it
    ("newton" for D/A, "barrier" for E), and whether the gap met its target.
    The gap is clamped at 0: at a vertex optimum the difference of nearly
    equal numbers can round below it (-5.6e-17)."""

    gap: float
    iterations: int
    converged: bool
    method: str


@dataclass(frozen=True)
class DesignSolution:
    """Optimal correlations r, the simplex weights a that produced r (E S a = r), a realizing input, and value."""

    r: np.ndarray
    a: np.ndarray
    u: InputSequence
    value: float
    criterion: str
    certificate: Certificate

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


def q_of_r(r, p_inv: np.ndarray, sigma2: float) -> np.ndarray:
    """Q(r) = Toeplitz(r) + sigma2 * P^{-1}."""
    r = np.asarray(r, dtype=float)
    n = len(p_inv)
    if r.shape != (n,):
        raise DimensionMismatch(f"r has length {r.size}, P^-1 is {n} x {n}")
    return scipy.linalg.toeplitz(r) + sigma2 * p_inv


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
    Q = q_of_r(r, p_inv, problem.sigma2)
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
_KAPPA = 1e3  # E: the barrier gap n / s is aimed at 1 / _KAPPA of the certified gap


def _duality_gap(V: np.ndarray, r: np.ndarray, g: np.ndarray) -> float:
    """Frank-Wolfe gap g.r[1:] - min_j g.v_j[1:]; bounds value - optimum when r is feasible."""
    return float(g @ r[1:] - np.min(V[:, 1:] @ g))


def _project(V1: np.ndarray, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Simplex weights w of the point w @ V1 of conv(rows of V1) nearest to z in the metric H = L L^T.

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
    return w / w.sum()


def _factor(H: np.ndarray):
    """Cholesky factor of H or, where that fails, of H + tau max|H| I with tau rising tenfold from 1e-14 to 1."""
    for tau in (0.0, *(10.0**k for k in range(-14, 1))):
        try:
            return np.linalg.cholesky(H + tau * np.max(np.abs(H)) * np.eye(len(H)) if tau else H)
        except np.linalg.LinAlgError:
            pass
    return None


def _descend(terms, V: np.ndarray, r: np.ndarray, a: np.ndarray):
    """Projected Newton iterates of a smooth convex function of r[1:] over the polytope.

    terms(r, derivs) returns a tuple led by the value, the gradient g and the
    Hessian H in r[1:] (None beyond the value unless derivs), or None where the
    function is undefined.  Each step projects the Newton point onto the
    polytope in the metric H (damped by _factor) and backtracks (Armijo) to
    t on the segment from r to the projection w @ V; r's weights a (r = a @ V)
    move to a + t (w - a).  Both ends are feasible, so every iterate is, and
    its Frank-Wolfe gap bounds value - optimum.  Yields (r, a, gap, terms(r,
    True)) from the start on.  Returns once no step lowers the value, or a
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
        yield r, a, gap, out
        L = _factor(H)
        if L is None:
            return
        w = _project(V1, L, r[1:] - scipy.linalg.cho_solve((L, True), g))
        d = w @ V1 - r[1:]
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
        flat, prev_gap, r, a = not new[0] < value, gap, trial, a + t * (w - a)


def _dagger_weights(N: int) -> np.ndarray:
    """Weights of r_dagger on the K vertices: S 1/N = (1, 0, .., 0), with column l on vertex min(l, N - l)."""
    l = np.arange(N)
    return np.bincount(np.minimum(l, N - l)) / N


def _certificate(gap: float, value: float, iterations: int, stalled: bool, method: str, opts) -> Certificate:
    """The one convergence rule: gap <= gap_rel_tol |value|, or <= 1e-8 |value| after a stall."""
    gap = max(gap, 0.0)
    met = gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny
    converged = met or (stalled and gap <= _GAP_FLOOR * abs(value))
    return Certificate(gap=float(gap), iterations=iterations, converged=bool(converged), method=method)


class _in_r:
    """_spectral as the terms(r, derivs) of _descend; with s, of the E barrier E_s at self.s.

    An object, as the E loop raises s and a closure reading its own s is a cycle that outlives the solve."""

    def __init__(self, problem, p_inv: np.ndarray, s: float | None = None):
        self.problem, self.s = problem, s
        self.bands, self.prior = _toeplitz_bands(problem.n)[1:], problem.sigma2 * p_inv

    def __call__(self, r, derivs):
        return _spectral(self.problem, scipy.linalg.toeplitz(r) + self.prior, self.bands if derivs else None, self.s)


def _newton_design(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """D/A: projected Newton on the criterion from r_dagger, certified by the Frank-Wolfe gap."""
    it, stalled = 0, True
    start = problem.r_dagger(), _dagger_weights(problem.N)
    for it, (r, a, gap, (value, *_)) in enumerate(_descend(_in_r(problem, p_inv), V, *start)):
        if gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny or it == opts.max_iter:
            stalled = False
            break
    return r, a, value, _certificate(gap, value, it, stalled, "newton", opts)


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
    one _descend loop minimizes E_s from s = n / lambda_min(Q(r_dagger)); after
    every step s rises to _KAPPA n / (sigma2 / bound - lambda_min(Q(r))), aiming
    the barrier gap n / s at 1 / _KAPPA of the certified gap (the next line
    search compares with the value at the old s).  The best value and the best
    bound of the dual points Z = G / tr G, G = (Q - t I)^{-1}, certify the result.
    """
    sigma2, tol = problem.sigma2, opts.gap_rel_tol
    r, a, terms = problem.r_dagger(), _dagger_weights(problem.N), _in_r(problem, p_inv)
    best, g, _, lam, fp = terms(r, True)
    best_r, best_a, bound = r, a, _e_bound(sigma2, lam, fp, _duality_gap(V, r, g))
    terms.s, stalled = problem.n / lam[0], True
    for it, (r, a, gap, (_, _, _, lam, fp)) in enumerate(_descend(terms, V, r, a)):
        if sigma2 / lam[0] < best:
            best_r, best_a, best = r, a, sigma2 / lam[0]
        bound = max(bound, _e_bound(sigma2, lam, fp, gap))
        if best - bound <= tol * best or it == opts.max_iter:
            stalled = False
            break
        terms.s = max(terms.s, _KAPPA * problem.n / (sigma2 / bound - lam[0]))
    return best_r, best_a, best, _certificate(best - bound, best, it, stalled, "barrier", opts)


def solve(
    problem: DesignProblem,
    options: SolverOptions | None = None,
    sign_pattern=None,
    seed: int | None = None,
) -> DesignSolution:
    """Minimize the problem's criterion over the correlation polytope.

    Returns the optimal correlations r, the weights that produced r as
    full-length simplex weights over the columns of S (mass only on the first
    K = floor(N/2)+1 columns; E S a = r up to roundoff), and one input
    realizing them via recover_input.
    """
    opts = options or SolverOptions()
    p_inv = problem.p_inverse()
    V = vertices(problem.N, problem.n, problem.energy)
    design = _barrier_design if problem.criterion == "E" else _newton_design
    r, w, value, cert = design(problem, V, p_inv, opts)
    a = np.pad(w, (0, problem.N - w.size))
    u = recover_input(a, problem.energy, problem.N, sign_pattern=sign_pattern, seed=seed)
    return DesignSolution(r=r, a=a, u=u, value=value, criterion=problem.criterion, certificate=cert)


def check_rdagger_optimality(problem: DesignProblem, tol: float = 1e-10) -> dict:
    """Stationarity test of r^dagger = (E, 0, .., 0) for the problem's criterion.

    Returns the inner products of the gradient at r^dagger with the vertex
    directions S[1:n, j], j = 0..floor(N/2); r^dagger is optimal iff all are
    nonnegative (up to tol).
    """
    g = gradient_in_r(problem, problem.r_dagger())
    values = vertices(problem.N, problem.n, 1.0)[:, 1:] @ g
    return {"is_stationary": bool(np.all(values >= -tol)), "directional_derivatives": values}

