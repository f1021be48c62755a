"""Convex design of power-constrained inputs over the correlation polytope.

A design problem fixes a kernel, noise level, FIR order n, period N, energy
budget E and a criterion.  The decision variable is the correlation vector
r = E S a restricted to the polytope spanned by the K = floor(N/2)+1 distinct
vertices E xi_j(0:n); all three criteria are convex functions of

    Q(r) = Toeplitz(r) + sigma2 * P^{-1}.

The smooth criteria (D, A) are solved interior-first: a damped Newton method
in the free correlations r_1..r_{n-1}, started at r_dagger = (E, 0, .., 0),
with closed-form gradient and Hessian from one Q(r)^{-1} per iteration.  It
stops on the Frank-Wolfe duality gap at the iterate.  One nonnegative
least-squares solve then recovers vertex weights; when they reproduce the
iterate to roundoff the point lies in the polytope, and the duality gap at
the reconstructed r certifies it.  When the optimum leaves the polytope (or
the gap is not met) the solve falls back to Frank-Wolfe over the vertex
weights, with away steps and an exact line search on the 1-D restriction
(closed form via a generalized eigendecomposition), certified by the same gap
at the returned point.  The nonsmooth criterion (E) uses a projected
subgradient method started at r_dagger, with best-iterate tracking.  A chunked
brute-force grid scan over the weight simplex serves as an independent oracle
for small K.
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
    """Tolerances and budgets for solve(); defaults favor accuracy over speed.

    gap_rel_tol is the D/A stop: duality gap <= gap_rel_tol * |value|.
    max_iter bounds the Newton iterations and, separately, the Frank-Wolfe
    iterations of the fallback.  Both stop early at a numerical floor: after
    stall_iters iterations without a gap improvement, they report converged
    when the gap is within 1e-8 * |value|.  The subgradient method stops on
    its budget or when the best value has stalled (relative spread below
    subgrad_spread_tol over the trailing window).
    """

    gap_rel_tol: float = 1e-13
    max_iter: int = 5000
    line_search_iters: int = 60
    stall_iters: int = 200
    subgrad_iters: int = 20000
    subgrad_gamma0: float = 1.0
    subgrad_spread_tol: float = 1e-7
    subgrad_check_every: int = 100
    subgrad_min_iters: int = 1000


@dataclass(frozen=True)
class Certificate:
    """How a design was found: the gap at the returned r, the iterations of
    the method that returned it ("newton", "frank-wolfe", "subgradient" or
    "grid"), and whether the gap met its target."""

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


def _band_sums(M: np.ndarray) -> np.ndarray:
    """v[i-1] = 2 * (sum of the i-th superdiagonal of M), i = 1..n-1."""
    n = M.shape[0]
    return np.array([2.0 * np.trace(M, offset=i) for i in range(1, n)])


def eval_criterion(problem: DesignProblem, r, p_inv=None) -> float:
    """Criterion value at r: D = n log sigma2 - log det Q, A = sigma2 tr Q^{-1},
    E = sigma2 / lambda_min(Q)."""
    if p_inv is None:
        p_inv = problem.p_inverse()
    Q = q_of_r(r, p_inv, problem.sigma2)
    if problem.criterion == "D":
        return float(problem.n * np.log(problem.sigma2) - linalg.logdet(Q))
    if problem.criterion == "A":
        return float(problem.sigma2 * linalg.trace_of_inverse(Q))
    lam, _ = linalg.min_eigpair(Q)
    return float(problem.sigma2 / lam)


def gradient_in_r(problem: DesignProblem, r, p_inv=None) -> np.ndarray:
    """Gradient (for E: a subgradient) in the free coordinates r_1..r_{n-1}.

    D: -tr(Q^{-1} Q_i);  A: -sigma2 tr(Q^{-2} Q_i);  E: -(sigma2/lam^2) v^T Q_i v,
    where Q_i is the 0/1 Toeplitz band matrix at offset i and (lam, v) is a
    minimal eigenpair of Q(r).
    """
    if p_inv is None:
        p_inv = problem.p_inverse()
    Q = q_of_r(r, p_inv, problem.sigma2)
    if problem.criterion == "D":
        return -_band_sums(linalg.inverse(Q))
    if problem.criterion == "A":
        qi = linalg.inverse(Q)
        return -problem.sigma2 * _band_sums(qi @ qi)
    lam, v = linalg.min_eigpair(Q)
    n = problem.n
    quad = np.array([2.0 * float(v[: n - i] @ v[i:]) for i in range(1, n)])
    return -(problem.sigma2 / lam**2) * quad


def _segment_minimizer(problem, Q0: np.ndarray, D: np.ndarray, t_max: float, iters: int) -> float:
    """Exact line search for the smooth criteria along Q(t) = Q0 + t D, t in [0, t_max].

    With mu, U the eigensystem of L^{-1} D L^{-T} (Q0 = L L^T), the derivative
    is a closed-form rational function of t, and h is convex, so bisection on
    h' is exact to the bit budget.
    """
    L = np.linalg.cholesky(Q0)
    B = scipy.linalg.solve_triangular(L, D, lower=True)
    B = scipy.linalg.solve_triangular(L, B.T, lower=True)
    mu, U = np.linalg.eigh((B + B.T) / 2.0)
    if problem.criterion == "D":
        def deriv(t):
            return -np.sum(mu / (1.0 + t * mu))
    else:  # A
        M = scipy.linalg.solve_triangular(L, U, lower=True, trans="T")
        c = np.sum(M * M, axis=0)
        def deriv(t):
            return -problem.sigma2 * np.sum(c * mu / (1.0 + t * mu) ** 2)
    if deriv(t_max) <= 0.0:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if deriv(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GAP_FLOOR = 1e-8  # relative gap accepted when an iteration stalls at roundoff
_NNLS_ROUNDOFF = 1e-12  # membership residual of a point inside the polytope


def _toeplitz_bands(n: int) -> np.ndarray:
    """(n, n, n) stack of the 0/1 Toeplitz band matrices; slice 0 is the identity."""
    bands = np.zeros((n, n, n))
    for i in range(n):
        idx = np.arange(n - i)
        bands[i, idx, idx + i] = 1.0
        bands[i, idx + i, idx] = 1.0
    return bands


def _duality_gap(V: np.ndarray, r: np.ndarray, g: np.ndarray) -> float:
    """Frank-Wolfe gap g.r[1:] - min_j g.v_j[1:]; bounds value - optimum when r is feasible."""
    return float(g @ r[1:] - np.min(V[:, 1:] @ g))


def _smooth_terms(problem, r: np.ndarray, p_inv: np.ndarray, bands: np.ndarray | None):
    """D or A value at r, with gradient and Hessian in r[1:] unless bands is None.

    With G = Q(r)^{-1} and B_i the band matrices:
    D: g_i = -tr(G B_i), H_ik = tr(G B_i G B_k);
    A: g_i = -sigma2 tr(G^2 B_i), H_ik = sigma2 [tr(G^2 B_i G B_k) + tr(G B_i G^2 B_k)].
    Returns None where Q(r) is not positive definite.
    """
    n, sigma2 = problem.n, problem.sigma2
    try:
        L = np.linalg.cholesky(scipy.linalg.toeplitz(r) + sigma2 * p_inv)
    except np.linalg.LinAlgError:
        return None
    L_inv = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
    if problem.criterion == "D":
        value = n * np.log(sigma2) - 2.0 * float(np.sum(np.log(np.diag(L))))
    else:
        value = sigma2 * float(np.sum(L_inv * L_inv))
    if bands is None:
        return value, None, None
    G = L_inv.T @ L_inv
    GB = G @ bands
    if problem.criterion == "D":
        return value, -np.einsum("iaa->i", GB), np.einsum("iab,kba->ik", GB, GB)
    G2B = G @ GB
    C = np.einsum("iab,kba->ik", G2B, GB)
    return value, -sigma2 * np.einsum("iaa->i", G2B), sigma2 * (C + C.T)


def _newton(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """Damped Newton in r[1:] from r_dagger, certified only for an optimum inside the polytope.

    Stops on the Frank-Wolfe gap at the iterate (a bound once the iterate is
    feasible), then recovers vertex weights with one exact NNLS solve of
    [V^T / E; 1^T] w = [r / E; 1].  Returns (w, r, value, cert) with the gap
    recomputed at r = V^T w, or None when the iterate is not in the polytope
    or its gap misses the target; the caller then falls back to Frank-Wolfe.
    """
    E = problem.energy
    bands = _toeplitz_bands(problem.n)[1:]
    r = problem.r_dagger()
    tol = opts.gap_rel_tol
    best_gap, stall, stalled, it = np.inf, 0, False, 0
    for it in range(1, opts.max_iter + 1):
        value, g, H = _smooth_terms(problem, r, p_inv, bands)
        gap = _duality_gap(V, r, g)
        if gap <= tol * abs(value) + np.finfo(float).tiny:
            break
        if gap < best_gap * 0.999:
            best_gap, stall = gap, 0
        else:
            stall += 1
            if stall >= opts.stall_iters:
                stalled = True
                break
        try:
            step = -scipy.linalg.solve(H, g, assume_a="pos")
        except np.linalg.LinAlgError:
            stalled = True
            break
        slope = float(g @ step)
        # Armijo backtracking, also whenever Q leaves the PD cone; a rise within
        # the value's roundoff is accepted, so steps near the optimum go through
        slack = 8.0 * np.finfo(float).eps * abs(value)
        t = 1.0
        while t > 1e-12:
            trial = r.copy()
            trial[1:] += t * step
            terms = _smooth_terms(problem, trial, p_inv, None)
            if terms is not None and terms[0] <= value + 0.25 * t * slope + slack:
                break
            t *= 0.5
        else:
            stalled = True
            break
        r = trial
    K = V.shape[0]
    w, residual = scipy.optimize.nnls(np.vstack([V.T / E, np.ones(K)]), np.append(r / E, 1.0))
    if residual > _NNLS_ROUNDOFF:
        return None
    w /= w.sum()
    r = V.T @ w
    value, g, _ = _smooth_terms(problem, r, p_inv, bands)
    gap = _duality_gap(V, r, g)
    met = gap <= tol * abs(value) + np.finfo(float).tiny
    if not (met or (stalled and gap <= _GAP_FLOOR * abs(value))):
        return None
    return w, r, value, Certificate(gap=gap, iterations=it, converged=True, method="newton")


def _frank_wolfe(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """Away-step Frank-Wolfe over the vertex weights; returns (w, r, value, cert)."""
    K = V.shape[0]
    w = np.full(K, 1.0 / K)
    r = V.T @ w
    value = eval_criterion(problem, r, p_inv)
    gap = 0.0
    sigma2 = problem.sigma2
    best_gap = np.inf
    stall = 0
    it = 0
    converged = K == 1 or problem.n == 1
    for it in range(1, opts.max_iter + 1):
        g = gradient_in_r(problem, r, p_inv)
        scores = V[:, 1:] @ g
        s = int(np.argmin(scores))
        avg = float(w @ scores)
        gap = avg - float(scores[s])
        if gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny:
            converged = True
            break
        if gap < best_gap * 0.999:
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall >= opts.stall_iters:
                # numerical floor reached; report the best certified gap
                converged = gap <= _GAP_FLOOR * abs(value)
                break
        support = np.flatnonzero(w > 0.0)
        v_idx = int(support[np.argmax(scores[support])])
        gap_away = float(scores[v_idx]) - avg
        if gap >= gap_away or w[v_idx] >= 1.0:
            d_r = V[s] - r
            t_max = 1.0
            is_away = False
        else:
            d_r = r - V[v_idx]
            t_max = w[v_idx] / (1.0 - w[v_idx])
            is_away = True
        D = scipy.linalg.toeplitz(d_r)
        Q0 = q_of_r(r, p_inv, sigma2).a
        t = _segment_minimizer(problem, Q0, D, t_max, opts.line_search_iters)
        if t <= 0.0:
            converged = gap <= _GAP_FLOOR * abs(value)
            break
        if is_away:
            w *= 1.0 + t
            w[v_idx] -= t
            if t >= t_max * (1.0 - 1e-12):
                w[v_idx] = 0.0
        else:
            w *= 1.0 - t
            w[s] += t
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        r = V.T @ w
        value = eval_criterion(problem, r, p_inv)
    else:
        # the budget ran out after a step: certify the returned point, not its predecessor
        gap = _duality_gap(V, r, gradient_in_r(problem, r, p_inv))
        converged = gap <= opts.gap_rel_tol * abs(value) + np.finfo(float).tiny
    return w, r, value, Certificate(gap=float(gap), iterations=it, converged=bool(converged), method="frank-wolfe")


def _project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    rho = np.flatnonzero(u * np.arange(1, x.size + 1) > css - 1.0)[-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.clip(x - tau, 0.0, None)


def _projected_subgradient(problem, V: np.ndarray, p_inv: np.ndarray, opts: SolverOptions):
    """Projected subgradient descent for the E criterion over the vertex weights.

    Starts at the weights of r_dagger (1/N, 2/N, .., 2/N, and 1/N last for even
    N), so best-iterate tracking never returns a value above r_dagger's.
    """
    N = problem.N
    w = np.full(V.shape[0], 2.0 / N)
    w[0] = 1.0 / N
    if N % 2 == 0:
        w[-1] = 1.0 / N
    r = V.T @ w
    sigma2 = problem.sigma2
    best_value = np.inf
    best_w, best_r = w.copy(), r.copy()
    marks: list[float] = []
    spread = np.inf
    converged = False
    it = 0
    for it in range(1, opts.subgrad_iters + 1):
        lam, v = linalg.min_eigpair(q_of_r(r, p_inv, sigma2))
        value = sigma2 / lam
        if value < best_value:
            best_value = value
            best_w, best_r = w.copy(), r.copy()
        n = problem.n
        quad = np.array([2.0 * float(v[: n - i] @ v[i:]) for i in range(1, n)])
        g = V[:, 1:] @ (-(sigma2 / lam**2) * quad)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            converged = True
            spread = 0.0
            break
        w = _project_simplex(w - (opts.subgrad_gamma0 / np.sqrt(it)) * g / gnorm)
        r = V.T @ w
        if it % opts.subgrad_check_every == 0:
            marks.append(best_value)
            if len(marks) >= 5:
                spread = marks[-5] - marks[-1]
                if it >= opts.subgrad_min_iters and spread <= opts.subgrad_spread_tol * abs(best_value):
                    converged = True
                    break
    if np.isinf(spread):
        spread = 0.0 if len(marks) < 2 else marks[0] - marks[-1]
    cert = Certificate(gap=float(spread), iterations=it, converged=bool(converged), method="subgradient")
    return best_w, best_r, best_value, cert


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
    if problem.criterion in ("D", "A"):
        found = _newton(problem, V, p_inv, opts)
        w, r, value, cert = found if found is not None else _frank_wolfe(problem, V, p_inv, opts)
    else:
        w, r, value, cert = _projected_subgradient(problem, V, p_inv, opts)
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
    i = np.arange(1, problem.n)
    js = np.arange(problem.N // 2 + 1)
    values = np.array([float(g @ np.cos(2.0 * np.pi * j * i / problem.N)) for j in js])
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
    """Yield chunks of all nonnegative integer compositions of total into parts."""
    chunk = []
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        chunk.append(comp)
        if len(chunk) >= 65536:
            yield np.asarray(chunk, dtype=float)
            chunk = []
    if chunk:
        yield np.asarray(chunk, dtype=float)


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
