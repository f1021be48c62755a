"""Reference computations for the benchmark's output checks.

Everything here is written from the paper's definitions with numpy and scipy
alone; it never imports optinput, so a fault in the program cannot hide by
being repeated in its own check.  Functions take plain arrays and numbers and
return either a value or a list of problems found (empty when the output
passes).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Tolerances the checks state (see README.md).
FEASIBILITY_TOL = 1e-8  # |u'u - E|, |f(u) - r| and |E S a - r|, relative to E
WEIGHT_TOL = 1e-10  # a >= -tol and |sum a - 1| <= tol
VALUE_TOL = 1e-8  # recomputed criterion value, relative to max(|value|, 1)
FEASIBLE_POINT_TOL = 1e-9  # design no worse than a feasible point, relative
STALL_GAP_TOL = 1e-8  # the Frank-Wolfe stall exit accepts gap <= 1e-8 |value|
IDENTIFY_TOL = 1e-7  # RLS estimate, posterior and noise variance, relative
EB_TOL = 1e-8  # EB objective at the fit vs the best grid point, relative

# The documented default grid of the empirical-Bayes search.
EB_GRID = {
    "c": np.logspace(-4, 4, 17),
    "lam": np.linspace(0.5, 0.99, 8),
    "rho": np.linspace(-0.95, 0.95, 9),
}


def circular_correlation(u: np.ndarray, n: int) -> np.ndarray:
    """r_j = sum_k u_k u_{(k-j) mod N}, j = 0..n-1, through the FFT."""
    U = np.fft.rfft(u)
    return np.fft.irfft(np.abs(U) ** 2, n=u.size)[:n]


def circular_cross_correlation(u: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """b_i = sum_t u_{(t-i) mod N} y_t, i = 0..n-1 (Phi' y for the circulant Phi)."""
    return np.fft.irfft(np.conj(np.fft.rfft(u)) * np.fft.rfft(y), n=u.size)[:n]


def cosine_matrix(N: int, n: int) -> np.ndarray:
    """S[j, l] = cos(2 pi j l / N), the n x N map from simplex weights to r / E."""
    return np.cos(2.0 * np.pi * np.outer(np.arange(n), np.arange(N)) / N)


def vertex_correlations(N: int, n: int, energy: float) -> np.ndarray:
    """The floor(N/2)+1 distinct columns of E S, one per row."""
    return energy * cosine_matrix(N, n)[:, : N // 2 + 1].T


def kernel_matrix(family: str, n: int, params: dict) -> np.ndarray:
    """Prior covariance P of the Ridge, DI, TC and DC families (indices 1..n)."""
    k = np.arange(1, n + 1, dtype=float)
    c = params["c"]
    if family == "Ridge":
        return c * np.eye(n)
    if family == "DI":
        return np.diag(c * params["lam"] ** k)
    if family == "TC":
        return c * params["lam"] ** np.maximum.outer(k, k)
    if family == "DC":
        lam, rho = params["lam"], params["rho"]
        return c * lam ** (np.add.outer(k, k) / 2.0) * rho ** np.abs(np.subtract.outer(k, k))
    raise ValueError(f"no reference kernel for family {family!r}")


def precision(P: np.ndarray) -> np.ndarray:
    """P^{-1} through a Cholesky factor of P."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(P, lower=True), np.eye(P.shape[0]))


def information(r: np.ndarray, p_inv: np.ndarray, sigma2: float) -> np.ndarray:
    """Q(r) = Toeplitz(r) + sigma2 P^{-1}; the Bayesian MSE matrix is sigma2 Q^{-1}."""
    return scipy.linalg.toeplitz(r) + sigma2 * p_inv


def criterion_value(criterion: str, r, p_inv, sigma2: float) -> float:
    """D = n log sigma2 - log det Q, A = sigma2 tr Q^{-1}, E = sigma2 / lambda_min(Q)."""
    Q = information(np.asarray(r, dtype=float), p_inv, sigma2)
    if criterion == "D":
        sign, logdet = np.linalg.slogdet(Q)
        return float(Q.shape[0] * np.log(sigma2) - logdet) if sign > 0 else np.inf
    if criterion == "A":
        return float(sigma2 * np.trace(np.linalg.inv(Q)))
    return float(sigma2 / np.linalg.eigvalsh(Q)[0])


def mse_measure(criterion: str, r, p_inv, sigma2: float) -> float:
    """The criterion's size of the MSE matrix sigma2 Q^{-1}.

    D: geometric-mean eigenvalue, A: trace, E: largest eigenvalue.
    """
    Q = information(np.asarray(r, dtype=float), p_inv, sigma2)
    if criterion == "D":
        return float(sigma2 * np.exp(-np.linalg.slogdet(Q)[1] / Q.shape[0]))
    if criterion == "A":
        return float(sigma2 * np.trace(np.linalg.inv(Q)))
    return float(sigma2 / np.linalg.eigvalsh(Q)[0])


def smooth_gradient(criterion: str, r, p_inv, sigma2: float) -> np.ndarray:
    """Gradient of the D or A value in r_1..r_{n-1} (r_0 = E is fixed).

    dQ/dr_i is the symmetric 0/1 band at offset i, so the derivative is
    -2 * (sum of the i-th superdiagonal) of Q^{-1} (D) or of sigma2 Q^{-2} (A).
    """
    Qi = np.linalg.inv(information(np.asarray(r, dtype=float), p_inv, sigma2))
    M = Qi if criterion == "D" else sigma2 * Qi @ Qi
    n = M.shape[0]
    return np.array([-2.0 * np.trace(M, offset=i) for i in range(1, n)])


def duality_gap(criterion: str, r, p_inv, sigma2: float, N: int) -> tuple[float, float]:
    """Frank-Wolfe gap max_j g'(r - v_j) over the vertices, and its rounding scale."""
    r = np.asarray(r, dtype=float)
    g = smooth_gradient(criterion, r, p_inv, sigma2)
    V = vertex_correlations(N, r.size, r[0])
    scores = V[:, 1:] @ g
    gap = float(g @ r[1:] - np.min(scores))
    return gap, float(np.sum(np.abs(g)) * r[0])


def white_noise_correlations(rng: np.random.Generator, N: int, n: int, energy: float, draws: int) -> np.ndarray:
    """Correlation vectors of `draws` white-noise periods scaled to energy E."""
    u = rng.standard_normal((draws, N))
    u *= np.sqrt(energy / np.sum(u * u, axis=1))[:, None]
    return np.array([circular_correlation(row, n) for row in u])


def check_design(design: dict) -> list[str]:
    """Feasibility, value, certificate and feasible-point checks of one design.

    `design` holds plain data: criterion, n, N, energy, sigma2, p_inv, the
    returned r, a, u and value, the certificate (gap, converged), the
    solver's gap_rel_tol, and `white` (white-noise correlation vectors).
    """
    crit, n, N, E = design["criterion"], design["n"], design["N"], design["energy"]
    p_inv, sigma2 = design["p_inv"], design["sigma2"]
    r, a, u = (np.asarray(design[k], dtype=float) for k in ("r", "a", "u"))
    problems = []
    if abs(float(u @ u) - E) > FEASIBILITY_TOL * E:
        problems.append(f"u'u = {float(u @ u):.12g}, budget {E:.12g}")
    if np.max(np.abs(circular_correlation(u, n) - r)) > FEASIBILITY_TOL * E:
        problems.append("circular correlation of u differs from r")
    if a.shape != (N,) or np.min(a) < -WEIGHT_TOL or abs(float(a.sum()) - 1.0) > WEIGHT_TOL:
        problems.append("a is not a point of the probability simplex")
    elif np.max(np.abs(E * cosine_matrix(N, n) @ a - r)) > FEASIBILITY_TOL * E:
        problems.append("E S a differs from r")
    value = criterion_value(crit, r, p_inv, sigma2)
    if not abs(value - design["value"]) <= VALUE_TOL * max(abs(value), 1.0):
        problems.append(f"value {design['value']:.12g}, recomputed {value:.12g}")
    if crit in ("D", "A") and design["converged"]:
        gap, scale = duality_gap(crit, r, p_inv, sigma2, N)
        stated = max(design["gap_rel_tol"], STALL_GAP_TOL) * abs(value)
        if gap > stated + 1e-12 * scale:
            problems.append(f"converged=True but the duality gap is {gap:.3g} > {stated:.3g}")
    r_dagger = np.zeros(n)
    r_dagger[0] = E
    points = [("r_dagger", r_dagger)]
    points += [(f"vertex {j}", v) for j, v in enumerate(vertex_correlations(N, n, E))]
    points += [(f"white-noise draw {k}", w) for k, w in enumerate(design["white"])]
    for name, point in points:
        ref = criterion_value(crit, point, p_inv, sigma2)
        if value > ref + FEASIBLE_POINT_TOL * abs(ref):
            problems.append(f"worse than {name} by {(value - ref) / abs(ref):.2e} (relative)")
            break
    return problems


def circulant_regressor(u: np.ndarray, n: int) -> np.ndarray:
    """N x n matrix whose column i is u delayed circularly by i."""
    return np.column_stack([np.roll(u, i) for i in range(n)])


def noise_variance(y: np.ndarray, u: np.ndarray, m: int) -> float:
    """Residual variance of the order-m least squares fit, by numpy lstsq."""
    phi = circulant_regressor(u, m)
    theta = np.linalg.lstsq(phi, y, rcond=None)[0]
    resid = y - phi @ theta
    return float(resid @ resid) / (y.size - m)


def rls_small(y: np.ndarray, u: np.ndarray, P: np.ndarray, sigma2: float):
    """RLS estimate and posterior covariance in the n x n form.

    (Phi'Phi + sigma2 P^{-1})^{-1} = (P Phi'Phi + sigma2 I)^{-1} P, with
    Phi'Phi = Toeplitz(r) and Phi'y taken by FFT, so P is never inverted.
    """
    n = P.shape[0]
    T = scipy.linalg.toeplitz(circular_correlation(u, n))
    M = P @ T + sigma2 * np.eye(n)
    theta = np.linalg.solve(M, P @ circular_cross_correlation(u, y, n))
    post = sigma2 * np.linalg.solve(M, P)
    return theta, (post + post.T) / 2.0


def eb_objective_small(y: np.ndarray, u: np.ndarray, P: np.ndarray, sigma2: float) -> float:
    """y'F^{-1}y + log det F, F = Phi P Phi' + sigma2 I, without forming F.

    Woodbury gives y'F^{-1}y = (y'y - b'(P T + sigma2 I)^{-1} P b) / sigma2 with
    T = Phi'Phi and b = Phi'y; the determinant lemma gives
    log det F = N log sigma2 + log det(I + P T / sigma2).
    """
    n = P.shape[0]
    T = scipy.linalg.toeplitz(circular_correlation(u, n))
    b = circular_cross_correlation(u, y, n)
    M = P @ T + sigma2 * np.eye(n)
    quad = (float(y @ y) - float(b @ np.linalg.solve(M, P @ b))) / sigma2
    sign, logdet = np.linalg.slogdet(M / sigma2)
    if sign <= 0:
        return np.inf
    return quad + y.size * np.log(sigma2) + logdet


def eb_grid_points(family: str):
    """Parameter dicts of the default EB grid for a searchable family."""
    if family == "Ridge":
        return [{"c": c} for c in EB_GRID["c"]]
    if family in ("DI", "TC"):
        return [{"c": c, "lam": lam} for c in EB_GRID["c"] for lam in EB_GRID["lam"]]
    return [
        {"c": c, "lam": lam, "rho": rho}
        for c in EB_GRID["c"]
        for lam in EB_GRID["lam"]
        for rho in EB_GRID["rho"]
    ]


def check_identification(ident: dict) -> list[str]:
    """Noise variance, EB fit and RLS checks of one identification.

    `ident` holds y, u, n, m (noise-variance order), family, the returned
    sigma2, the returned hyperparameters, theta and posterior covariance.
    """
    y, u = np.asarray(ident["y"], dtype=float), np.asarray(ident["u"], dtype=float)
    n, family, sigma2 = ident["n"], ident["family"], ident["sigma2"]
    problems = []
    s2 = noise_variance(y, u, ident["m"])
    if abs(s2 - ident["sigma2_raw"]) > IDENTIFY_TOL * s2:
        problems.append(f"noise variance {ident['sigma2_raw']:.12g}, lstsq gives {s2:.12g}")
    P = kernel_matrix(family, n, ident["params"])
    at_fit = eb_objective_small(y, u, P, sigma2)
    grid_best = min(eb_objective_small(y, u, kernel_matrix(family, n, p), sigma2) for p in eb_grid_points(family))
    if at_fit > grid_best + EB_TOL * abs(grid_best):
        problems.append(f"EB objective {at_fit:.12g} at the fit is above the best grid point {grid_best:.12g}")
    problems += check_rls(ident)
    return problems


def check_rls(est: dict) -> list[str]:
    """RLS estimate and posterior covariance against the n x n form."""
    y, u = np.asarray(est["y"], dtype=float), np.asarray(est["u"], dtype=float)
    theta, post = rls_small(y, u, kernel_matrix(est["family"], est["n"], est["params"]), est["sigma2"])
    problems = []
    if np.linalg.norm(est["theta"] - theta) > IDENTIFY_TOL * np.linalg.norm(theta):
        problems.append("RLS estimate differs from (Phi'Phi + sigma2 P^-1)^-1 Phi'y")
    if np.linalg.norm(est["posterior"] - post) > IDENTIFY_TOL * np.linalg.norm(post):
        problems.append("posterior covariance differs from sigma2 (Phi'Phi + sigma2 P^-1)^-1")
    return problems
