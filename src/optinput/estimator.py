"""FIR estimation under the circular input convention.

The input is treated as one period of an N-periodic sequence (u_{-i} = u_{N-i}),
which makes the regression matrix circulant in its first column and the Gram
matrix Phi^T Phi a symmetric Toeplitz matrix of circular correlations.  On top
of that convention this module provides least squares, regularized least
squares with its posterior covariance, the Bayesian mean squared error matrix,
and an empirical-Bayes hyperparameter search for the kernel families.

Everything is computed in n x n form from FFT correlations (Phi^T Phi and
Phi^T y) and M = P Phi^T Phi + sigma2 I, so no N x N matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import linalg
from .kernels import InvalidHyperparameter, KernelSpec, SymMatrix, build_kernel


class OrderTooLarge(ValueError):
    """FIR order exceeds what the data record supports."""


class SingularRegressor(Exception):
    """The normal equations are singular (input not persistently exciting)."""


class SearchFailure(Exception):
    """No point of the hyperparameter search produced a usable objective."""


@dataclass(frozen=True)
class InputSequence:
    """One period of an input signal together with its declared energy budget."""

    values: np.ndarray
    energy: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("input values must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("input values must be finite")
        if not self.energy > 0:
            raise ValueError("energy must be positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "energy", float(self.energy))

    @property
    def n_samples(self) -> int:
        return self.values.size

    def power_mismatch(self) -> float:
        """|u^T u - energy| relative to the declared energy."""
        return abs(float(self.values @ self.values) - self.energy) / self.energy

    @classmethod
    def scaled_to_power(cls, values, energy: float) -> "InputSequence":
        """Rescale values so the realized energy equals the budget exactly."""
        v = np.asarray(values, dtype=float)
        ss = float(v @ v)
        if ss <= 0:
            raise ValueError("cannot scale an all-zero sequence to positive energy")
        return cls(v * np.sqrt(energy / ss), energy)


@dataclass(frozen=True)
class DataRecord:
    """An input period plus the measured outputs and the noise variance used."""

    u: InputSequence
    y: np.ndarray
    sigma2: float | None = None

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.shape != (self.u.n_samples,):
            raise ValueError("y must have one sample per input sample")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        if self.sigma2 is not None:
            if not self.sigma2 > 0:
                raise ValueError("sigma2 must be positive when given")
            object.__setattr__(self, "sigma2", float(self.sigma2))

    def to_json(self) -> dict:
        return {
            "u": self.u.values.tolist(),
            "y": self.y.tolist(),
            "energy": self.u.energy,
            "sigma2": self.sigma2,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DataRecord":
        u = InputSequence(np.asarray(obj["u"], dtype=float), float(obj["energy"]))
        sigma2 = obj.get("sigma2")
        return cls(u, np.asarray(obj["y"], dtype=float), None if sigma2 is None else float(sigma2))


@dataclass(frozen=True)
class FirEstimate:
    theta: np.ndarray
    posterior_cov: SymMatrix | None
    method: str


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, InputSequence) else np.asarray(u, dtype=float)


def _check_order(n: int, N: int):
    if n < 1:
        raise ValueError("FIR order n must be >= 1")
    if n > N:
        raise OrderTooLarge(f"FIR order {n} exceeds record length {N}")


def build_circulant_regressor(u, n: int) -> np.ndarray:
    """N x n regression matrix with row t equal to (u_t, u_{t-1}, ..., u_{t-n+1}).

    Indices wrap modulo N, so column i is the input delayed circularly by i.
    """
    v = _values(u)
    N = v.size
    _check_order(n, N)
    idx = (np.arange(N)[:, None] - np.arange(n)[None, :]) % N
    return v[idx]


def _lag_products(v: np.ndarray, w: np.ndarray | None, n: int) -> np.ndarray:
    """sum_t v_{(t-i) mod N} w_t for i = 0..n-1 by FFT: Phi^T w, or the correlations r of v if w is None."""
    _check_order(n, v.size)
    V = np.fft.rfft(v)
    spec = V.real**2 + V.imag**2 if w is None else np.conj(V) * np.fft.rfft(w)
    return np.fft.irfft(spec, v.size)[:n]


def _normal_equations(u, n: int, y):
    """Phi^T Phi = Toeplitz(r) and Phi^T y, without forming Phi."""
    v, y = _values(u), np.asarray(y, dtype=float)
    if y.shape != v.shape:
        raise ValueError("y must have one sample per input sample")
    return scipy.linalg.toeplitz(_lag_products(v, None, n)), _lag_products(v, y, n)


def _factor(P: np.ndarray, T: np.ndarray, sigma2: float):
    """LU factor of M = P T + sigma2 I and log det M; (T + sigma2 P^{-1})^{-1} = M^{-1} P.

    P is never inverted, so it may be numerically singular.  det M > 0 in
    exact arithmetic; a non-positive sign raises NotPositiveDefinite.
    """
    n = T.shape[0]
    lu, piv = scipy.linalg.lu_factor(P @ T + sigma2 * np.eye(n))
    d = np.diag(lu)
    if (-1.0) ** np.count_nonzero(piv != np.arange(n)) * np.prod(np.sign(d)) <= 0.0:
        raise linalg.NotPositiveDefinite("P Phi^T Phi + sigma2 I has a non-positive determinant")
    return (lu, piv), float(np.sum(np.log(np.abs(d))))


def ls_estimate(record: DataRecord, n: int) -> FirEstimate:
    """Least squares FIR fit of order n (no prior)."""
    gram, b = _normal_equations(record.u, n, record.y)
    # rounding can carry a rank-deficient gram through the factorization
    if np.linalg.cond(gram) > 1.0 / np.finfo(float).eps:
        raise SingularRegressor("Phi^T Phi is singular")
    try:
        theta = linalg.solve(gram, b)
    except linalg.NotPositiveDefinite:
        raise SingularRegressor("Phi^T Phi is singular") from None
    return FirEstimate(theta, None, "LS")


def rls_estimate(record: DataRecord, P: SymMatrix, sigma2: float) -> FirEstimate:
    """Regularized least squares fit under prior covariance P and noise sigma2.

    theta = (Phi^T Phi + sigma2 P^{-1})^{-1} Phi^T y; the posterior covariance
    is bayesian_mse(u, P, sigma2), so theta = posterior @ Phi^T y / sigma2.
    """
    post = bayesian_mse(record.u, P, sigma2)
    b = _lag_products(record.u.values, record.y, post.dim)
    return FirEstimate(post.a @ b / sigma2, post, "RLS")


def bayesian_mse(u, P: SymMatrix, sigma2: float, n: int | None = None) -> SymMatrix:
    """Bayesian MSE matrix sigma2 * (Phi^T Phi + sigma2 P^{-1})^{-1}.

    Phi^T Phi = Toeplitz(r), so this is the design layer's sigma2 Q(r)^{-1}.
    Computed as sigma2 M^{-1} P, so no inverse of P is needed; for u = 0 it
    reduces to the prior covariance P.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    Pm = linalg.as_sym(P).a
    if n is None:
        n = Pm.shape[0]
    if Pm.shape[0] != n:
        raise ValueError("P must be n x n")
    lu, _ = _factor(Pm, scipy.linalg.toeplitz(_lag_products(_values(u), None, n)), sigma2)
    return SymMatrix(sigma2 * scipy.linalg.lu_solve(lu, Pm))


def _eb_value(P: np.ndarray, T: np.ndarray, b: np.ndarray, yy: float, N: int, sigma2: float) -> float:
    # matrix determinant lemma and Woodbury identity on F = Phi P Phi^T + sigma2 I:
    # log det F = (N - n) log sigma2 + log det M, y^T F^{-1} y = (y^T y - b^T M^{-1} P b) / sigma2
    lu, logdet_m = _factor(P, T, sigma2)
    quad = (yy - float(b @ scipy.linalg.lu_solve(lu, P @ b))) / sigma2
    return quad + (N - T.shape[0]) * np.log(sigma2) + logdet_m


def eb_objective(spec: KernelSpec, y, u, sigma2: float) -> float:
    """Marginal-likelihood objective y^T F^{-1} y + log det F, F = Phi P Phi^T + sigma2 I.

    Evaluated in n x n form; raises NotPositiveDefinite where rounding leaves det M <= 0.
    """
    y = np.asarray(y, dtype=float)
    T, b = _normal_equations(u, spec.n, y)
    return _eb_value(build_kernel(spec).a, T, b, float(y @ y), y.size, sigma2)


_DEFAULT_GRID = {
    "c": np.logspace(-4, 4, 17),
    "lam": np.linspace(0.5, 0.99, 8),
    "rho": np.linspace(-0.95, 0.95, 9),
}

_SEARCH_KEYS = {"Ridge": ("c",), "DI": ("c", "lam"), "TC": ("c", "lam"), "DC": ("c", "lam", "rho")}


def _clip_params(family: str, x: np.ndarray) -> dict:
    # search coordinates: log10(c), lam, rho -- clipped into the open box
    p = {"c": float(10.0 ** np.clip(x[0], -12, 12))}
    if family in ("DI", "TC", "DC"):
        p["lam"] = float(np.clip(x[1], 1e-8, 1.0))
    if family == "DC":
        p["rho"] = float(np.clip(x[2], -0.999, 0.999))
    return p


def fit_hyperparameters(
    y,
    u,
    n: int,
    sigma2: float,
    family: str = "TC",
    grid: dict | None = None,
    refine: bool = True,
) -> KernelSpec:
    """Empirical-Bayes kernel fit: coarse grid scan, then Nelder-Mead refinement.

    The grid is log-spaced in c and linear in lam (and rho for DC); the best
    grid point seeds a Nelder-Mead polish whose trial points are clipped back
    into the admissible box.  Probes where the objective cannot be evaluated
    are skipped; if every probe fails, SearchFailure is raised.
    """
    if family not in _SEARCH_KEYS:
        raise InvalidHyperparameter(f"family {family!r} is not searchable")
    keys = _SEARCH_KEYS[family]
    g = dict(_DEFAULT_GRID)
    if grid:
        g.update({k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in grid.items()})
    axes = [np.log10(g["c"])] + [g[k] for k in keys[1:]]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)

    y = np.asarray(y, dtype=float)
    T, b = _normal_equations(u, n, y)
    yy = float(y @ y)

    def objective(x):
        try:
            P = build_kernel(KernelSpec(family, n, _clip_params(family, x))).a
            return _eb_value(P, T, b, yy, y.size, sigma2)
        except (linalg.NotPositiveDefinite, InvalidHyperparameter):
            return np.inf

    values = np.array([objective(x) for x in mesh])
    if not np.any(np.isfinite(values)):
        raise SearchFailure("no hyperparameter probe produced a finite objective")
    x_best = mesh[int(np.argmin(values))]
    if refine:
        res = scipy.optimize.minimize(
            objective,
            x_best,
            method="Nelder-Mead",
            options={"maxiter": 200 * len(keys), "xatol": 1e-4, "fatol": 1e-9},
        )
        if np.isfinite(res.fun) and res.fun <= float(np.min(values)):
            x_best = res.x
    return KernelSpec(family, n, _clip_params(family, x_best))


def estimate_noise_variance(y, u, m: int | None = None) -> float:
    """Noise variance from the residual of an order-m least squares fit.

    sigma2_hat = ||y - Phi_m theta_m||^2 / (N - m).  The default order is
    floor(N/2); callers with a known model order should cap m at it.  At least
    two degrees of freedom are required, so m <= N - 2.
    """
    y = np.asarray(y, dtype=float)
    v = _values(u)
    N = v.size
    if m is None:
        m = N // 2
    if not 1 <= m <= N - 2:
        raise OrderTooLarge(f"residual fit order m={m} needs 1 <= m <= N-2 (N={N})")
    record = DataRecord(InputSequence(v, max(float(v @ v), np.finfo(float).tiny)), y)
    est = ls_estimate(record, m)
    resid = y - build_circulant_regressor(v, m) @ est.theta
    return float(resid @ resid) / (N - m)
