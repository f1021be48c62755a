"""Prior covariance (kernel) matrices for regularized FIR estimation.

A kernel is described by a :class:`KernelSpec` (family name, FIR order n,
hyperparameters) and realized as an n x n positive definite ndarray P.  The
design pipeline needs P inverted, so hyperparameters are validated strictly
(open bounds) even where a boundary value would still give a valid, but
singular, P.  The DC family admits a closed-form tridiagonal inverse; TC is
the DC special case rho = sqrt(lambda) and reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SymMatrix, inverse

FAMILIES = ("Ridge", "Diagonal", "DI", "TC", "DC", "CustomInverse")


class InvalidHyperparameter(ValueError):
    """A kernel hyperparameter is outside its admissible set."""


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidHyperparameter(msg)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel: family, FIR order, hyperparameters.

    params keys by family:
      Ridge          {"c"}                 P = c * I
      Diagonal       {"lams"}              P = diag(lams), length n
      DI             {"c", "lam"}          P_kk = c * lam**k
      TC             {"c", "lam"}          P_kj = c * lam**max(k, j)
      DC             {"c", "lam", "rho"}   P_kj = c * lam**((k+j)/2) * rho**|k-j|
      CustomInverse  {"p_inv"}             P**-1 given explicitly (n x n, PD); stored
                                           symmetrized and read-only
    Indices k, j run from 1 to n.
    """

    family: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(self.family in FAMILIES, f"unknown kernel family {self.family!r}")
        _require(int(self.n) >= 1, "kernel order n must be >= 1")
        object.__setattr__(self, "n", int(self.n))
        p = dict(self.params)
        if self.family == "Ridge":
            _require(set(p) == {"c"}, "Ridge takes params {'c'}")
            _require(0 < p["c"] < np.inf, "Ridge requires 0 < c < inf")
        elif self.family == "Diagonal":
            _require(set(p) == {"lams"}, "Diagonal takes params {'lams'}")
            lams = np.asarray(p["lams"], dtype=float)
            _require(lams.shape == (self.n,), "Diagonal needs n eigenvalues")
            _require(bool(np.all((lams > 0) & (lams < np.inf))), "Diagonal requires 0 < lams < inf")
            p["lams"] = [float(x) for x in lams]
        elif self.family == "DI":
            _require(set(p) == {"c", "lam"}, "DI takes params {'c', 'lam'}")
            _require(0 < p["c"] < np.inf, "DI requires 0 < c < inf")
            _require(0 < p["lam"] < np.inf, "DI requires 0 < lam < inf")
        elif self.family == "TC":
            _require(set(p) == {"c", "lam"}, "TC takes params {'c', 'lam'}")
            _require(0 < p["c"] < np.inf, "TC requires 0 < c < inf")
            _require(0 < p["lam"] <= 1, "TC requires 0 < lam <= 1")
        elif self.family == "DC":
            _require(set(p) == {"c", "lam", "rho"}, "DC takes params {'c', 'lam', 'rho'}")
            _require(0 < p["c"] < np.inf, "DC requires 0 < c < inf")
            _require(0 < p["lam"] <= 1, "DC requires 0 < lam <= 1")
            _require(abs(p["rho"]) < 1, "DC requires |rho| < 1")
        else:  # CustomInverse
            _require(set(p) == {"p_inv"}, "CustomInverse takes params {'p_inv'}")
            try:
                p_inv = SymMatrix(p["p_inv"]).a
            except ValueError as exc:
                raise InvalidHyperparameter(f"p_inv: {exc}") from None
            _require(len(p_inv) == self.n, "p_inv must be n x n")
            try:
                np.linalg.cholesky(p_inv)
            except np.linalg.LinAlgError:
                raise InvalidHyperparameter("p_inv must be positive definite") from None
            p["p_inv"] = p_inv
        object.__setattr__(self, "params", p)

    def to_json(self) -> dict:
        params = dict(self.params)
        if self.family == "CustomInverse":
            params["p_inv"] = params["p_inv"].tolist()
        return {"family": self.family, "n": self.n, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        return cls(family=obj["family"], n=int(obj["n"]), params=dict(obj["params"]))


def build_kernel(spec: KernelSpec) -> np.ndarray:
    """Realize the n x n kernel matrix P described by spec."""
    n = spec.n
    p = spec.params
    k = np.arange(1, n + 1, dtype=float)
    if spec.family == "Ridge":
        return p["c"] * np.eye(n)
    if spec.family == "Diagonal":
        return np.diag(np.asarray(p["lams"], dtype=float))
    if spec.family == "DI":
        return np.diag(p["c"] * p["lam"] ** k)
    if spec.family == "TC":
        return p["c"] * p["lam"] ** np.maximum(k[:, None], k[None, :])
    if spec.family == "DC":
        return (
            p["c"]
            * p["lam"] ** ((k[:, None] + k[None, :]) / 2.0)
            * p["rho"] ** np.abs(k[:, None] - k[None, :])
        )
    # CustomInverse: invert the stored inverse
    return inverse(p["p_inv"])


def dc_inverse(spec: KernelSpec) -> np.ndarray:
    """Closed-form tridiagonal inverse of a DC kernel (n >= 2, |rho| < 1).

    Entries, before the common factor 1 / (c (1 - rho^2)):
      (1, 1) = 1/lam, (n, n) = 1/lam**n, (k, k) = (1 + rho^2)/lam**k otherwise,
      (k, k+1) = -rho / lam**((2k+1)/2), zero beyond the first off-diagonal.
    """
    _require(spec.family == "DC", "dc_inverse requires a DC spec")
    n = spec.n
    _require(n >= 2, "dc_inverse requires n >= 2")
    c, lam, rho = spec.params["c"], spec.params["lam"], spec.params["rho"]
    a = np.zeros((n, n))
    a[0, 0] = 1.0 / lam
    a[n - 1, n - 1] = 1.0 / lam**n
    for kk in range(2, n):
        a[kk - 1, kk - 1] = (1.0 + rho**2) / lam**kk
    for kk in range(1, n):
        off = -rho / lam ** ((2 * kk + 1) / 2.0)
        a[kk - 1, kk] = off
        a[kk, kk - 1] = off
    return a / (c * (1.0 - rho**2))


def kernel_inverse(spec: KernelSpec) -> np.ndarray:
    """P**-1 for the kernel described by spec.

    Dispatch: explicit inverses are returned as stored; diagonal families
    invert entrywise; DC (and TC via rho = sqrt(lam)) use the closed form;
    anything left falls back to a Cholesky-based inverse of build_kernel.
    """
    n = spec.n
    p = spec.params
    if spec.family == "CustomInverse":
        return p["p_inv"]
    if spec.family == "Ridge":
        return np.eye(n) / p["c"]
    if spec.family == "Diagonal":
        return np.diag(1.0 / np.asarray(p["lams"], dtype=float))
    if spec.family == "DI":
        k = np.arange(1, n + 1, dtype=float)
        return np.diag(1.0 / (p["c"] * p["lam"] ** k))
    if spec.family == "DC" and n >= 2:
        return dc_inverse(spec)
    if spec.family == "TC" and n >= 2 and p["lam"] < 1:
        dc = KernelSpec("DC", n, {"c": p["c"], "lam": p["lam"], "rho": np.sqrt(p["lam"])})
        return dc_inverse(dc)
    return inverse(build_kernel(spec))
