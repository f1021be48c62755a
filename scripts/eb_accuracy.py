"""Worst relative error of the empirical-Bayes objective against a 50-digit reference.

For Ridge, DI, TC and DC at n=30, N=64 and sigma2=0.5, with u and y standard
normal from numpy's default_rng(5), the script evaluates
`optinput.estimator.eb_objective` at the corners of the fit's search box
(c = 1e-12 and 1e12; lam = 1e-8, 1 - 1e-6 and 1; rho = -0.999 and 0.999) and
at interior points.  Each value is compared with y'F^-1 y + log det F,
F = Phi P Phi' + sigma2 I, the N x N formula evaluated by mpmath at 50 digits
from the same float u, y and P = build_kernel(spec).  One line is printed per
point, then the worst error.  mpmath is not a dependency of optinput; without
it the script exits with a message.  It takes about 30-40 s.

    PYTHONPATH=src python scripts/eb_accuracy.py
"""

import itertools
import sys

import numpy as np

from optinput.estimator import eb_objective
from optinput.kernels import KernelSpec, build_kernel
from optinput.linalg import NotPositiveDefinite

N_ORDER, N_SAMPLES, SIGMA2, SEED = 30, 64, 0.5, 5
CORNERS = {"c": (1e-12, 1e12), "lam": (1e-8, 1.0 - 1e-6, 1.0), "rho": (-0.999, 0.999)}
INTERIOR = {"c": (1e-2, 1.0, 1e4), "lam": (0.5, 0.9, 0.99), "rho": (-0.5, 0.5)}
KEYS = {"Ridge": ("c",), "DI": ("c", "lam"), "TC": ("c", "lam"), "DC": ("c", "lam", "rho")}


def points():
    for family, keys in KEYS.items():
        for axes in (CORNERS, INTERIOR):
            for values in itertools.product(*(axes[k] for k in keys)):
                yield KernelSpec(family, N_ORDER, dict(zip(keys, values)))


def reference(mp, phi: np.ndarray, P: np.ndarray, y: np.ndarray) -> float:
    """y'F^-1 y + log det F at the working precision, from the float entries as given."""
    to_mp = np.vectorize(mp.mpf, otypes=[object])
    phi_mp = to_mp(phi)
    F = phi_mp @ to_mp(P) @ phi_mp.T + mp.mpf(SIGMA2) * np.eye(y.size, dtype=object)
    L = mp.cholesky(mp.matrix(F.tolist()))
    z = [mp.mpf(0)] * y.size
    for i in range(y.size):
        z[i] = (mp.mpf(y[i]) - mp.fsum(L[i, j] * z[j] for j in range(i))) / L[i, i]
    return float(mp.fsum(v * v for v in z) + 2 * mp.fsum(mp.log(L[i, i]) for i in range(y.size)))


def main() -> int:
    try:
        import mpmath
    except ImportError:
        print("eb_accuracy needs mpmath, which is not installed", file=sys.stderr)
        return 1
    mpmath.mp.dps = 50
    rng = np.random.default_rng(SEED)
    u, y = rng.standard_normal(N_SAMPLES), rng.standard_normal(N_SAMPLES)
    phi = u[(np.arange(N_SAMPLES)[:, None] - np.arange(N_ORDER)[None, :]) % N_SAMPLES]
    worst, worst_spec = 0.0, None
    for spec in points():
        exact = reference(mpmath.mp, phi, build_kernel(spec).a, y)
        try:
            err = abs(eb_objective(spec, y, u, SIGMA2) - exact) / abs(exact)
        except NotPositiveDefinite:
            err = np.inf
        print(f"{spec.family:5s} {spec.params}  reference {exact:.12g}  relative error {err:.2e}")
        if not err <= worst:
            worst, worst_spec = err, spec
    print(f"worst relative error {worst:.2e} at {worst_spec.family} {worst_spec.params}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
