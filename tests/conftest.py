import numpy as np
from hypothesis import HealthCheck, settings

from optinput.estimator import OrderTooLarge

# numeric property tests have uneven per-example cost; wall-clock deadlines
# only add flakiness there
settings.register_profile(
    "numeric", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("numeric")


def random_pd_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Well-conditioned random positive definite matrix."""
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def build_circulant_regressor(u, n: int) -> np.ndarray:
    """Reference N x n regression matrix with row t equal to (u_t, u_{t-1}, ..., u_{t-n+1}).

    Indices wrap modulo N, so column i is the input delayed circularly by i.
    u is an array or an InputSequence.
    """
    v = np.asarray(getattr(u, "values", u), dtype=float)
    N = v.size
    if n > N:
        raise OrderTooLarge(f"FIR order {n} exceeds record length {N}")
    idx = (np.arange(N)[:, None] - np.arange(n)[None, :]) % N
    return v[idx]
