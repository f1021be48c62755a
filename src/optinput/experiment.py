"""Monte Carlo benchmark of designed inputs against white noise.

For each randomly generated test system the pipeline mimics a two-stage
identification session: a white-noise preliminary record is used to estimate
the noise variance and fit kernel hyperparameters, inputs are then designed
for the requested criteria under the fitted prior, fresh records are simulated
with the designed inputs (same noise variance as the preliminary record), and
every estimate is scored by its impulse-response fit.  Results land in
fits.csv plus summary.json and are byte-reproducible from the master seed;
summary.json also gives, per criterion, the mean solver steps and the count of
designs whose certificate did not meet its target, each logged as a warning.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .design_solver import CRITERIA, Certificate, DesignProblem, SolverOptions, solve
from .estimator import (
    DataRecord,
    InputSequence,
    _convolve,
    estimate_noise_variance,
    fit_hyperparameters,
    rls_estimate,
)
from .kernels import build_kernel

logger = logging.getLogger(__name__)


class ZeroInput(ValueError):
    """The noise-free output has zero variance, so an SNR cannot be set."""


class DegenerateTruth(ValueError):
    """The true impulse response is constant, so the fit metric is undefined."""


@dataclass(frozen=True)
class TestSystem:
    """Truncated impulse response g_1..g_n of a randomly drawn stable system."""

    impulse_response: np.ndarray

    def __post_init__(self):
        g = np.array(self.impulse_response, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("impulse response must be a nonempty 1-D array")
        g.setflags(write=False)
        object.__setattr__(self, "impulse_response", g)

    @property
    def order(self) -> int:
        return self.impulse_response.size


def _draw_candidate(rng: np.random.Generator, order: int, horizon: int):
    """One random stable rational system; returns (impulse response, poles)."""
    n_pairs, n_real = divmod(order, 2)
    mags = rng.uniform(0.4, 0.95, n_pairs)
    angs = rng.uniform(0.0, np.pi, n_pairs)
    poles = mags * np.exp(1j * angs)
    poles = np.concatenate([poles, poles.conj()])
    if n_real:
        poles = np.append(poles, rng.uniform(0.4, 0.95) * rng.choice([-1.0, 1.0]))
    nz = order - 1
    z_pairs, z_real = divmod(nz, 2)
    zmags = rng.uniform(0.0, 1.2, z_pairs)
    zangs = rng.uniform(0.0, np.pi, z_pairs)
    zeros = zmags * np.exp(1j * zangs)
    zeros = np.concatenate([zeros, zeros.conj()])
    if z_real:
        zeros = np.append(zeros, rng.uniform(-1.2, 1.2))
    b = np.atleast_1d(np.real(np.poly(zeros)))
    a = np.real(np.poly(poles))
    # The first `horizon` taps solve sum_j a_j g_{k-j} = b_k (deg b = deg a - 1,
    # so g_0 = b_0 is the first tap): forward substitution in the banded lower
    # triangular Toeplitz system Toeplitz(a) g = b, with a and b cut or
    # zero-padded to the horizon.  Band storage holds a in every column; the
    # transpose makes it Fortran-ordered, so LAPACK takes it without a copy.
    a = a[:horizon]
    rhs = np.zeros((horizon, 1))
    rhs[: b.size, 0] = b[:horizon]
    g, _info = scipy.linalg.lapack.dtbtrs(np.repeat(a[None, :], horizon, axis=0).T, rhs, uplo="L")
    return g[:, 0], poles


def generate_test_system(
    seed,
    n: int,
    order: int = 30,
    horizon: int = 512,
    tail_fraction: float = 0.05,
    max_attempts: int = 1000,
) -> TestSystem:
    """Draw a test system whose first n taps carry almost all of the response.

    Candidates of the given rational order (pole radii in [0.4, 0.95], random
    zeros) are normalized to a unit-norm impulse response over their first
    `horizon` taps (so horizon >= n) and rejected until the discarded tail
    satisfies sum_{k>n} |g_k| <= tail_fraction * sum |g_k|.  Deterministic
    per seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if horizon < n:
        raise ValueError(f"horizon {horizon} is shorter than the {n} taps asked for")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        g, _poles = _draw_candidate(rng, order, horizon)
        if not np.all(np.isfinite(g)):
            continue
        norm = float(np.linalg.norm(g))
        if norm <= 0:
            continue
        g = g / norm
        total = float(np.sum(np.abs(g)))
        tail = float(np.sum(np.abs(g[n:])))
        if tail > tail_fraction * total:
            continue
        theta0 = g[:n]
        if np.linalg.norm(theta0 - theta0.mean()) <= 1e-8:
            continue
        return TestSystem(theta0)
    raise RuntimeError(f"no admissible system after {max_attempts} draws")


def noise_free_output(system: TestSystem, u: InputSequence) -> np.ndarray:
    """Circular steady-state response of the test system to one input period."""
    return _convolve(u.values, system.impulse_response)


def simulate_record(
    system: TestSystem,
    u: InputSequence,
    snr: float | None = None,
    sigma2: float | None = None,
    seed=None,
) -> DataRecord:
    """Simulate one record; exactly one of snr (var(y0)/sigma2) or sigma2 is given."""
    if (snr is None) == (sigma2 is None):
        raise ValueError("give exactly one of snr and sigma2")
    y0 = noise_free_output(system, u)
    var0 = float(np.var(y0))
    if var0 <= 0:
        raise ZeroInput("noise-free output variance is zero")
    if sigma2 is None:
        if not snr > 0:
            raise ValueError("snr must be positive")
        sigma2 = var0 / snr
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    noise = np.random.default_rng(seed).normal(0.0, np.sqrt(sigma2), y0.size)
    return DataRecord(u, y0 + noise, sigma2)


def empirical_snr(system: TestSystem, record: DataRecord) -> float:
    """var(noise-free output) / noise variance actually used in the record."""
    y0 = noise_free_output(system, record.u)
    return float(np.var(y0)) / record.sigma2


def fit_metric(theta_hat, theta0) -> float:
    """100 * (1 - ||theta_hat - theta0|| / ||theta0 - mean(theta0)||)."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if theta_hat.shape != theta0.shape:
        raise ValueError("theta_hat and theta0 must have the same length")
    denom = float(np.linalg.norm(theta0 - theta0.mean()))
    if denom == 0.0:
        raise DegenerateTruth("constant true impulse response")
    return 100.0 * (1.0 - float(np.linalg.norm(theta_hat - theta0)) / denom)


@dataclass(frozen=True)
class FitReport:
    """One scored estimate; designed policies carry their design's certificate."""

    system_id: int
    policy: str
    fit: float
    snr: float
    seed: int
    certificate: Certificate | None = None


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo run (JSON-serializable)."""

    systems: int
    n: int
    N: int
    energy: float
    snr_range: tuple = (1.0, 10.0)
    kernel_family: str = "TC"
    criteria: tuple = ("D", "A", "E")
    master_seed: int = 0
    output_dir: str = "mc_out"
    system_order: int = 30
    gap_rel_tol: float = 1e-10
    max_iter: int = 2000

    def __post_init__(self):
        if self.systems < 0:
            raise ValueError("systems must be >= 0")
        if not 1 <= self.n <= self.N:
            raise ValueError("need 1 <= n <= N")
        if not 0 < self.energy < np.inf:
            raise ValueError(f"energy must be positive and finite, got {self.energy}")
        if self.system_order < 1:
            raise ValueError("system_order must be >= 1")
        lo, hi = self.snr_range
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"snr_range must satisfy 0 < lo <= hi < inf, got {self.snr_range}")
        object.__setattr__(self, "snr_range", (float(lo), float(hi)))
        bad = [c for c in self.criteria if c not in CRITERIA]
        if bad:
            raise ValueError(f"unknown criteria {bad}")
        object.__setattr__(self, "criteria", tuple(self.criteria))
        self.solver_options()  # a bad tolerance or budget fails here, not once per system

    def solver_options(self) -> SolverOptions:
        return SolverOptions(gap_rel_tol=self.gap_rel_tol, max_iter=self.max_iter)

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["snr_range"], obj["criteria"] = list(self.snr_range), list(self.criteria)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "McConfig":
        return cls(**obj)


def _quartiles(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "median": float(np.median(values)),
        "q1": float(np.quantile(values, 0.25)),
        "q3": float(np.quantile(values, 0.75)),
        "count": int(values.size),
    }


def run_single_system(config: McConfig, system_id: int, seed_seq: np.random.SeedSequence) -> list[FitReport]:
    """The two-stage session for one system: preliminary fit, designs, test fits."""
    n, N, energy = config.n, config.N, config.energy
    state = seed_seq.generate_state(4 + len(config.criteria))
    system = generate_test_system(int(state[0]), n, order=config.system_order)
    theta0 = system.impulse_response

    rng = np.random.default_rng(int(state[1]))
    lo, hi = config.snr_range
    snr = float(lo + (hi - lo) * rng.random())
    u_white = InputSequence.scaled_to_power(rng.standard_normal(N), energy)
    prelim = simulate_record(system, u_white, snr=snr, seed=int(state[2]))

    m = min(N // 2, n)
    sigma2_hat = estimate_noise_variance(prelim.y, u_white.values, m)
    sigma2_hat = max(sigma2_hat, 1e-10 * float(np.var(prelim.y)), np.finfo(float).tiny)
    spec_hat = fit_hyperparameters(prelim.y, u_white.values, n, sigma2_hat, family=config.kernel_family)
    P_hat = build_kernel(spec_hat)

    reports = [
        FitReport(
            system_id=system_id,
            policy="W",
            fit=fit_metric(rls_estimate(prelim, P_hat, sigma2_hat).theta, theta0),
            snr=empirical_snr(system, prelim),
            seed=int(state[2]),
        )
    ]
    opts = config.solver_options()
    for k, crit in enumerate(config.criteria):
        problem = DesignProblem(spec_hat, sigma2_hat, n, N, energy, crit)
        sol = solve(problem, options=opts)
        if not sol.certificate.converged:
            logger.warning(
                "system %d: %s design used unconverged (gap %.3g after %d %s iterations)",
                system_id, crit, sol.certificate.gap, sol.certificate.iterations, sol.certificate.method,
            )
        test_seed = int(state[4 + k])
        record = simulate_record(system, sol.u, sigma2=prelim.sigma2, seed=test_seed)
        est = rls_estimate(record, P_hat, sigma2_hat)
        reports.append(
            FitReport(
                system_id=system_id,
                policy=crit,
                fit=fit_metric(est.theta, theta0),
                snr=empirical_snr(system, record),
                seed=test_seed,
                certificate=sol.certificate,
            )
        )
    return reports


def run_monte_carlo(config: McConfig) -> dict:
    """Run the full benchmark and write fits.csv and summary.json.

    Returns the summary dictionary.  Per-system failures are caught, counted,
    and excluded from the statistics.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    children = np.random.SeedSequence(config.master_seed).spawn(max(config.systems, 1))
    reports: list[FitReport] = []
    failures: list[dict] = []
    for sid in range(config.systems):
        try:
            reports.extend(run_single_system(config, sid, children[sid]))
        except Exception as exc:  # noqa: BLE001 - a bad draw must not sink the run
            failures.append({"system_id": sid, "error": f"{type(exc).__name__}: {exc}"})

    lines = ["system_id,policy,fit,snr,seed"]
    for rep in reports:
        lines.append(f"{rep.system_id},{rep.policy},{rep.fit!r},{rep.snr!r},{rep.seed}")
    (out / "fits.csv").write_text("\n".join(lines) + "\n")

    policies = ["W", *config.criteria]
    summary = {
        "config": config.to_json(),
        "failed_systems": failures,
        "policies": {},
        "designs": {},
    }
    for pol in policies:
        fits = np.array([rep.fit for rep in reports if rep.policy == pol])
        if fits.size:
            summary["policies"][pol] = _quartiles(fits)
    for crit in config.criteria:
        certs = [rep.certificate for rep in reports if rep.policy == crit]
        if certs:
            summary["designs"][crit] = {
                "converged": sum(c.converged for c in certs),
                "unconverged": sum(not c.converged for c in certs),
                "worst_gap": max(c.gap for c in certs),
                "mean_iterations": float(np.mean([c.iterations for c in certs])),
            }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
