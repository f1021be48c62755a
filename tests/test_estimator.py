import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from conftest import build_circulant_regressor, random_pd_matrix
from optinput import linalg
from optinput.design_solver import CRITERIA, DesignProblem, solve
from optinput.estimator import (
    DataRecord,
    InputSequence,
    OrderTooLarge,
    SingularRegressor,
    _clip_params,
    bayesian_mse,
    eb_objective,
    estimate_noise_variance,
    fit_hyperparameters,
    ls_estimate,
    rls_estimate,
)
from optinput.kernels import InvalidHyperparameter, KernelSpec, build_kernel, kernel_inverse


def white_record(seed, n, N, sigma2, theta=None, energy=None):
    """Synthetic record y = Phi theta + noise over a white input."""
    rng = np.random.default_rng(seed)
    u = InputSequence.scaled_to_power(rng.standard_normal(N), energy or float(N))
    if theta is None:
        theta = rng.standard_normal(n)
    phi = build_circulant_regressor(u, n)
    y = phi @ theta + rng.normal(0.0, np.sqrt(sigma2), N)
    return DataRecord(u, y, sigma2), theta


class TestInputSequence:
    def test_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            InputSequence(np.ones(3), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            InputSequence(np.array([1.0, np.inf]), 1.0)

    def test_values_write_protected(self):
        u = InputSequence(np.ones(3), 3.0)
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_scaled_to_power_is_exact(self):
        u = InputSequence.scaled_to_power([3.0, 4.0], 10.0)
        assert u.power_mismatch() <= 1e-15
        assert u.n_samples == 2

    def test_scaled_to_power_rejects_zero(self):
        with pytest.raises(ValueError):
            InputSequence.scaled_to_power(np.zeros(4), 1.0)


class TestDataRecord:
    def test_length_mismatch(self):
        u = InputSequence(np.ones(3), 3.0)
        with pytest.raises(ValueError):
            DataRecord(u, np.zeros(4))

    def test_rejects_nonpositive_sigma2(self):
        u = InputSequence(np.ones(3), 3.0)
        with pytest.raises(ValueError):
            DataRecord(u, np.zeros(3), 0.0)

    def test_json_roundtrip(self):
        u = InputSequence([1.0, -2.0, 0.5], 5.25)
        rec = DataRecord(u, [0.1, 0.2, 0.3], 0.9)
        back = DataRecord.from_json(rec.to_json())
        assert np.array_equal(back.u.values, rec.u.values)
        assert np.array_equal(back.y, rec.y)
        assert back.u.energy == rec.u.energy and back.sigma2 == rec.sigma2

    def test_json_roundtrip_without_sigma2(self):
        rec = DataRecord(InputSequence([1.0, 2.0], 5.0), [0.0, 0.0])
        assert DataRecord.from_json(rec.to_json()).sigma2 is None


class TestCirculantRegressor:
    def test_rows_by_hand(self):
        phi = build_circulant_regressor([1.0, 0.0, 0.0], 2)
        assert np.array_equal(phi, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_single_column(self):
        phi = build_circulant_regressor([2.0, 7.0], 1)
        assert np.array_equal(phi, [[2.0], [7.0]])

    def test_gram_is_toeplitz_of_correlations(self):
        phi = build_circulant_regressor([1.0, 2.0, 3.0], 2)
        assert np.array_equal(phi.T @ phi, [[14.0, 11.0], [11.0, 14.0]])

    def test_gram_matches_correlation_map(self):
        from optinput.design_map import quadratic_map
        import scipy.linalg

        rng = np.random.default_rng(3)
        u = rng.standard_normal(11)
        phi = build_circulant_regressor(u, 4)
        r = quadratic_map(u, 4).r
        assert np.allclose(phi.T @ phi, scipy.linalg.toeplitz(r), atol=1e-12)

    def test_every_column_has_full_power(self):
        u = np.array([1.0, -2.0, 0.5, 3.0])
        phi = build_circulant_regressor(u, 3)
        assert np.allclose(np.sum(phi**2, axis=0), float(u @ u), atol=1e-12)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            build_circulant_regressor([1.0, 2.0], 3)


class TestLsEstimate:
    def test_noise_free_recovery(self):
        rec, theta = white_record(0, n=4, N=20, sigma2=1.0)
        noiseless = DataRecord(rec.u, build_circulant_regressor(rec.u, 4) @ theta)
        est = ls_estimate(noiseless, 4)
        assert np.max(np.abs(est.theta - theta)) <= 1e-9
        assert est.method == "LS" and est.posterior_cov is None

    def test_zero_output(self):
        rec, _ = white_record(1, n=3, N=12, sigma2=1.0)
        est = ls_estimate(DataRecord(rec.u, np.zeros(12)), 3)
        assert np.array_equal(est.theta, np.zeros(3))

    def test_residual_orthogonality(self):
        rec, _ = white_record(2, n=5, N=30, sigma2=2.0)
        est = ls_estimate(rec, 5)
        phi = build_circulant_regressor(rec.u, 5)
        assert np.max(np.abs(phi.T @ (rec.y - phi @ est.theta))) <= 1e-9 * np.linalg.norm(rec.y)

    def test_constant_input_is_singular(self):
        u = InputSequence(np.ones(8), 8.0)
        with pytest.raises(SingularRegressor):
            ls_estimate(DataRecord(u, np.zeros(8)), 2)


class TestRlsEstimate:
    def test_weak_prior_approaches_ls(self):
        rec, _ = white_record(3, n=4, N=24, sigma2=0.5)
        ls = ls_estimate(rec, 4)
        rls = rls_estimate(rec, 1e8 * np.eye(4), 0.5)
        assert np.linalg.norm(rls.theta - ls.theta) <= 1e-4 * np.linalg.norm(ls.theta)

    def test_zero_output(self):
        rec, _ = white_record(4, n=3, N=10, sigma2=1.0)
        est = rls_estimate(DataRecord(rec.u, np.zeros(10)), np.eye(3), 1.0)
        assert np.max(np.abs(est.theta)) <= 1e-15
        assert est.method == "RLS"

    def test_agrees_with_information_form(self):
        rec, _ = white_record(5, n=2, N=2, sigma2=1.0)
        P = np.eye(2)
        est = rls_estimate(rec, P, 1.0)
        phi = build_circulant_regressor(rec.u, 2)
        q = phi.T @ phi + np.linalg.inv(P)
        expected = np.linalg.solve(q, phi.T @ rec.y)
        assert np.max(np.abs(est.theta - expected)) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_matrix_inversion_lemma_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        N = int(rng.integers(n, 25))
        sigma2 = float(rng.uniform(0.05, 3.0))
        P = random_pd_matrix(rng, n)
        u = InputSequence.scaled_to_power(rng.standard_normal(N), float(N))
        y = rng.standard_normal(N)
        est = rls_estimate(DataRecord(u, y), P, sigma2)
        phi = build_circulant_regressor(u, n)
        q = phi.T @ phi + sigma2 * np.linalg.inv(P)
        theta_info = np.linalg.solve(q, phi.T @ y)
        scale = max(np.linalg.norm(theta_info), 1e-12)
        assert np.linalg.norm(est.theta - theta_info) <= 1e-9 * scale
        # posterior covariance likewise equals sigma2 Q^{-1}
        post_info = sigma2 * np.linalg.inv(q)
        assert np.max(np.abs(est.posterior_cov.a - post_info)) <= 1e-9 * np.linalg.norm(post_info)


class TestBayesianMse:
    def test_impulsive_ridge_closed_form(self):
        energy, c, sigma2, n = 4.0, 2.0, 0.5, 3
        u = InputSequence(np.array([2.0, 0.0, 0.0, 0.0, 0.0]), energy)
        mse = bayesian_mse(u, build_kernel(KernelSpec("Ridge", n, {"c": c})), sigma2)
        expected = (sigma2 / (energy + sigma2 / c)) * np.eye(n)
        assert np.max(np.abs(mse - expected)) <= 1e-12

    def test_zero_input_returns_prior(self):
        P = random_pd_matrix(np.random.default_rng(6), 3)
        mse = bayesian_mse(np.zeros(8), P, 2.0)
        assert np.allclose(mse, P, rtol=0, atol=1e-12)

    def test_zero_prior_returns_zero(self):
        # P = 0 has rank 0 in the pivoted factor
        mse = bayesian_mse(np.ones(5), np.zeros((3, 3)), 1.0)
        assert np.array_equal(mse, np.zeros((3, 3)))

    def test_matches_rls_posterior(self):
        rec, _ = white_record(7, n=4, N=16, sigma2=0.8)
        P = random_pd_matrix(np.random.default_rng(8), 4)
        est = rls_estimate(rec, P, 0.8)
        mse = bayesian_mse(rec.u, P, 0.8)
        assert np.max(np.abs(mse - est.posterior_cov.a)) <= 1e-12

    @pytest.mark.parametrize(
        "P", [np.ones((2, 3)), np.array([[1.0, np.inf], [np.inf, 1.0]])], ids=("nonsquare", "nonfinite")
    )
    def test_rejects_malformed_prior(self, P):
        rec, _ = white_record(4, n=2, N=10, sigma2=1.0)
        with pytest.raises(ValueError):
            bayesian_mse(rec.u, P, 1.0)
        with pytest.raises(ValueError):
            rls_estimate(rec, P, 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_data_never_hurts(self, seed):
        # posterior covariance <= prior in the Loewner order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        N = int(rng.integers(n, 20))
        P = random_pd_matrix(rng, n)
        u = rng.standard_normal(N)
        mse = bayesian_mse(u, P, float(rng.uniform(0.1, 2.0)))
        assert np.min(np.linalg.eigvalsh(P - mse)) >= -1e-10 * np.linalg.norm(P)


class TestEbObjective:
    def test_vanishing_kernel_limit(self):
        rng = np.random.default_rng(9)
        N, sigma2 = 12, 0.7
        u = rng.standard_normal(N)
        y = rng.standard_normal(N)
        val = eb_objective(KernelSpec("Ridge", 3, {"c": 1e-12}), y, u, sigma2)
        limit = float(y @ y) / sigma2 + N * np.log(sigma2)
        assert abs(val - limit) <= 1e-3

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(10)
        u, y = rng.standard_normal(9), rng.standard_normal(9)
        spec = KernelSpec("TC", 3, {"c": 2.0, "lam": 0.8})
        assert eb_objective(spec, y, u, 1.0) == eb_objective(spec, -y, u, 1.0)

    def test_against_dense_evaluation(self):
        rng = np.random.default_rng(11)
        n, N, sigma2 = 3, 10, 0.4
        u, y = rng.standard_normal(N), rng.standard_normal(N)
        spec = KernelSpec("DC", n, {"c": 1.5, "lam": 0.9, "rho": -0.3})
        phi = build_circulant_regressor(u, n)
        F = phi @ build_kernel(spec) @ phi.T + sigma2 * np.eye(N)
        direct = float(y @ np.linalg.solve(F, y)) + np.linalg.slogdet(F)[1]
        assert eb_objective(spec, y, u, sigma2) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_output(self, bad):
        rng = np.random.default_rng(19)
        u, y = rng.standard_normal(9), rng.standard_normal(9)
        y[4] = bad
        with pytest.raises(ValueError):
            eb_objective(KernelSpec("TC", 3, {"c": 1.0, "lam": 0.8}), y, u, 1.0)
        with pytest.raises(ValueError):
            fit_hyperparameters(y, u, 3, 1.0, family="TC")

    def test_finite_difference_continuity(self):
        # central and forward differences in c agree on the interior
        rng = np.random.default_rng(12)
        u, y = rng.standard_normal(16), rng.standard_normal(16)

        def f(c):
            return eb_objective(KernelSpec("TC", 4, {"c": c, "lam": 0.8}), y, u, 1.0)

        c, h = 2.0, 1e-6
        central = (f(c + h) - f(c - h)) / (2 * h)
        forward = (f(c + h) - f(c)) / h
        assert central == pytest.approx(forward, rel=1e-3)


def dense_estimates(spec, u, y, sigma2):
    """RLS estimate, posterior and EB objective through F = Phi P Phi^T + sigma2 I."""
    phi = build_circulant_regressor(u, spec.n)
    P = build_kernel(spec)
    F = phi @ P @ phi.T + sigma2 * np.eye(y.size)
    sol = np.linalg.solve(F, np.column_stack([y, phi @ P]))
    theta = P @ phi.T @ sol[:, 0]
    post = P - P @ phi.T @ sol[:, 1:]
    return theta, post, float(y @ sol[:, 0]) + np.linalg.slogdet(F)[1]


class TestLongRecords:
    @pytest.mark.parametrize(
        "spec, N",
        [
            (KernelSpec("TC", 30, {"c": 1.0, "lam": 0.9}), 512),
            (KernelSpec("DC", 30, {"c": 2.0, "lam": 0.85, "rho": 0.6}), 256),
        ],
    )
    def test_n_by_n_form_matches_the_dense_formulas(self, spec, N):
        sigma2 = 0.3
        rec, _ = white_record(20, n=spec.n, N=N, sigma2=sigma2)
        theta, post, eb = dense_estimates(spec, rec.u.values, rec.y, sigma2)
        P = build_kernel(spec)
        est = rls_estimate(rec, P, sigma2)
        assert np.linalg.norm(est.theta - theta) <= 1e-9 * np.linalg.norm(theta)
        assert np.max(np.abs(est.posterior_cov.a - post)) <= 1e-9 * np.max(np.abs(post))
        mse = bayesian_mse(rec.u, P, sigma2)
        assert np.max(np.abs(mse - post)) <= 1e-9 * np.max(np.abs(post))
        assert eb_objective(spec, rec.y, rec.u.values, sigma2) == pytest.approx(eb, rel=1e-9)


class TestEbBoxCorners:
    # P underflows or dwarfs sigma2 here; the n x n form never inverts P
    @pytest.mark.parametrize(
        "family, params, rel",
        [
            ("DI", {"c": 1.0, "lam": 1e-8}, 1e-9),
            ("TC", {"c": 1.0, "lam": 1e-8}, 1e-9),
            ("Ridge", {"c": 1e-12}, 1e-9),
            # F has condition ~1e14 here, so the dense evaluation itself is only good to ~1e-4
            ("TC", {"c": 1e12, "lam": 0.9}, 1e-3),
        ],
    )
    def test_corner_is_finite_and_matches_the_dense_evaluation(self, family, params, rel):
        rng = np.random.default_rng(16)
        n, N, sigma2 = 10, 64, 0.5
        u, y = rng.standard_normal(N), rng.standard_normal(N)
        spec = KernelSpec(family, n, params)
        value = eb_objective(spec, y, u, sigma2)
        assert np.isfinite(value)
        assert value == pytest.approx(dense_estimates(spec, u, y, sigma2)[2], rel=rel)
        grid = {k: [v] for k, v in params.items()}
        fit = fit_hyperparameters(y, u, n, sigma2, family=family, grid=grid, refine=False)
        assert fit.params == pytest.approx(params, rel=1e-12)

    def test_large_prior_matches_the_information_form(self):
        # log det F = (N - n) log sigma2 + log det P + log det Q and
        # y^T F^{-1} y = (y^T y - b^T Q^{-1} b) / sigma2, Q = Phi^T Phi + sigma2 P^{-1},
        # which stays well conditioned where F does not
        rng = np.random.default_rng(16)
        n, N, sigma2 = 10, 64, 0.5
        u, y = rng.standard_normal(N), rng.standard_normal(N)
        spec = KernelSpec("TC", n, {"c": 1e12, "lam": 0.9})
        phi = build_circulant_regressor(u, n)
        Q = phi.T @ phi + sigma2 * kernel_inverse(spec)
        b = phi.T @ y
        expected = (
            (float(y @ y) - float(b @ np.linalg.solve(Q, b))) / sigma2
            + (N - n) * np.log(sigma2)
            + np.linalg.slogdet(build_kernel(spec))[1]
            + np.linalg.slogdet(Q)[1]
        )
        assert eb_objective(spec, y, u, sigma2) == pytest.approx(expected, rel=1e-9)


class TestRankOnePrior:
    # P = c 11^T (TC at lam = 1). With v = Phi 1, s = v^T v and a = v^T y:
    # log det F = N log sigma2 + log(1 + c s / sigma2), y^T F^{-1} y = (y^T y - c a^2 / (sigma2 + c s)) / sigma2,
    # the posterior is c sigma2 / (sigma2 + c s) 11^T and theta = c a / (sigma2 + c s) 1
    @pytest.mark.parametrize("c", [1.0, 1e12])
    def test_closed_forms(self, c):
        rng = np.random.default_rng(5)
        n, N, sigma2 = 30, 64, 0.5
        u, y = rng.standard_normal(N), rng.standard_normal(N)
        spec = KernelSpec("TC", n, {"c": c, "lam": 1.0})
        v = build_circulant_regressor(u, n).sum(axis=1)
        s, a = float(v @ v), float(v @ y)
        expected = (float(y @ y) - c * a**2 / (sigma2 + c * s)) / sigma2 + N * np.log(sigma2) + np.log1p(c * s / sigma2)
        assert eb_objective(spec, y, u, sigma2) == pytest.approx(expected, rel=1e-12)
        post = c * sigma2 / (sigma2 + c * s)
        P = build_kernel(spec)
        assert np.max(np.abs(bayesian_mse(u, P, sigma2) - post)) <= 1e-12 * post
        est = rls_estimate(DataRecord(InputSequence(u, float(u @ u)), y), P, sigma2)
        assert np.max(np.abs(est.posterior_cov.a - post)) <= 1e-12 * post
        theta = c * a / (sigma2 + c * s)
        assert np.max(np.abs(est.theta - theta)) <= 1e-12 * abs(theta)


class TestSigma2Validation:
    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
    def test_eb_objective_rejects(self, sigma2):
        rng = np.random.default_rng(18)
        u, y = rng.standard_normal(12), rng.standard_normal(12)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            eb_objective(KernelSpec("TC", 3, {"c": 1.0, "lam": 0.8}), y, u, sigma2)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
    def test_fit_hyperparameters_rejects(self, sigma2):
        rng = np.random.default_rng(18)
        u, y = rng.standard_normal(12), rng.standard_normal(12)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            fit_hyperparameters(y, u, 3, sigma2, family="TC")


class TestFitHyperparameters:
    def test_matches_the_probe_by_probe_search(self):
        # the same grid scan and Nelder-Mead polish, each probe through eb_objective
        n, N, sigma2 = 6, 64, 0.3
        rec, _ = white_record(17, n=n, N=N, sigma2=sigma2)
        u, y = rec.u.values, rec.y
        grid = {"c": [0.1, 1.0, 10.0], "lam": [0.6, 0.8, 0.95]}

        def objective(x):
            try:
                return eb_objective(KernelSpec("TC", n, _clip_params("TC", x)), y, u, sigma2)
            except (linalg.NotPositiveDefinite, InvalidHyperparameter):
                return np.inf

        mesh = [np.array([np.log10(c), lam]) for c in grid["c"] for lam in grid["lam"]]
        values = [objective(x) for x in mesh]
        x_best = mesh[int(np.argmin(values))]
        res = scipy.optimize.minimize(
            objective, x_best, method="Nelder-Mead", options={"maxiter": 400, "xatol": 1e-4, "fatol": 1e-9}
        )
        if np.isfinite(res.fun) and res.fun <= min(values):
            x_best = res.x
        spec = fit_hyperparameters(y, u, n, sigma2, family="TC", grid=grid)
        assert spec.params == pytest.approx(_clip_params("TC", x_best), rel=1e-12)

    def test_single_grid_point_returned(self):
        rng = np.random.default_rng(13)
        u, y = rng.standard_normal(10), rng.standard_normal(10)
        grid = {"c": [2.0], "lam": [0.75]}
        spec = fit_hyperparameters(y, u, 3, 1.0, family="TC", grid=grid, refine=False)
        assert spec.params["c"] == pytest.approx(2.0, rel=1e-12)
        assert spec.params["lam"] == pytest.approx(0.75, rel=1e-12)

    def test_tc_self_consistency_high_snr(self):
        rng = np.random.default_rng(42)
        n, N, sigma2 = 12, 200, 1e-4
        true = KernelSpec("TC", n, {"c": 1.0, "lam": 0.8})
        theta = np.linalg.cholesky(build_kernel(true)) @ rng.standard_normal(n)
        u = InputSequence.scaled_to_power(rng.standard_normal(N), float(N))
        y = build_circulant_regressor(u, n) @ theta + rng.normal(0.0, np.sqrt(sigma2), N)
        spec = fit_hyperparameters(y, u.values, n, sigma2, family="TC")
        assert abs(spec.params["lam"] - 0.8) <= 0.15

    def test_overstated_noise_shrinks_c(self):
        # same data as the recovery test, but the fitter is told the noise
        # floor is enormous: the whole signal is then explained as noise
        rng = np.random.default_rng(42)
        n, N = 12, 200
        true = KernelSpec("TC", n, {"c": 1.0, "lam": 0.8})
        theta = np.linalg.cholesky(build_kernel(true)) @ rng.standard_normal(n)
        u = InputSequence.scaled_to_power(rng.standard_normal(N), float(N))
        y = build_circulant_regressor(u, n) @ theta + rng.normal(0.0, 1e-2, N)
        spec = fit_hyperparameters(y, u.values, n, 1e4, family="TC")
        assert spec.params["c"] < 0.1

    def test_unknown_family(self):
        with pytest.raises(InvalidHyperparameter):
            fit_hyperparameters(np.zeros(4), np.ones(4), 2, 1.0, family="Diagonal")

    def test_flat_tc_fit_stays_designable(self):
        # a constant impulse response drives the TC fit to the top of its lam box;
        # TC at lam = 1 is c 11^T, which no design can invert
        n, N, sigma2 = 20, 50, 0.01
        rng = np.random.default_rng(0)
        u = InputSequence.scaled_to_power(rng.standard_normal(N), 10.0).values
        y = build_circulant_regressor(u, n) @ np.full(n, 0.3) + rng.normal(0.0, 0.1, N)
        spec = fit_hyperparameters(y, u, n, sigma2, family="TC")
        assert 0.99 < spec.params["lam"] < 1.0
        for criterion in CRITERIA:
            assert solve(DesignProblem(spec, sigma2, n, N, 10.0, criterion)).certificate.converged


class TestEstimateNoiseVariance:
    def test_noise_free_residual_vanishes(self):
        rec, theta = white_record(14, n=4, N=40, sigma2=1.0)
        y = build_circulant_regressor(rec.u, 4) @ theta
        assert estimate_noise_variance(y, rec.u.values, 10) <= 1e-12 * float(y @ y)

    @pytest.mark.parametrize("seed", range(5))
    def test_pure_noise_concentration(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(200)
        y = rng.normal(0.0, 2.0, 200)  # true system is zero, sigma2 = 4
        assert estimate_noise_variance(y, u, 20) == pytest.approx(4.0, rel=0.3)

    def test_degenerate_dof_guard(self):
        with pytest.raises(OrderTooLarge):
            estimate_noise_variance(np.ones(10), np.arange(10.0), 9)

    def test_default_order_is_half_period(self):
        rng = np.random.default_rng(15)
        u, y = rng.standard_normal(30), rng.standard_normal(30)
        assert estimate_noise_variance(y, u) == estimate_noise_variance(y, u, 15)

    @pytest.mark.parametrize(
        "N, m", sorted({(N, m) for N in (7, 8, 50, 512) for m in (1, N // 4, N // 2) if m <= N - 2})
    )
    def test_matches_the_regressor_residual(self, N, m):
        rng = np.random.default_rng(N + m)
        u, y = rng.standard_normal(N), rng.standard_normal(N)
        phi = build_circulant_regressor(u, m)
        resid = y - phi @ np.linalg.lstsq(phi, y, rcond=None)[0]
        assert estimate_noise_variance(y, u, m) == pytest.approx(float(resid @ resid) / (N - m), rel=1e-12)
