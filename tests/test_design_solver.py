import itertools
from math import comb

import numpy as np
import pytest

from oracles import TooManyVertices, _compositions, brute_force_design, criterion_gradient, weights_to_r
from optinput.design_map import check_weights, circular_correlation, vertices
from optinput.design_solver import (
    CRITERIA,
    DesignProblem,
    DesignSolution,
    DimensionMismatch,
    SolverOptions,
    _in_r,
    check_rdagger_optimality,
    eval_criterion,
    gradient_in_r,
    q_of_r,
    solve,
)
from optinput.kernels import KernelSpec
from optinput import linalg


def ridge_problem(criterion="D", c=1.0, sigma2=1.0, n=3, N=8, energy=1.0):
    return DesignProblem(KernelSpec("Ridge", n, {"c": c}), sigma2, n, N, energy, criterion)


def dc_problem(criterion="D", rho=0.5, lam=0.9, n=3, N=8, sigma2=1.0, energy=1.0):
    spec = KernelSpec("DC", n, {"c": 1.0, "lam": lam, "rho": rho})
    return DesignProblem(spec, sigma2, n, N, energy, criterion)


def example_counterexample_problem(criterion="D"):
    # 3 x 3 inverse prior whose off-diagonal band sums vanish at r_dagger
    p_inv = np.array([[1.0, 0.5, -0.125], [0.5, 1.0, -0.5], [-0.125, -0.5, 1.0]])
    spec = KernelSpec("CustomInverse", 3, {"p_inv": p_inv})
    return DesignProblem(spec, 1.0, 3, 8, 1.0, criterion)


def interior_point(problem, seed):
    """Correlation strictly inside the feasible set, away from the vertices."""
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(problem.N))
    r = weights_to_r(a, problem.N, problem.n, problem.energy)
    return 0.5 * r + 0.5 * problem.r_dagger()


def gap_at(problem, r):
    """Frank-Wolfe duality gap at r, from the vertices and gradient_in_r."""
    g = gradient_in_r(problem, r)
    V = vertices(problem.N, problem.n, problem.energy)
    return float(g @ r[1:] - np.min(V[:, 1:] @ g))


def assert_certified(problem, s):
    """Converged, gap at s.r within the default target, and E S a == r."""
    assert s.certificate.converged
    assert gap_at(problem, s.r) <= SolverOptions().gap_rel_tol * abs(s.value) + 1e-15
    assert s.value == pytest.approx(eval_criterion(problem, s.r), rel=1e-12)
    back = weights_to_r(s.a, problem.N, problem.n, problem.energy)
    assert np.max(np.abs(back - s.r)) <= 1e-12 * problem.energy


class TestDesignProblem:
    def test_validation(self):
        spec = KernelSpec("Ridge", 3, {"c": 1.0})
        with pytest.raises(ValueError):
            DesignProblem(spec, 1.0, 3, 8, 1.0, "B")
        with pytest.raises(ValueError):
            DesignProblem(spec, 1.0, 3, 2, 1.0, "D")
        with pytest.raises(ValueError):
            DesignProblem(spec, 0.0, 3, 8, 1.0, "D")
        with pytest.raises(ValueError):
            DesignProblem(spec, 1.0, 3, 8, -1.0, "D")
        with pytest.raises(DimensionMismatch):
            DesignProblem(spec, 1.0, 4, 8, 1.0, "D")
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            DesignProblem(spec, np.inf, 3, 8, 1.0, "D")
        with pytest.raises(ValueError, match="energy must be positive and finite"):
            DesignProblem(spec, 1.0, 3, 8, np.inf, "D")

    def test_r_dagger(self):
        p = ridge_problem(energy=2.5)
        assert np.array_equal(p.r_dagger(), [2.5, 0.0, 0.0])


class TestQofR:
    def test_hand_example(self):
        Q = q_of_r([2.0, 1.0], np.eye(2), 1.0)
        assert np.array_equal(Q, [[3.0, 1.0], [1.0, 3.0]])

    def test_ridge_at_r_dagger_is_scalar(self):
        p = ridge_problem(c=2.0, sigma2=0.5, energy=3.0)
        Q = q_of_r(p.r_dagger(), p.p_inverse(), 0.5)
        assert np.allclose(Q, (3.0 + 0.5 / 2.0) * np.eye(3), atol=1e-12)

    def test_zero_correlation_leaves_the_prior_term(self):
        p_inv = np.array([[2.0, 0.3], [0.3, 1.0]])
        Q = q_of_r(np.zeros(2), p_inv, 0.7)
        assert np.allclose(Q, 0.7 * p_inv, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q_of_r(np.ones(3), np.eye(2), 1.0)


class TestEvalCriterion:
    def test_ridge_closed_forms(self):
        n, c, sigma2, energy = 3, 1.0, 0.5, 2.0
        q = energy + sigma2 / c
        vals = {
            "D": n * np.log(sigma2) - n * np.log(q),
            "A": sigma2 * n / q,
            "E": sigma2 / q,
        }
        for crit, want in vals.items():
            p = ridge_problem(crit, c=c, sigma2=sigma2, n=n, energy=energy)
            assert eval_criterion(p, p.r_dagger()) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_joint_rescaling(self, criterion):
        # sigma2 -> k sigma2 with P -> k P leaves Q fixed: D shifts by
        # n log k, A and E pick up the factor k
        k = 3.7
        base = dc_problem(criterion)
        scaled_spec = KernelSpec("DC", 3, {"c": k * 1.0, "lam": 0.9, "rho": 0.5})
        scaled = DesignProblem(scaled_spec, k * base.sigma2, 3, 8, 1.0, criterion)
        r = interior_point(base, 0)
        v0, v1 = eval_criterion(base, r), eval_criterion(scaled, r)
        if criterion == "D":
            assert v1 == pytest.approx(v0 + 3 * np.log(k), rel=1e-10)
        else:
            assert v1 == pytest.approx(k * v0, rel=1e-10)

    def test_counterexample_posterior_is_rational(self):
        p = example_counterexample_problem()
        Q = q_of_r(p.r_dagger(), p.p_inverse(), 1.0)
        want = np.array(
            [
                [8 / 15, -2 / 15, 0.0],
                [-2 / 15, 17 / 30, 2 / 15],
                [0.0, 2 / 15, 8 / 15],
            ]
        )
        assert np.max(np.abs(linalg.inverse(Q) - want)) <= 1e-12


class TestGradient:
    def test_ridge_gradient_vanishes_at_r_dagger(self):
        for crit in ("D", "A"):
            p = ridge_problem(crit)
            g = gradient_in_r(p, p.r_dagger())
            assert g.shape == (2,)
            assert np.max(np.abs(g)) <= 1e-14

    def test_counterexample_band_sums_vanish(self):
        p = example_counterexample_problem("D")
        assert np.max(np.abs(gradient_in_r(p, p.r_dagger()))) <= 1e-12

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, criterion, seed):
        # at these points lambda_min(Q) is simple, so E is differentiable too
        p = dc_problem(criterion, n=4, N=12)
        r = interior_point(p, seed)
        g = gradient_in_r(p, r)
        h = 1e-6
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(4)
            e[i + 1] = h
            fd[i] = (eval_criterion(p, r + e) - eval_criterion(p, r - e)) / (2 * h)
        assert np.max(np.abs(fd - g)) <= 1e-4 * max(np.max(np.abs(g)), 1e-12)

    def test_subgradient_direction_for_e(self):
        # moving along the negative subgradient cannot increase the criterion
        p = dc_problem("E")
        r = interior_point(p, 3)
        g = gradient_in_r(p, r)
        step = np.concatenate([[0.0], -1e-7 * g])
        assert eval_criterion(p, r + step) <= eval_criterion(p, r) + 1e-12

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_matches_the_oracle_gradient(self, criterion):
        # the oracle's trace formulas use an explicit inverse of Q; central
        # differences resolve only 1e-4, this comparison 1e-10
        rng = np.random.default_rng(2028)
        worst = 0.0
        for k in range(60):
            n = int(rng.integers(2, 9))
            N = int(rng.integers(n, 21))
            lam = float(rng.uniform(0.5, 0.95))
            if k % 2:
                spec = KernelSpec("TC", n, {"c": float(rng.uniform(0.5, 2.0)), "lam": lam})
            else:
                spec = KernelSpec("DC", n, {"c": float(rng.uniform(0.5, 2.0)), "lam": lam,
                                            "rho": float(rng.uniform(-0.8, 0.8))})
            p = DesignProblem(spec, float(rng.uniform(0.2, 2.0)), n, N, float(rng.uniform(0.5, 4.0)), criterion)
            r = interior_point(p, int(rng.integers(2**31)))
            want = criterion_gradient(p, r)
            worst = max(worst, float(np.max(np.abs(gradient_in_r(p, r) - want)) / np.max(np.abs(want))))
        assert worst <= 1e-10


def central_differences(f, x, h):
    """Central differences of f in x[1:], stacked along the last axis."""
    cols = []
    for i in range(1, x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


class TestSpectralKernel:
    """The one criterion kernel: gradient and Hessian in r[1:] for D, A and the E barrier E_s."""

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    @pytest.mark.parametrize("criterion", ["D", "A", "E_s"])
    def test_derivatives_match_central_differences(self, criterion, n):
        p = dc_problem(criterion[0], rho=0.4, lam=0.8, n=n, N=max(2 * n, 4), sigma2=0.5)
        p_inv = p.p_inverse()
        r = interior_point(p, n)
        s = None
        if criterion == "E_s":
            s = 2.0 * n / float(np.linalg.eigvalsh(q_of_r(r, p_inv, p.sigma2))[0])
        terms = _in_r(p, p_inv, s)
        _, g, H = terms(r, True)[:3]
        assert g.shape == (n - 1,) and H.shape == (n - 1, n - 1)
        if n == 1:
            return
        h = 1e-5 * p.energy
        fd_g = central_differences(lambda x: terms(x, False)[0], r, h)
        fd_H = central_differences(lambda x: terms(x, True)[1], r, h)
        assert np.max(np.abs(fd_g - g)) <= 1e-6 * np.max(np.abs(g))
        assert np.max(np.abs(fd_H - H)) <= 1e-6 * np.max(np.abs(H))

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_single_tap_has_empty_derivatives(self, criterion):
        p = ridge_problem(criterion, n=1, N=3, energy=2.0)
        out = _in_r(p, p.p_inverse(), 1.0 if criterion == "E" else None)(p.r_dagger(), True)
        assert out[1].shape == (0,) and out[2].shape == (0, 0)
        assert gradient_in_r(p, p.r_dagger()).shape == (0,)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_indefinite_q_raises(self, criterion):
        # Toeplitz(1, 2, 0) has the eigenvalue 1 - 2 sqrt(2) < 0; P^-1 = I / 100 cannot lift it
        p = ridge_problem(criterion, c=100.0)
        r = np.array([1.0, 2.0, 0.0])
        with pytest.raises(linalg.NotPositiveDefinite):
            eval_criterion(p, r)
        with pytest.raises(linalg.NotPositiveDefinite):
            gradient_in_r(p, r)

    def test_e_on_a_degenerate_bottom_eigenspace(self):
        # Q(r_dagger) = diag(E + sigma2, E + sigma2, E + 3 sigma2): any unit vector of
        # the bottom pair is a minimal eigenvector, and each gives a subgradient
        spec = KernelSpec("CustomInverse", 3, {"p_inv": np.diag([1.0, 1.0, 3.0])})
        p = DesignProblem(spec, 0.5, 3, 8, 1.0, "E")
        r = p.r_dagger()
        value = eval_criterion(p, r)
        assert value == pytest.approx(0.5 / 1.5, rel=1e-15)
        g = gradient_in_r(p, r)
        V = vertices(p.N, p.n, p.energy)
        points = np.vstack([V, np.random.default_rng(3).dirichlet(np.ones(len(V)), 200) @ V])
        for x in points:
            assert eval_criterion(p, x) >= value + g @ (x - r)[1:] - 1e-14

    def test_e_on_one_by_one(self):
        p = ridge_problem("E", c=2.0, sigma2=0.5, n=1, N=3, energy=4.0)
        assert eval_criterion(p, [4.0]) == pytest.approx(0.5 / (4.0 + 0.5 / 2.0), rel=1e-15)
        assert gradient_in_r(p, [4.0]).shape == (0,)


class TestConvexity:
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_segment_witness(self, criterion):
        p = dc_problem(criterion, n=4, N=10)
        rng = np.random.default_rng(11)
        trials = 100 if criterion != "E" else 25
        for _ in range(trials):
            ra = weights_to_r(rng.dirichlet(np.ones(10)), 10, 4, 1.0)
            rb = weights_to_r(rng.dirichlet(np.ones(10)), 10, 4, 1.0)
            va, vb = eval_criterion(p, ra), eval_criterion(p, rb)
            for t in (0.25, 0.5, 0.75):
                mid = eval_criterion(p, t * ra + (1 - t) * rb)
                assert mid <= t * va + (1 - t) * vb + 1e-9


class TestSolve:
    def test_ridge_d_returns_zero_correlation(self):
        p = ridge_problem("D")
        s = solve(p)
        assert np.max(np.abs(s.r - p.r_dagger())) <= 1e-6
        assert s.certificate.converged

    def test_diagonal_a_returns_zero_correlation(self):
        spec = KernelSpec("Diagonal", 3, {"lams": [1.0, 2.0, 3.0]})
        p = DesignProblem(spec, 1.0, 3, 8, 1.0, "A")
        s = solve(p)
        assert np.max(np.abs(s.r - p.r_dagger())) <= 1e-6

    def test_positive_coupling_moves_the_design(self):
        p = dc_problem("D", rho=0.5)
        s = solve(p)
        assert np.max(np.abs(s.r - p.r_dagger())) > 1e-3
        assert s.value < eval_criterion(p, p.r_dagger())

    def test_counterexample_is_d_optimal_but_not_a_optimal(self):
        sD = solve(example_counterexample_problem("D"))
        assert np.max(np.abs(sD.r - [1.0, 0.0, 0.0])) <= 1e-6
        pA = example_counterexample_problem("A")
        sA = solve(pA)
        assert sA.value < eval_criterion(pA, pA.r_dagger()) - 1e-6

    def test_e_on_ridge_approaches_the_known_optimum(self):
        p = ridge_problem("E", c=1.0, sigma2=0.5, energy=2.0)
        s = solve(p)
        exact = 0.5 / (2.0 + 0.5)
        # the optimum is a hard lower bound
        assert s.value >= exact - 1e-9
        assert s.value == pytest.approx(exact, rel=2e-2)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_reported_value_matches_the_returned_point(self, criterion):
        p = dc_problem(criterion)
        s = solve(p)
        assert s.value == pytest.approx(eval_criterion(p, s.r), rel=1e-10)
        assert s.criterion == criterion

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_zero_correlation(self, seed):
        rng = np.random.default_rng(seed)
        crit = CRITERIA[seed % 3]
        p = dc_problem(
            crit,
            rho=float(rng.uniform(-0.9, 0.9)),
            lam=float(rng.uniform(0.5, 0.99)),
            n=int(rng.integers(2, 5)),
            N=int(rng.integers(6, 13)),
        )
        s = solve(p)
        ref = eval_criterion(p, p.r_dagger())
        assert s.value <= ref + 1e-10 * max(abs(ref), 1.0)

    def test_returned_input_realizes_the_correlation(self):
        p = dc_problem("D", n=4, N=10)
        s = solve(p)
        back = circular_correlation(s.u.values, 4)
        assert np.max(np.abs(back - s.r)) <= 1e-8 * p.energy
        assert abs(float(s.u.values @ s.u.values) - p.energy) <= 1e-10 * p.energy

    def test_gap_certificate_meets_the_tolerance(self):
        opts = SolverOptions()
        for crit in ("D", "A"):
            p = dc_problem(crit)
            s = solve(p, opts)
            assert s.certificate.converged
            assert s.certificate.gap <= max(opts.gap_rel_tol * abs(s.value), 1e-8 * abs(s.value))

    def test_value_is_monotone_in_the_iteration_budget(self):
        p = dc_problem("D", n=4, N=12)
        values = []
        for budget in (1, 2, 5, 20, 100):
            s = solve(p, SolverOptions(max_iter=budget))
            values.append(s.value)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_weights_reproduce_the_correlation(self):
        # the returned weights are the solver's own: E S a is r up to roundoff,
        # for even and odd N, n = 1 and N = n
        for criterion, (n, N) in itertools.product(CRITERIA, [(3, 8), (3, 9), (1, 5), (4, 4), (4, 7)]):
            p = dc_problem(criterion, rho=0.5, n=n, N=N, energy=2.0)
            s = solve(p)
            check_weights(s.a, N)
            want = weights_to_r(s.a, p.N, p.n, p.energy)
            assert np.max(np.abs(want - s.r)) <= 1e-12 * p.energy
            assert np.all(s.a[p.N // 2 + 1 :] == 0.0)

    @pytest.mark.parametrize("name", ["Ridge-N4", "DI-N4", "DI-N7"])
    def test_r_dagger_design_returns_the_r_dagger_weights(self, name):
        # the uniform weights 1/N on the N columns of S, folded onto the first K
        family, N = name.split("-N")
        N = int(N)
        params = {"c": 1.0} if family == "Ridge" else {"c": 1.0, "lam": 0.8}
        s = solve(DesignProblem(KernelSpec(family, 4, params), 0.5, 4, N, 1.0, "E"))
        assert s.certificate.converged and s.certificate.iterations == 0
        want = np.zeros(N)
        for l in range(N):
            want[min(l, N - l)] += 1.0 / N
        assert np.array_equal(s.a, want)

    def test_json_roundtrip(self):
        s = solve(dc_problem("A"))
        back = DesignSolution.from_json(s.to_json())
        assert np.allclose(back.r, s.r, atol=1e-15)
        assert np.allclose(back.a, s.a, atol=1e-15)
        assert np.allclose(back.u.values, s.u.values, atol=1e-15)
        assert back.value == s.value and back.criterion == s.criterion
        assert back.certificate.gap == s.certificate.gap
        assert back.certificate.converged == s.certificate.converged
        assert back.certificate.method == s.certificate.method

    @pytest.mark.parametrize(
        "kwargs", [{"gap_rel_tol": -1.0}, {"gap_rel_tol": float("nan")}, {"max_iter": -1}], ids=str
    )
    def test_options_reject_a_bad_tolerance_or_budget(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_zero_budget_returns_r_dagger_with_its_certificate(self, criterion):
        p = dc_problem(criterion, rho=-0.6, lam=0.8, n=4, N=8, sigma2=0.5)
        s = solve(p, SolverOptions(max_iter=0))
        assert np.array_equal(s.r, p.r_dagger())
        assert s.certificate.iterations == 0
        assert s.certificate.gap > 0 and not s.certificate.converged

    def test_capped_solve_certifies_the_returned_point(self):
        # the optimum is on a face; one Newton step cannot certify it
        p = dc_problem("D", rho=-0.6, lam=0.8, n=4, N=8, sigma2=0.5)
        s = solve(p, SolverOptions(max_iter=1))
        assert not s.certificate.converged
        assert s.certificate.gap == pytest.approx(gap_at(p, s.r), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("name", ["Ridge-N4", "DI-N4", "DI-N7"])
    def test_e_is_never_worse_than_r_dagger_on_diagonal_kernels(self, name):
        # r_dagger is E-optimal here
        family, N = name.split("-N")
        params = {"c": 1.0} if family == "Ridge" else {"c": 1.0, "lam": 0.8}
        p = DesignProblem(KernelSpec(family, 4, params), 0.5, 4, int(N), 1.0, "E")
        s = solve(p)
        assert s.value <= eval_criterion(p, p.r_dagger())

    @pytest.mark.parametrize("name", ["Ridge-N4", "DI-N4", "DI-N7"])
    def test_e_stops_at_once_when_r_dagger_is_optimal(self, name):
        # Ridge meets the trace bound n sigma2 / tr Q at r_dagger; on DI the
        # bottom eigenvector is e_1, so the subgradient vanishes there
        family, N = name.split("-N")
        params = {"c": 1.0} if family == "Ridge" else {"c": 1.0, "lam": 0.8}
        p = DesignProblem(KernelSpec(family, 4, params), 0.5, 4, int(N), 1.0, "E")
        s = solve(p)
        assert s.certificate.converged
        assert s.certificate.iterations <= 2
        assert np.allclose(s.r, p.r_dagger(), atol=1e-12)
        assert s.value == pytest.approx(eval_criterion(p, p.r_dagger()), rel=1e-12)


class TestNewtonPath:
    @pytest.mark.parametrize("criterion", ["D", "A"])
    def test_interior_tc_optimum(self, criterion):
        spec = KernelSpec("TC", 20, {"c": 1.0, "lam": 0.8})
        p = DesignProblem(spec, 0.1, 20, 50, 10.0, criterion)
        s = solve(p)
        assert s.certificate.method == "newton"
        assert s.certificate.iterations <= 10
        assert_certified(p, s)
        assert s.value < eval_criterion(p, p.r_dagger())

    @pytest.mark.parametrize("criterion", ["D", "A"])
    @pytest.mark.parametrize("N", [11, 12])
    def test_odd_and_even_periods(self, criterion, N):
        p = dc_problem(criterion, rho=0.3, lam=0.8, n=4, N=N, sigma2=0.5)
        s = solve(p)
        assert s.certificate.method == "newton"
        assert_certified(p, s)

    @pytest.mark.parametrize("criterion", ["D", "A"])
    @pytest.mark.parametrize("N", [4, 7])
    def test_boundary_optimum_falls_back_and_matches_the_grid(self, criterion, N):
        # N=4 has K=3 < n vertices; at N=7 strong coupling pushes the optimum to a face
        p = dc_problem(criterion, rho=0.9, lam=0.8, n=4, N=N, sigma2=0.5)
        s = solve(p)
        assert s.certificate.method == "newton"
        assert_certified(p, s)
        grid = brute_force_design(p, 60)
        assert s.value <= grid.value + 1e-12
        assert grid.value - s.value <= grid.slack

    @pytest.mark.parametrize("criterion", ["D", "A"])
    def test_single_tap(self, criterion):
        p = ridge_problem(criterion, n=1, N=3, energy=2.0)
        s = solve(p)
        assert s.certificate.converged and s.certificate.gap == 0.0
        assert np.array_equal(s.r, [2.0])

    @pytest.mark.parametrize("criterion", ["D", "A"])
    def test_period_equal_to_order(self, criterion):
        spec = KernelSpec("TC", 5, {"c": 1.0, "lam": 0.8})
        p = DesignProblem(spec, 0.5, 5, 5, 1.0, criterion)
        s = solve(p)
        assert_certified(p, s)
        assert s.value <= eval_criterion(p, p.r_dagger())
        grid = brute_force_design(p, 60)
        assert s.value <= grid.value + 1e-12

    def test_unit_budget_falls_back_without_losing_the_value(self):
        # one Newton iteration cannot certify; its step is kept
        p = dc_problem("D", rho=0.3, lam=0.8, n=4, N=12, sigma2=0.5)
        s = solve(p, SolverOptions(max_iter=1))
        assert s.certificate.method == "newton"
        assert s.value <= eval_criterion(p, p.r_dagger())

    def test_graded_tc_a_design_converges(self):
        # acceptance system 2 of master seed 0: Q spans 9 to 1.4e4 and the
        # gradient at the optimum is 1e-11; with eigenvalues good only to
        # eps ||Q|| the loop stalled at a relative gap of 2.7e-8
        spec = KernelSpec("TC", 20, {"c": 0.8163907855028478, "lam": 0.5705237368137384})
        p = DesignProblem(spec, 0.04290093378625916, 20, 50, 10.0, "A")
        s = solve(p)
        assert s.certificate.iterations <= 10
        assert_certified(p, s)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_face_optimum_at_the_acceptance_size(self, criterion):
        # the optimal weights use 13-19 of the 26 vertices, so the optimum lies on a face
        spec = KernelSpec("TC", 20, {"c": 1.0, "lam": 0.9})
        p = DesignProblem(spec, 0.5, 20, 50, 10.0, criterion)
        s = solve(p)
        assert s.certificate.converged
        if criterion == "E":
            assert s.certificate.method == "barrier"
        else:
            assert s.certificate.iterations <= 20
            assert_certified(p, s)

    @pytest.mark.parametrize(
        "n, N, sigma2, rel_gap",
        [
            (20, 50, 1e-6, 1e-8),  # tiny noise: Q is nearly Toeplitz(r); the gap may end at the stall floor
            (50, 1024, 0.5, SolverOptions().gap_rel_tol),  # long period: 513 vertices
        ],
    )
    def test_e_barrier_reaches_its_target(self, n, N, sigma2, rel_gap):
        spec = KernelSpec("TC", n, {"c": 1.0, "lam": 0.9})
        p = DesignProblem(spec, sigma2, n, N, 10.0, "E")
        s = solve(p)
        assert s.certificate.converged
        assert s.certificate.gap <= rel_gap * s.value
        bound = s.value - s.certificate.gap
        V = vertices(N, n, 10.0)
        assert all(bound <= eval_criterion(p, r) for r in [p.r_dagger(), *V])

    @pytest.mark.parametrize(
        "n, N, sigma2, criterion",
        [(12, 12, 1.0, "A"), (12, 12, 100.0, "E"), (5, 6, 1.0, "A")],
    )
    def test_damped_step_at_the_tc_cap(self, n, N, sigma2, criterion):
        # at the EB fit's TC cap lam = 1 - 1e-6 the Hessian at r_dagger is not
        # numerically positive definite, so the Newton step must be damped
        spec = KernelSpec("TC", n, {"c": 1.0, "lam": 1.0 - 1e-6})
        p = DesignProblem(spec, sigma2, n, N, 0.1, criterion)
        s = solve(p)
        assert s.certificate.converged
        best = min(eval_criterion(p, v) for v in vertices(N, n, 0.1))
        assert s.value <= best + 1e-9 * abs(best)


def lower_bound_violations(problem, s, grid_resolution=24):
    """Feasible points whose criterion value lies below the certified bound value - gap."""
    bound = s.value - s.certificate.gap
    V = vertices(problem.N, problem.n, problem.energy)
    rng = np.random.default_rng(problem.N)
    points = [problem.r_dagger(), *V, *(rng.dirichlet(np.ones(len(V)), 300) @ V)]
    values = [eval_criterion(problem, r) for r in points]
    if problem.N // 2 + 1 <= 6:
        values.append(brute_force_design(problem, grid_resolution).value)
    return [v for v in values if bound > v + 1e-12 * abs(v)]


class TestCertificateIsABound:
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("rho", [-0.9, -0.6, 0.0, 0.3, 0.9])
    def test_weak_duality_on_dc_kernels(self, criterion, rho):
        for N in (4, 5, 7, 8, 10):
            p = dc_problem(criterion, rho=rho, lam=0.8, n=4, N=N, sigma2=0.5)
            assert lower_bound_violations(p, solve(p)) == []

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_weak_duality_on_the_interior_tc_case(self, criterion):
        spec = KernelSpec("TC", 20, {"c": 1.0, "lam": 0.8})
        p = DesignProblem(spec, 0.1, 20, 50, 10.0, criterion)
        s = solve(p)
        assert s.certificate.converged
        assert lower_bound_violations(p, s) == []

    @pytest.mark.parametrize("criterion, rho, N", [("D", -0.9, 5), ("E", 0.0, 7)])
    def test_gap_is_never_negative(self, criterion, rho, N):
        # at these optima the gap is a difference of nearly equal numbers, which has rounded to -5.6e-17
        p = dc_problem(criterion, rho=rho, lam=0.8, n=4, N=N, sigma2=0.5)
        assert solve(p).certificate.gap >= 0.0


class TestZeroCorrelationTest:
    def test_ridge_is_stationary_with_exact_zeros(self):
        chk = check_rdagger_optimality(ridge_problem("D"))
        assert chk["is_stationary"]
        assert np.max(np.abs(chk["directional_derivatives"])) <= 1e-10

    def test_positive_coupling_fails_along_the_constant_direction(self):
        chk = check_rdagger_optimality(dc_problem("D", rho=0.5))
        assert not chk["is_stationary"]
        assert chk["directional_derivatives"][0] < -1e-10

    def test_negative_coupling_fails_along_the_alternating_direction(self):
        p = dc_problem("D", rho=-0.5, N=8)
        chk = check_rdagger_optimality(p)
        assert not chk["is_stationary"]
        assert chk["directional_derivatives"][p.N // 2] < -1e-10


class TestBruteForce:
    def test_ridge_grid_optimum_is_near_zero_correlation(self):
        p = DesignProblem(KernelSpec("Ridge", 2, {"c": 1.0}), 1.0, 2, 4, 1.0, "D")
        s = brute_force_design(p, 200)
        assert np.max(np.abs(s.r - p.r_dagger())) <= 2.0 * 1.0 / 200 + 1e-12

    def test_resolution_one_returns_the_best_vertex(self):
        p = DesignProblem(KernelSpec("Ridge", 2, {"c": 1.0}), 1.0, 2, 4, 1.0, "D")
        s = brute_force_design(p, 1)
        V = vertices(4, 2, 1.0)
        best = min(float(eval_criterion(p, v)) for v in V)
        assert s.value == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_agrees_with_the_iterative_solver(self, criterion):
        spec = KernelSpec("DC", 2, {"c": 1.0, "lam": 0.9, "rho": 0.6})
        p = DesignProblem(spec, 1.0, 2, 6, 1.0, criterion)
        grid = brute_force_design(p, 200)
        s = solve(p)
        assert s.value <= grid.value + 1e-12
        assert grid.value - s.value <= grid.slack

    def test_too_many_vertices(self):
        p = DesignProblem(KernelSpec("Ridge", 2, {"c": 1.0}), 1.0, 2, 16, 1.0, "D")
        with pytest.raises(TooManyVertices):
            brute_force_design(p, 10)

    @pytest.mark.parametrize("total, parts", [(200, 4), (12, 6), (5, 1), (0, 3)])
    def test_compositions_enumerate_the_grid_once(self, total, parts):
        rows = np.vstack(list(_compositions(total, parts))).astype(np.int64)
        assert rows.shape == (comb(total + parts - 1, parts - 1), parts)
        assert np.all(rows >= 0)
        assert np.all(rows.sum(axis=1) == total)
        codes = rows @ (total + 1) ** np.arange(parts)
        assert np.unique(codes).size == len(rows)

    def test_compositions_keep_the_lexicographic_order(self):
        # the grid scan keeps the first of tied points, so the order is part of the result
        rows = np.vstack(list(_compositions(7, 4)))
        want = [c for c in itertools.product(range(8), repeat=4) if sum(c) == 7]
        assert np.array_equal(rows, want)
