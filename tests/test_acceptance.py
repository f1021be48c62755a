"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest's capture) with
the measured worst case and its runtime against the budgeted limit.
"""

import time

import numpy as np
import pytest

from oracles import brute_force_design, build_S, build_W, weights_to_r
from optinput import linalg
from optinput.analysis import asymptotic_white_noise_check
from optinput.design_map import circular_correlation, recover_input
from optinput.design_solver import (
    DesignProblem,
    SolverOptions,
    check_rdagger_optimality,
    eval_criterion,
    gradient_in_r,
    q_of_r,
    solve,
)
from optinput.estimator import InputSequence
from optinput.experiment import McConfig, run_monte_carlo
from optinput.kernels import KernelSpec


def report(capsys, idx, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {idx:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_diagonal_spec(rng, n):
    family = ("Ridge", "Diagonal", "DI")[int(rng.integers(3))]
    if family == "Ridge":
        return KernelSpec("Ridge", n, {"c": float(rng.uniform(0.3, 3.0))})
    if family == "Diagonal":
        return KernelSpec("Diagonal", n, {"lams": rng.uniform(0.3, 3.0, n).tolist()})
    return KernelSpec("DI", n, {"c": float(rng.uniform(0.3, 3.0)), "lam": float(rng.uniform(0.5, 0.95))})


def interior_correlation(rng, problem):
    a = rng.dirichlet(np.ones(problem.N))
    r = weights_to_r(a, problem.N, problem.n, problem.energy)
    return 0.5 * r + 0.5 * problem.r_dagger()


def test_01_composite_map_identity(capsys):
    budget, t0 = 5.0, time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(2, 65))
        n = int(rng.integers(1, N + 1))
        u = float(rng.uniform(0.1, 5.0)) * rng.standard_normal(N)
        energy = float(u @ u)
        lhs = build_S(N, n) @ (build_W(N).T @ u) ** 2
        rhs = circular_correlation(u, n)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / energy)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < budget
    report(capsys, 1, "composite map identity on 500 random inputs", ok,
           f"max rel dev {worst:.2e} <= 1e-9, {elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_02_orthogonality_and_rank(capsys):
    budget, t0 = 5.0, time.perf_counter()
    worst_orth = max(float(np.max(np.abs(build_W(N).T @ build_W(N) - np.eye(N)))) for N in range(1, 65))
    rng = np.random.default_rng(1002)
    rank_ok = True
    for _ in range(50):
        N = int(rng.integers(1, 65))
        n = int(rng.integers(1, N + 1))
        expected = min(N // 2 + 1, n) if N % 2 == 0 else min((N + 1) // 2, n)
        # mirrored cosine columns agree only to roundoff, so threshold the
        # spectrum relative to its head instead of relying on eps-level cutoffs
        sv = np.linalg.svd(build_S(N, n), compute_uv=False)
        rank_ok = rank_ok and int(np.sum(sv > 1e-9 * sv[0])) == expected
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-10 and rank_ok and elapsed < budget
    report(capsys, 2, "basis orthogonality and correlation-map rank", ok,
           f"max orth dev {worst_orth:.2e} <= 1e-10, 50/50 ranks {'ok' if rank_ok else 'WRONG'}, "
           f"{elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_03_diagonal_kernels_keep_the_impulsive_design(capsys):
    budget, t0 = 30.0, time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_dist, worst_grad = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(n, 17))
        spec = random_diagonal_spec(rng, n)
        sigma2 = float(rng.uniform(0.2, 2.0))
        energy = float(rng.uniform(0.5, 4.0))
        for crit in ("D", "A"):
            problem = DesignProblem(spec, sigma2, n, N, energy, crit)
            sol = solve(problem)
            worst_dist = max(worst_dist, float(np.max(np.abs(sol.r - problem.r_dagger()))) / energy)
            chk = check_rdagger_optimality(problem)
            worst_grad = max(worst_grad, float(np.max(np.abs(chk["directional_derivatives"]), initial=0.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_dist <= 1e-6 and worst_grad <= 1e-10 and elapsed < budget
    report(capsys, 3, "diagonal kernels keep the impulsive design", ok,
           f"max rel dist {worst_dist:.2e} <= 1e-6, max |dd| {worst_grad:.2e} <= 1e-10, "
           f"{elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_04_coupled_kernels_move_the_design(capsys):
    budget, t0 = 60.0, time.perf_counter()
    rng = np.random.default_rng(1004)
    opts = SolverOptions()
    all_violated, min_margin = True, np.inf
    for k in range(20):
        n = int(rng.integers(2, 6))
        if k < 10:
            N = int(rng.integers(max(n, 4), 15))
            rho = float(rng.uniform(0.15, 0.85))
        else:
            N = 2 * int(rng.integers((max(n, 4) + 1) // 2, 8))
            rho = -float(rng.uniform(0.15, 0.85))
        spec = KernelSpec("DC", n, {"c": float(rng.uniform(0.5, 2.0)),
                                    "lam": float(rng.uniform(0.5, 0.95)), "rho": rho})
        sigma2 = float(rng.uniform(0.5, 2.0))
        energy = float(rng.uniform(0.5, 2.0))
        for crit in ("D", "A"):
            problem = DesignProblem(spec, sigma2, n, N, energy, crit)
            chk = check_rdagger_optimality(problem)
            all_violated = all_violated and not chk["is_stationary"]
            v_dag = eval_criterion(problem, problem.r_dagger())
            sol = solve(problem, opts)
            tol = opts.gap_rel_tol * max(1.0, abs(v_dag))
            min_margin = min(min_margin, (v_dag - sol.value) / (10.0 * tol))
    elapsed = time.perf_counter() - t0
    ok = all_violated and min_margin > 1.0 and elapsed < budget
    report(capsys, 4, "coupled kernels move the design for both smooth criteria", ok,
           f"stationarity violated 40/40: {all_violated}, min improvement {min_margin:.1e}x the "
           f"solver tolerance, {elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_05_zero_trace_example_reproduces_exactly(capsys):
    budget, t0 = 5.0, time.perf_counter()
    p_inv = np.array([[1.0, 0.5, -0.125], [0.5, 1.0, -0.5], [-0.125, -0.5, 1.0]])
    spec = KernelSpec("CustomInverse", 3, {"p_inv": p_inv})
    problem = DesignProblem(spec, 1.0, 3, 8, 1.0, "D")
    q_inv = linalg.inverse(q_of_r(problem.r_dagger(), problem.p_inverse(), 1.0))
    want = np.array([[8 / 15, -2 / 15, 0.0], [-2 / 15, 17 / 30, 2 / 15], [0.0, 2 / 15, 8 / 15]])
    dev_q = float(np.max(np.abs(q_inv - want)))
    dev_g = float(np.max(np.abs(gradient_in_r(problem, problem.r_dagger()))))
    dev_r = float(np.max(np.abs(solve(problem).r - problem.r_dagger())))
    elapsed = time.perf_counter() - t0
    ok = dev_q <= 1e-12 and dev_g <= 1e-12 and dev_r <= 1e-6 and elapsed < budget
    report(capsys, 5, "zero-trace example reproduces exactly", ok,
           f"posterior dev {dev_q:.1e} <= 1e-12, trace dev {dev_g:.1e} <= 1e-12, "
           f"design dev {dev_r:.1e} <= 1e-6, {elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_06_solver_matches_the_grid_oracle(capsys):
    budget, t0 = 60.0, time.perf_counter()
    rng = np.random.default_rng(1006)
    worst_excess, worst_gap = -np.inf, 0.0
    for k in range(10):
        N = int(rng.integers(4, 8))  # K = floor(N/2)+1 <= 4 vertices
        n = int(rng.integers(2, min(N, 4) + 1))
        kind = k % 3
        if kind == 0:
            spec = KernelSpec("Ridge", n, {"c": float(rng.uniform(0.5, 2.0))})
        elif kind == 1:
            spec = KernelSpec("TC", n, {"c": 1.0, "lam": float(rng.uniform(0.5, 0.9))})
        else:
            spec = KernelSpec("DC", n, {"c": 1.0, "lam": float(rng.uniform(0.6, 0.95)),
                                        "rho": float(rng.uniform(-0.8, 0.8))})
        problem = DesignProblem(spec, 1.0, n, N, float(rng.uniform(0.5, 2.0)), "DA"[k % 2])
        sol = solve(problem)
        grid = brute_force_design(problem, 200)
        slack = grid.slack + 1e-12 * max(1.0, abs(grid.value))
        worst_excess = max(worst_excess, abs(sol.value - grid.value) - slack)
        worst_gap = max(worst_gap, sol.certificate.gap / max(abs(sol.value), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and worst_gap <= 1e-8 and elapsed < budget
    report(capsys, 6, "solver matches the exhaustive grid oracle", ok,
           f"worst |value diff| - grid slack {worst_excess:.1e} <= 0, max rel duality gap "
           f"{worst_gap:.1e} <= 1e-8, {elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_07_input_recovery_round_trip(capsys):
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(1007)
    worst_r, worst_p = 0.0, 0.0
    for k in range(200):
        N = int(rng.integers(1, 17)) * 2 + (k % 2)  # both parities, N in [2, 33]
        n = int(rng.integers(1, N + 1))
        energy = float(rng.uniform(0.5, 10.0))
        a = rng.dirichlet(np.ones(N))
        u = recover_input(a, energy, N, sign_pattern="random", seed=k)
        want = weights_to_r(a, N, n, energy)
        got = circular_correlation(u.values, n)
        worst_r = max(worst_r, float(np.max(np.abs(got - want))) / energy)
        worst_p = max(worst_p, abs(float(u.values @ u.values) - energy) / energy)
    elapsed = time.perf_counter() - t0
    ok = worst_r <= 1e-8 and worst_p <= 1e-10 and elapsed < budget
    report(capsys, 7, "input recovery round trip on 200 weight vectors", ok,
           f"max rel correlation dev {worst_r:.2e} <= 1e-8, max rel power dev {worst_p:.2e} <= 1e-10, "
           f"{elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_08_designed_inputs_beat_white_noise(capsys, tmp_path):
    budget, t0 = 900.0, time.perf_counter()
    config = McConfig(
        systems=50,
        n=20,
        N=50,
        energy=10.0,
        snr_range=(1.0, 10.0),
        kernel_family="TC",
        criteria=("D", "A", "E"),
        master_seed=0,
        output_dir=str(tmp_path / "mc"),
    )
    summary = run_monte_carlo(config)
    w_mean = summary["policies"]["W"]["mean"]
    margins = {c: summary["policies"][c]["mean"] - w_mean for c in ("D", "A", "E")}
    elapsed = time.perf_counter() - t0
    ok = all(m >= 3.0 for m in margins.values()) and not summary["failed_systems"] and elapsed < budget
    detail = ", ".join(f"{c} +{m:.2f}" for c, m in margins.items())
    report(capsys, 8, "designed inputs beat white noise by 3 fit points", ok,
           f"mean fit margins over W={w_mean:.2f}: {detail}, {elapsed:.0f}s < {budget:.0f}s")
    assert ok


def test_09_gradients_match_finite_differences(capsys):
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        N = int(rng.integers(max(n, 2 * n - 2), 21))
        spec = KernelSpec("DC", n, {"c": float(rng.uniform(0.5, 2.0)),
                                    "lam": float(rng.uniform(0.5, 0.95)),
                                    "rho": float(rng.uniform(-0.8, 0.8))})
        for crit in ("D", "A"):
            problem = DesignProblem(spec, float(rng.uniform(0.5, 2.0)), n, N,
                                    float(rng.uniform(0.5, 2.0)), crit)
            r = interior_correlation(rng, problem)
            g = gradient_in_r(problem, r)
            h = 1e-6
            fd = np.empty(n - 1)
            for i in range(n - 1):
                e = np.zeros(n)
                e[i + 1] = h
                fd[i] = (eval_criterion(problem, r + e) - eval_criterion(problem, r - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - g))) / max(float(np.max(np.abs(g))), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < budget
    report(capsys, 9, "analytic gradients match central differences", ok,
           f"max rel dev {worst:.2e} <= 1e-4 over 50 points x 2 criteria, {elapsed:.1f}s < {budget:.0f}s")
    assert ok


def test_10_white_noise_gap_shrinks_with_period(capsys):
    budget, t0 = 30.0, time.perf_counter()
    spec = KernelSpec("Ridge", 5, {"c": 1.0})
    rows = asymptotic_white_noise_check(spec, 1.0, 1.0, [32, 256], seeds=50)
    elapsed = time.perf_counter() - t0
    ok = rows[1]["median_gap"] < rows[0]["median_gap"] and elapsed < budget
    report(capsys, 10, "white-noise criterion gap shrinks with the period", ok,
           f"median gap {rows[0]['median_gap']:.3e} (N=32) -> {rows[1]['median_gap']:.3e} (N=256), "
           f"{elapsed:.1f}s < {budget:.0f}s")
    assert ok
