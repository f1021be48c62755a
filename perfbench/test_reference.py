"""Quick tests of the benchmark's reference checks on tiny cases with known answers.

    python3 -m pytest perfbench/test_reference.py -q
"""

import numpy as np
import pytest

import reference as ref


def brute_correlation(u, n):
    return np.array([sum(u[k] * u[(k - j) % u.size] for k in range(u.size)) for j in range(n)])


def brute_phi(u, n):
    N = u.size
    return np.array([[u[(t - i) % N] for i in range(n)] for t in range(N)])


def test_circular_correlation_matches_the_definition():
    u = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    assert np.allclose(ref.circular_correlation(u, 5), brute_correlation(u, 5), atol=1e-12)
    assert ref.circular_correlation(u, 1)[0] == pytest.approx(u @ u)


def test_cross_correlation_is_phi_transpose_y():
    u = np.array([0.3, -1.0, 2.0, 0.7, -0.4, 1.1])
    y = np.array([1.0, 0.0, -2.0, 0.5, 0.25, 3.0])
    assert np.allclose(ref.circular_cross_correlation(u, y, 3), brute_phi(u, 3).T @ y, atol=1e-12)
    assert np.allclose(ref.circulant_regressor(u, 3), brute_phi(u, 3))


def test_vertices_for_N4_n2():
    assert np.allclose(ref.vertex_correlations(4, 2, 2.0), [[2.0, 2.0], [2.0, 0.0], [2.0, -2.0]], atol=1e-12)


def test_kernel_matrices_for_n2():
    lam, rho, c = 0.8, 0.5, 2.0
    assert np.allclose(ref.kernel_matrix("TC", 2, {"c": c, "lam": lam}), c * np.array([[lam, lam**2], [lam**2, lam**2]]))
    off = c * lam**1.5 * rho
    assert np.allclose(ref.kernel_matrix("DC", 2, {"c": c, "lam": lam, "rho": rho}), [[c * lam, off], [off, c * lam**2]])
    assert np.allclose(ref.kernel_matrix("DI", 2, {"c": c, "lam": lam}), np.diag([c * lam, c * lam**2]))
    assert np.allclose(ref.kernel_matrix("Ridge", 2, {"c": c}), c * np.eye(2))


def test_criterion_values_closed_form_2x2():
    r, p_inv, s2 = np.array([3.0, 1.0]), np.array([[2.0, -0.5], [-0.5, 1.0]]), 0.5
    a, b, c = 3.0 + s2 * 2.0, 1.0 - s2 * 0.5, 3.0 + s2 * 1.0
    det = a * c - b * b
    lam_min = (a + c) / 2 - np.sqrt(((a - c) / 2) ** 2 + b * b)
    assert ref.criterion_value("D", r, p_inv, s2) == pytest.approx(2 * np.log(s2) - np.log(det))
    assert ref.criterion_value("A", r, p_inv, s2) == pytest.approx(s2 * (a + c) / det)
    assert ref.criterion_value("E", r, p_inv, s2) == pytest.approx(s2 / lam_min)
    assert ref.mse_measure("D", r, p_inv, s2) == pytest.approx(s2 / np.sqrt(det))


def test_criterion_values_n1():
    r, p_inv, s2 = np.array([4.0]), np.array([[0.5]]), 2.0
    q = 4.0 + s2 * 0.5
    assert ref.criterion_value("D", r, p_inv, s2) == pytest.approx(np.log(s2) - np.log(q))
    assert ref.criterion_value("A", r, p_inv, s2) == pytest.approx(s2 / q)
    assert ref.criterion_value("E", r, p_inv, s2) == pytest.approx(s2 / q)


@pytest.mark.parametrize("crit", ["D", "A"])
def test_smooth_gradient_matches_finite_differences(crit):
    p_inv = ref.precision(ref.kernel_matrix("DC", 3, {"c": 1.0, "lam": 0.8, "rho": 0.5}))
    r = np.array([1.0, 0.2, -0.1])
    g = ref.smooth_gradient(crit, r, p_inv, 0.5)
    h = 1e-6
    fd = [(ref.criterion_value(crit, r + h * e, p_inv, 0.5) - ref.criterion_value(crit, r - h * e, p_inv, 0.5)) / (2 * h)
          for e in np.eye(3)[1:]]
    assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_duality_gap_vanishes_at_the_brute_force_optimum():
    # n=2, N=4: the polytope is the segment r1 in [-E, E]; scan it finely.
    p_inv = ref.precision(ref.kernel_matrix("DC", 2, {"c": 1.0, "lam": 0.8, "rho": 0.6}))
    grid = np.linspace(-1.0, 1.0, 20001)
    values = [ref.criterion_value("D", np.array([1.0, x]), p_inv, 0.5) for x in grid]
    best = np.array([1.0, grid[int(np.argmin(values))]])
    assert ref.duality_gap("D", best, p_inv, 0.5, 4)[0] < 1e-4
    assert ref.duality_gap("D", np.array([1.0, 0.0]), p_inv, 0.5, 4)[0] > 1e-3


def impulse_design(crit, family="Ridge", params=None, N=5, n=3, energy=2.0, sigma2=0.5):
    """An impulse input: r = r_dagger, a = 1/N on every column of S."""
    params = params or {"c": 1.0}
    p_inv = ref.precision(ref.kernel_matrix(family, n, params))
    u = np.zeros(N)
    u[0] = np.sqrt(energy)
    r = np.zeros(n)
    r[0] = energy
    return {
        "criterion": crit, "n": n, "N": N, "energy": energy, "sigma2": sigma2, "p_inv": p_inv,
        "r": r, "a": np.full(N, 1.0 / N), "u": u, "value": ref.criterion_value(crit, r, p_inv, sigma2),
        "converged": True, "gap": 0.0, "gap_rel_tol": 1e-13,
        "white": ref.white_noise_correlations(np.random.default_rng(0), N, n, energy, 4),
    }


@pytest.mark.parametrize("crit", ["D", "A", "E"])
def test_check_design_accepts_the_impulse_for_a_diagonal_kernel(crit):
    assert ref.check_design(impulse_design(crit)) == []


def test_check_design_flags_each_fault():
    d = impulse_design("D")
    assert any("u'u" in p for p in ref.check_design({**d, "u": 2.0 * d["u"]}))
    assert any("value" in p for p in ref.check_design({**d, "value": d["value"] + 1e-3}))
    assert any("simplex" in p for p in ref.check_design({**d, "a": np.full(5, 0.3)}))
    coupled = impulse_design("D", "DC", {"c": 1.0, "lam": 0.8, "rho": 0.6})
    assert any("duality gap" in p for p in ref.check_design(coupled))
    assert ref.check_design({**coupled, "converged": False}) == []
    # a vertex design for a diagonal kernel is worse than r_dagger
    u = np.full(5, np.sqrt(2.0 / 5))
    r = ref.circular_correlation(u, 3)
    a = np.zeros(5)
    a[0] = 1.0
    vertex = {**d, "u": u, "r": r, "a": a, "value": ref.criterion_value("D", r, d["p_inv"], 0.5), "converged": False}
    assert any(p.startswith("worse than r_dagger") for p in ref.check_design(vertex))


def test_noise_variance_matches_the_projection():
    rng = np.random.default_rng(1)
    u, y = rng.standard_normal(9), rng.standard_normal(9)
    phi = brute_phi(u, 3)
    resid = y - phi @ np.linalg.solve(phi.T @ phi, phi.T @ y)
    assert ref.noise_variance(y, u, 3) == pytest.approx(resid @ resid / 6)


def test_rls_and_eb_small_forms_match_the_N_by_N_forms():
    rng = np.random.default_rng(2)
    u, y, s2 = rng.standard_normal(7), rng.standard_normal(7), 0.3
    P = ref.kernel_matrix("TC", 3, {"c": 2.0, "lam": 0.7})
    phi = brute_phi(u, 3)
    F = phi @ P @ phi.T + s2 * np.eye(7)
    theta, post = ref.rls_small(y, u, P, s2)
    assert np.allclose(theta, P @ phi.T @ np.linalg.solve(F, y))
    assert np.allclose(post, P - P @ phi.T @ np.linalg.solve(F, phi @ P))
    direct = y @ np.linalg.solve(F, y) + np.linalg.slogdet(F)[1]
    assert ref.eb_objective_small(y, u, P, s2) == pytest.approx(direct)


def test_eb_grid_sizes():
    assert len(ref.eb_grid_points("Ridge")) == 17
    assert len(ref.eb_grid_points("TC")) == 136
    assert len(ref.eb_grid_points("DC")) == 1224


def test_check_identification_compares_against_the_grid():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(40)
    y = brute_phi(u, 3) @ np.array([1.0, 0.5, 0.25]) + 0.1 * rng.standard_normal(40)
    s2 = ref.noise_variance(y, u, 3)
    grid = ref.eb_grid_points("TC")
    best = min(grid, key=lambda p: ref.eb_objective_small(y, u, ref.kernel_matrix("TC", 3, p), s2))
    worst = max(grid, key=lambda p: ref.eb_objective_small(y, u, ref.kernel_matrix("TC", 3, p), s2))
    for params, ok in ((best, True), (worst, False)):
        theta, post = ref.rls_small(y, u, ref.kernel_matrix("TC", 3, params), s2)
        ident = {"y": y, "u": u, "n": 3, "m": 3, "family": "TC", "params": params, "sigma2_raw": s2,
                 "sigma2": s2, "theta": theta, "posterior": post}
        assert (ref.check_identification(ident) == []) is ok
    bad = {**ident, "params": best, "theta": theta + 1.0}
    assert any("RLS estimate" in p for p in ref.check_identification(bad))
