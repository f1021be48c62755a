import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_pd_matrix
from optinput import linalg
from optinput.linalg import (
    NotPositiveDefinite,
    SymMatrix,
    as_sym,
    cholesky,
    inverse,
    solve,
)


class TestSymMatrix:
    def test_stores_symmetrized_exactly(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert m.a[0, 1] == m.a[1, 0] == 1.0
        assert m.dim == 2

    def test_entries_are_write_protected(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SymMatrix(np.empty((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_as_sym_passthrough_and_coercion(self):
        m = SymMatrix(np.eye(3))
        assert as_sym(m) is m
        assert as_sym([[2.0, 0.0], [0.0, 2.0]]).dim == 2


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]), rtol=0, atol=1e-15)

    def test_reconstruction_on_design_matrix(self):
        # Q at the zero-correlation point for a DC kernel, sigma2 = 1, E = 1
        from optinput.design_solver import q_of_r
        from optinput.kernels import KernelSpec, dc_inverse

        p_inv = dc_inverse(KernelSpec("DC", 3, {"c": 1.0, "lam": 0.9, "rho": 0.5}))
        q = q_of_r([1.0, 0.0, 0.0], p_inv, 1.0)
        L = cholesky(q)
        scale = np.linalg.norm(q.a)
        assert np.max(np.abs(L @ L.T - q.a)) <= 1e-10 * scale

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_reconstruction_property(self, seed, dim):
        m = random_pd_matrix(np.random.default_rng(seed), dim)
        L = cholesky(m)
        assert np.linalg.norm(L @ L.T - m) <= 1e-10 * np.linalg.norm(m)
        assert np.allclose(L, np.tril(L))


class TestSolveInverse:
    def test_identity_returns_rhs(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(solve(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(solve(np.diag([2.0, 5.0]), [2.0, 5.0]), [1.0, 1.0], atol=1e-14)

    @given(st.integers(0, 10_000))
    def test_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = random_pd_matrix(rng, 4)
        b = rng.standard_normal(4)
        x = solve(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1e-300)

    @given(st.integers(0, 10_000), st.integers(1, 10))
    def test_inverse_times_matrix(self, seed, dim):
        m = random_pd_matrix(np.random.default_rng(seed), dim)
        assert np.max(np.abs(m @ inverse(m) - np.eye(dim))) <= 1e-9
