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
    logdet,
    min_eigpair,
    solve,
    trace_of_inverse,
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


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-14)

    def test_two_by_two(self):
        assert logdet([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(np.log(3.0), abs=1e-14)

    @given(st.integers(0, 10_000), st.integers(1, 10))
    def test_matches_cholesky_diagonal(self, seed, dim):
        m = random_pd_matrix(np.random.default_rng(seed), dim)
        expected = 2.0 * np.sum(np.log(np.diag(cholesky(m))))
        assert logdet(m) == expected


class TestTraceOfInverse:
    def test_identity(self):
        assert trace_of_inverse(np.eye(4)) == pytest.approx(4.0, abs=1e-12)

    def test_diagonal(self):
        assert trace_of_inverse(np.diag([2.0, 4.0])) == pytest.approx(0.75, abs=1e-14)

    def test_two_by_two(self):
        assert trace_of_inverse([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(4.0 / 3.0, abs=1e-14)


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


class TestMinEigpair:
    def test_diagonal(self):
        lam, v = min_eigpair(np.diag([1.0, 2.0, 3.0]))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-10)

    def test_degenerate_eigenspace(self):
        lam, v = min_eigpair(np.eye(2))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        lam, v = min_eigpair([[2.0, 1.0], [1.0, 2.0]])
        assert lam == pytest.approx(1.0, abs=1e-10)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.max(np.abs(v - expected)), np.max(np.abs(v + expected))) <= 1e-8

    def test_one_by_one(self):
        lam, v = min_eigpair([[-4.0]])
        assert lam == -4.0
        assert v[0] == 1.0

    def test_zero_matrix(self):
        lam, v = min_eigpair(np.zeros((3, 3)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_indefinite(self):
        lam, _ = min_eigpair(np.diag([3.0, -2.0, 5.0]))
        assert lam == pytest.approx(-2.0, abs=1e-10)

    def test_residual_bound_on_random_pd(self):
        # 100 random PD matrices, dims 1..20
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 21))
            m = random_pd_matrix(rng, dim)
            lam, v = min_eigpair(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * scale
            assert lam == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-9 * scale)

    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_matches_dense_eigensolver(self, seed, dim):
        a = np.random.default_rng(seed).standard_normal((dim, dim))
        m = (a + a.T) / 2.0
        lam, v = min_eigpair(m)
        scale = max(np.linalg.norm(m), 1e-300)
        assert lam == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-8 * scale)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * scale
