import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_pd_matrix
from optinput.linalg import NotPositiveDefinite, SymMatrix, inverse


class TestSymMatrix:
    def test_stores_symmetrized_exactly(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert m.a[0, 1] == m.a[1, 0] == 1.0
        assert m.a.shape == (2, 2)

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


class TestSolveInverse:
    @given(st.integers(0, 10_000), st.integers(1, 10))
    def test_inverse_times_matrix(self, seed, dim):
        m = random_pd_matrix(np.random.default_rng(seed), dim)
        assert np.max(np.abs(m @ inverse(m) - np.eye(dim))) <= 1e-9

    def test_inverse_is_exactly_symmetric(self):
        m = random_pd_matrix(np.random.default_rng(3), 6)
        x = inverse(m)
        assert np.array_equal(x, x.T)

    def test_indefinite_has_no_inverse(self):
        with pytest.raises(NotPositiveDefinite):
            inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
