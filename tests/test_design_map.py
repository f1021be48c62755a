import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st

from oracles import build_S, build_W, weights_to_r
from optinput import design_map
from optinput.design_map import (
    InvalidWeights,
    check_weights,
    circular_correlation,
    recover_input,
    vertices,
)
from optinput.estimator import InputSequence, OrderTooLarge


def factors(u, n, rel_tol=1e-9):
    """circular_correlation(u, n) agrees with the dense factorization S h(W^T u) to rel_tol times the energy."""
    lhs = build_S(u.size, n) @ (build_W(u.size).T @ u) ** 2
    scale = max(float(u @ u), np.finfo(float).tiny)
    return np.max(np.abs(lhs - circular_correlation(u, n))) <= rel_tol * scale


class TestTrigVectors:
    def test_sampled_values(self):
        # columns 1 and 3 of W for N = 4 are the frequency-1 cosine and sine, scaled by sqrt(2/N)
        W = build_W(4) / np.sqrt(2.0 / 4)
        assert np.allclose(W[:, 1], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(W[:, 3], [0.0, 1.0, 0.0, -1.0], atol=1e-15)

    def test_cosine_mirror_symmetry(self):
        for N in (5, 8, 9):
            S = build_S(N, N)
            for j in range(1, N):
                assert np.allclose(S[:, j], S[:, N - j], atol=1e-12)


class TestQuadraticMap:
    def test_impulse(self):
        r = circular_correlation(np.array([2.0, 0.0, 0.0, 0.0]), 3)
        assert np.array_equal(r, [4.0, 0.0, 0.0])

    def test_small_example(self):
        assert np.array_equal(circular_correlation([1.0, 2.0, 3.0], 2), [14.0, 11.0])

    def test_constant_input_saturates_every_lag(self):
        r = circular_correlation(2.0 * np.ones(5), 4)
        assert np.allclose(r, 20.0 * np.ones(4), atol=1e-12)

    def test_matches_shifted_inner_products(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(9)
        r = circular_correlation(u, 5)
        for j in range(5):
            manual = sum(u[k] * u[(k - j) % 9] for k in range(9))
            assert r[j] == pytest.approx(manual, abs=1e-12)

    def test_accepts_input_sequence(self):
        u = InputSequence([1.0, 2.0], 5.0)
        assert circular_correlation(u.values, 1)[0] == u.energy == 5.0

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            circular_correlation(np.ones(3), 4)
        with pytest.raises(ValueError):
            circular_correlation(np.ones(3), 0)


class TestBasisMatrices:
    def test_w_smallest_case(self):
        assert np.allclose(build_W(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), atol=1e-15)

    def test_w_first_column_is_constant(self):
        for N in (3, 4, 7, 10):
            assert np.allclose(build_W(N)[:, 0], np.ones(N) / np.sqrt(N), atol=1e-14)

    @pytest.mark.parametrize("N", list(range(1, 33)) + [48, 63, 64])
    def test_w_orthogonality(self, N):
        W = build_W(N)
        assert np.max(np.abs(W.T @ W - np.eye(N))) <= 1e-12

    def test_s_rows(self):
        S = build_S(4, 3)
        assert np.allclose(S[0], [1, 1, 1, 1], atol=1e-15)
        assert np.allclose(S[1], [1, 0, -1, 0], atol=1e-15)
        assert np.allclose(S[2], [1, -1, 1, -1], atol=1e-15)

    def test_s_single_row_is_all_ones(self):
        assert np.allclose(build_S(7, 1), np.ones((1, 7)), atol=1e-15)

    @pytest.mark.parametrize(
        "N, n",
        [(6, 4), (6, 2), (8, 5), (8, 8), (5, 3), (5, 5), (7, 2), (12, 7), (13, 7), (9, 9)],
    )
    def test_s_rank(self, N, n):
        expected = min(N // 2 + 1, n) if N % 2 == 0 else min((N + 1) // 2, n)
        assert np.linalg.matrix_rank(build_S(N, n)) == expected

    def test_s_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            build_S(3, 4)


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_inputs_factor(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 40))
        n = int(rng.integers(1, N + 1))
        assert factors(rng.standard_normal(N) * rng.uniform(0.1, 10), n)

    def test_impulse_and_zero(self):
        assert factors(np.array([1.0, 0.0, 0.0, 0.0]), 3)
        assert factors(np.zeros(6), 4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_factorization_property(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 65))
        n = int(rng.integers(1, N + 1))
        assert factors(rng.standard_normal(N), n)


class TestVertices:
    def test_even_period(self):
        v = vertices(4, 2, 1.0)
        assert np.allclose(v, [[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]], atol=1e-15)

    def test_odd_period(self):
        v = vertices(3, 2, 1.0)
        assert np.allclose(v, [[1.0, 1.0], [1.0, -0.5]], atol=1e-12)

    def test_zero_lag_is_always_the_energy(self):
        v = vertices(9, 4, 2.5)
        assert v.shape == (5, 4)
        assert np.allclose(v[:, 0], 2.5, atol=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            vertices(4, 2, 0.0)
        with pytest.raises(OrderTooLarge):
            vertices(3, 5, 1.0)


class TestWeights:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidWeights):
            check_weights([0.5, 0.5], 3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidWeights):
            check_weights([1.2, -0.2], 2)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidWeights):
            check_weights([0.6, 0.6], 2)

    def test_clips_roundoff_negatives(self):
        a = check_weights([1.0 + 1e-12, -1e-12], 2)
        assert a[1] == 0.0

    def test_single_column_gives_constant_correlation(self):
        r = weights_to_r(np.eye(5)[0], 5, 3, 2.0)
        assert np.allclose(r, 2.0 * np.ones(3), atol=1e-12)

    def test_uniform_weights_give_white_correlation(self):
        r = weights_to_r(np.full(8, 0.125), 8, 4, 3.0)
        assert np.allclose(r, [3.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_two_column_mix(self):
        r = weights_to_r([0.5, 0.5, 0.0, 0.0], 4, 2, 1.0)
        assert np.allclose(r, [1.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_lag_equals_energy(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 30))
        a = rng.dirichlet(np.ones(N))
        r = weights_to_r(a, N, min(N, 5), 4.0)
        assert abs(r[0] - 4.0) <= 1e-10 * 4.0

    @pytest.mark.parametrize("seed", range(20))
    def test_correlation_of_real_input_is_in_the_hull(self, seed):
        # every achievable correlation must admit simplex weights
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 24))
        n = int(rng.integers(1, min(N, 8) + 1))
        u = InputSequence.scaled_to_power(rng.standard_normal(N), 3.0)
        r = circular_correlation(u.values, n)
        v = vertices(N, n, 3.0)
        A_eq = np.vstack([v.T, np.ones(v.shape[0])])
        b_eq = np.concatenate([r, [1.0]])
        res = scipy.optimize.linprog(np.zeros(v.shape[0]), A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
        assert res.status == 0
        assert np.max(np.abs(A_eq @ res.x - b_eq)) <= 1e-8

    @pytest.mark.parametrize("seed", range(200))
    def test_weighted_correlations_are_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 33))
        n = int(rng.integers(1, N + 1))
        r = weights_to_r(rng.dirichlet(np.ones(N)), N, n, 2.0)
        assert np.min(np.linalg.eigvalsh(scipy.linalg.toeplitz(r))) >= -1e-9 * 2.0


class TestRecoverInput:
    def test_single_column_gives_constant_input(self):
        u = recover_input(np.eye(6)[0], 3.0, 6)
        assert np.allclose(u.values, np.sqrt(3.0 / 6.0) * np.ones(6), atol=1e-12)

    def test_energy_is_exact(self):
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(9))
        u = recover_input(a, 7.0, 9)
        assert abs(float(u.values @ u.values) - 7.0) <= 1e-10 * 7.0

    @pytest.mark.parametrize("N", [6, 7])
    def test_roundtrip_through_the_map(self, N):
        rng = np.random.default_rng(N)
        for _ in range(25):
            a = rng.dirichlet(np.ones(N))
            u = recover_input(a, 2.0, N)
            want = weights_to_r(a, N, min(N, 4), 2.0)
            got = circular_correlation(u.values, want.size)
            assert np.max(np.abs(got - want)) <= 1e-8 * 2.0

    def test_sign_pattern_does_not_change_the_correlation(self):
        rng = np.random.default_rng(2)
        a = rng.dirichlet(np.ones(8))
        plain = recover_input(a, 5.0, 8)
        signs = np.where(rng.random(8) < 0.5, -1.0, 1.0)
        flipped = recover_input(a, 5.0, 8, sign_pattern=signs)
        n = 4
        assert np.allclose(
            circular_correlation(plain.values, n),
            circular_correlation(flipped.values, n),
            atol=1e-8 * 5.0,
        )

    @pytest.mark.parametrize("N", [1, 2, 7, 8, 50])
    def test_matches_the_dense_basis(self, N):
        # the inverse real DFT reproduces u = W (signs * sqrt(E a)) column by column
        rng = np.random.default_rng(100 + N)
        energy = 3.5
        for _ in range(10):
            a = rng.dirichlet(np.ones(N))
            signs = np.where(rng.random(N) < 0.5, -1.0, 1.0)
            u = recover_input(a, energy, N, sign_pattern=signs)
            expected = build_W(N) @ (signs * np.sqrt(energy * a))
            assert np.max(np.abs(u.values - expected)) <= 1e-12 * np.sqrt(energy)

    def test_random_signs_are_seeded(self):
        a = np.full(10, 0.1)
        u1 = recover_input(a, 1.0, 10, sign_pattern="random", seed=7)
        u2 = recover_input(a, 1.0, 10, sign_pattern="random", seed=7)
        u3 = recover_input(a, 1.0, 10, sign_pattern="random", seed=8)
        assert np.array_equal(u1.values, u2.values)
        assert not np.array_equal(u1.values, u3.values)

    def test_rejects_bad_sign_array(self):
        a = np.full(4, 0.25)
        with pytest.raises(ValueError):
            recover_input(a, 1.0, 4, sign_pattern=np.array([1.0, -1.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            recover_input(a, 1.0, 4, sign_pattern=np.ones(3))

    def test_long_period_check_stays_small(self):
        # the roundtrip check must not build the K x K cosine matrix, 134 MB at this N
        N = 8192
        a = np.random.default_rng(4).dirichlet(np.ones(N))
        tracemalloc.start()
        try:
            recover_input(a, 10.0, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_failed_roundtrip_raises(self, monkeypatch):
        a = np.random.default_rng(5).dirichlet(np.ones(9))
        exact = design_map.circular_correlation
        monkeypatch.setattr(design_map, "circular_correlation", lambda u, n: exact(u, n) + 1e-6)
        with pytest.raises(ArithmeticError):
            recover_input(a, 1.0, 9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 33))
        n = int(rng.integers(1, N + 1))
        energy = float(rng.uniform(0.5, 10.0))
        a = rng.dirichlet(np.ones(N))
        u = recover_input(a, energy, N, sign_pattern="random", seed=seed)
        want = weights_to_r(a, N, n, energy)
        assert np.max(np.abs(circular_correlation(u.values, n) - want)) <= 1e-8 * energy


def kernel_columns(N, n):
    """The columns of W that S h(W^T .) cannot see: the cosines at frequencies n..floor(N/2) and every sine."""
    W = build_W(N)
    # the sines are the last (N - 1) // 2 columns, frequency 1 last
    return [W[:, j] for j in range(n, N // 2 + 1)] + [W[:, N - f] for f in range(1, (N - 1) // 2 + 1)]


def cos_col(N, j):
    return np.cos(2.0 * np.pi * j * np.arange(N) / N)


def sin_col(N, j):
    return np.sin(2.0 * np.pi * j * np.arange(N) / N)


class TestNullspace:
    def test_smallest_case(self):
        basis = kernel_columns(4, 3)
        assert len(basis) == 1
        assert np.allclose(basis[0], np.sqrt(2.0 / 4) * sin_col(4, 1), atol=1e-15)

    def test_wide_case(self):
        basis = kernel_columns(8, 2)
        expected = [cos_col(8, 2), cos_col(8, 3), cos_col(8, 4) / np.sqrt(2.0)]
        expected += [sin_col(8, 1), sin_col(8, 2), sin_col(8, 3)]
        assert len(basis) == 6
        for got, want in zip(basis, expected):
            assert np.allclose(got, np.sqrt(2.0 / 8) * want, atol=1e-14)

    @pytest.mark.parametrize("N, n", [(4, 3), (8, 2), (9, 4), (12, 12), (7, 7), (16, 5)])
    def test_spans_the_kernel_of_s(self, N, n):
        S = build_S(N, n)
        basis = kernel_columns(N, n)
        assert len(basis) == N - np.linalg.matrix_rank(S)
        for v in basis:
            assert np.max(np.abs(S @ v)) <= 1e-10
        if basis:
            G = np.array([[a @ b for b in basis] for a in basis])
            off = G - np.diag(np.diag(G))
            assert np.max(np.abs(off)) <= 1e-10
