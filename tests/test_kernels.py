import numpy as np
import pytest
from hypothesis import given, strategies as st

from optinput.kernels import (
    FAMILIES,
    InvalidHyperparameter,
    KernelSpec,
    build_kernel,
    dc_inverse,
    kernel_inverse,
)


def dc_spec(c=1.0, lam=0.9, rho=0.5, n=4) -> KernelSpec:
    return KernelSpec("DC", n, {"c": c, "lam": lam, "rho": rho})


class TestKernelSpecValidation:
    def test_families_are_closed(self):
        assert set(FAMILIES) == {"Ridge", "Diagonal", "DI", "TC", "DC", "CustomInverse"}
        with pytest.raises(InvalidHyperparameter):
            KernelSpec("SS", 3, {})

    @pytest.mark.parametrize(
        "family,params",
        [
            ("Ridge", {"c": 0.0}),
            ("Ridge", {"c": -1.0}),
            ("Ridge", {}),
            ("Ridge", {"c": 1.0, "lam": 0.5}),
            ("Diagonal", {"lams": [1.0, 2.0]}),  # wrong length for n=3
            ("Diagonal", {"lams": [1.0, -2.0, 3.0]}),
            ("DI", {"c": 1.0, "lam": 0.0}),
            ("TC", {"c": 1.0, "lam": 0.0}),
            ("TC", {"c": 1.0, "lam": 1.5}),
            ("DC", {"c": 1.0, "lam": 0.9, "rho": 1.0}),
            ("DC", {"c": 1.0, "lam": 0.9, "rho": -1.0}),
            ("DC", {"c": 0.0, "lam": 0.9, "rho": 0.5}),
        ],
    )
    def test_rejects_bad_hyperparameters(self, family, params):
        with pytest.raises(InvalidHyperparameter):
            KernelSpec(family, 3, params)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidHyperparameter):
            KernelSpec("Ridge", 0, {"c": 1.0})

    def test_custom_inverse_must_be_pd(self):
        with pytest.raises(InvalidHyperparameter):
            KernelSpec("CustomInverse", 2, {"p_inv": [[1.0, 2.0], [2.0, 1.0]]})

    def test_custom_inverse_must_match_order(self):
        with pytest.raises(InvalidHyperparameter):
            KernelSpec("CustomInverse", 3, {"p_inv": np.eye(2)})

    def test_custom_inverse_is_stored_as_its_exact_average(self):
        m = np.array([[2.0, 0.3], [0.1, 2.0]])
        stored = KernelSpec("CustomInverse", 2, {"p_inv": m}).params["p_inv"]
        assert np.array_equal(stored, (m + m.T) / 2.0)

    @pytest.mark.parametrize(
        "n,p_inv",
        [
            (2, [[1.0, np.nan], [np.nan, 1.0]]),
            (2, np.ones((2, 3))),
            (1, np.empty((0, 0))),
        ],
        ids=("nan", "nonsquare", "empty"),
    )
    def test_custom_inverse_rejects_malformed_matrix(self, n, p_inv):
        with pytest.raises(InvalidHyperparameter):
            KernelSpec("CustomInverse", n, {"p_inv": p_inv})

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("Ridge", 3, {"c": 2.0}),
            KernelSpec("Diagonal", 3, {"lams": [2.0, 1.0, 0.5]}),
            KernelSpec("DI", 3, {"c": 2.0, "lam": 0.8}),
            KernelSpec("TC", 3, {"c": 2.0, "lam": 0.8}),
            dc_spec(n=3),
            KernelSpec("CustomInverse", 2, {"p_inv": [[2.0, 0.5], [0.5, 2.0]]}),
        ],
        ids=lambda s: s.family,
    )
    def test_json_roundtrip(self, spec):
        back = KernelSpec.from_json(spec.to_json())
        assert back.family == spec.family and back.n == spec.n
        assert np.allclose(build_kernel(back), build_kernel(spec), rtol=0, atol=0)


class TestBuildKernel:
    def test_ridge(self):
        assert np.array_equal(build_kernel(KernelSpec("Ridge", 3, {"c": 2.0})), 2.0 * np.eye(3))

    def test_diagonal(self):
        p = build_kernel(KernelSpec("Diagonal", 3, {"lams": [2.0, 1.0, 0.5]}))
        assert np.array_equal(p, np.diag([2.0, 1.0, 0.5]))

    def test_di_decay_starts_at_first_power(self):
        p = build_kernel(KernelSpec("DI", 3, {"c": 2.0, "lam": 0.5}))
        assert np.allclose(p, np.diag([1.0, 0.5, 0.25]), rtol=0, atol=1e-15)

    def test_tc_lambda_one_is_constant(self):
        p = build_kernel(KernelSpec("TC", 2, {"c": 1.0, "lam": 1.0}))
        assert np.array_equal(p, np.ones((2, 2)))

    def test_tc_entries(self):
        p = build_kernel(KernelSpec("TC", 3, {"c": 2.0, "lam": 0.5}))
        lam = 0.5
        expected = 2.0 * np.array(
            [[lam, lam**2, lam**3], [lam**2, lam**2, lam**3], [lam**3, lam**3, lam**3]]
        )
        assert np.allclose(p, expected, rtol=0, atol=1e-15)

    def test_dc_entries_by_hand(self):
        p = build_kernel(dc_spec(c=1.0, lam=0.81, rho=0.5, n=2))
        off = 0.81**1.5 * 0.5
        assert np.allclose(p, [[0.81, off], [off, 0.81**2]], rtol=0, atol=1e-15)

    def test_custom_inverse_builds_the_inverse(self):
        p_inv = np.array([[2.0, 0.5], [0.5, 2.0]])
        p = build_kernel(KernelSpec("CustomInverse", 2, {"p_inv": p_inv}))
        assert np.max(np.abs(p @ p_inv - np.eye(2))) <= 1e-12


class TestDcInverse:
    def test_identity_case(self):
        assert np.allclose(dc_inverse(dc_spec(1.0, 1.0, 0.0, n=2)), np.eye(2), rtol=0, atol=1e-15)

    def test_product_check(self):
        spec = dc_spec(c=2.0, lam=0.9, rho=0.4, n=5)
        prod = build_kernel(spec) @ dc_inverse(spec)
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-10

    def test_tc_is_dc_with_rho_sqrt_lam(self):
        tc = KernelSpec("TC", 3, {"c": 1.0, "lam": 0.64})
        dc = dc_spec(c=1.0, lam=0.64, rho=0.8, n=3)
        prod = dc_inverse(dc) @ build_kernel(tc)
        assert np.max(np.abs(prod - np.eye(3))) <= 1e-10

    def test_entries_match_closed_form(self):
        c, lam, rho, n = 2.0, 0.9, -0.6, 5
        a = dc_inverse(dc_spec(c, lam, rho, n)) * (c * (1.0 - rho**2))
        assert a[0, 0] == pytest.approx(1.0 / lam, abs=1e-15)
        assert a[n - 1, n - 1] == pytest.approx(1.0 / lam**n, rel=1e-15)
        for k in range(2, n):
            assert a[k - 1, k - 1] == pytest.approx((1.0 + rho**2) / lam**k, rel=1e-15)
        for k in range(1, n):
            assert a[k - 1, k] == pytest.approx(-rho / lam ** ((2 * k + 1) / 2.0), rel=1e-15)

    def test_tridiagonal_entries_exactly_zero(self):
        a = dc_inverse(dc_spec(n=8))
        for off in range(2, 8):
            assert np.all(np.diag(a, off) == 0.0)

    def test_requires_dc_and_order_two(self):
        with pytest.raises(InvalidHyperparameter):
            dc_inverse(KernelSpec("TC", 3, {"c": 1.0, "lam": 0.5}))
        with pytest.raises(InvalidHyperparameter):
            dc_inverse(dc_spec(n=1))

    @given(
        st.integers(2, 20),
        st.floats(0.1, 10.0),
        st.floats(0.3, 1.0),
        st.floats(-0.9, 0.9),
    )
    def test_product_property(self, n, c, lam, rho):
        # the closed form is exact; the verification product itself loses
        # digits for small lam (entries of P span lam**1..lam**n), hence the
        # lam >= 0.3 floor here
        spec = dc_spec(c, lam, rho, n)
        prod = build_kernel(spec) @ dc_inverse(spec)
        assert np.max(np.abs(prod - np.eye(n))) <= 1e-9

    def test_small_lambda_still_reasonable(self):
        spec = dc_spec(c=1.0, lam=0.1, rho=0.5, n=10)
        prod = build_kernel(spec) @ dc_inverse(spec)
        assert np.max(np.abs(prod - np.eye(10))) <= 1e-6


class TestKernelInverse:
    def test_ridge(self):
        p_inv = kernel_inverse(KernelSpec("Ridge", 2, {"c": 4.0}))
        assert np.array_equal(p_inv, 0.25 * np.eye(2))

    def test_diagonal(self):
        p_inv = kernel_inverse(KernelSpec("Diagonal", 3, {"lams": [1.0, 2.0, 4.0]}))
        assert np.allclose(p_inv, np.diag([1.0, 0.5, 0.25]), rtol=0, atol=1e-15)

    def test_custom_returns_stored_matrix(self):
        p_inv = np.array([[2.0, 0.5], [0.5, 2.0]])
        spec = KernelSpec("CustomInverse", 2, {"p_inv": p_inv})
        out = kernel_inverse(spec)
        assert out is spec.params["p_inv"]
        assert np.array_equal(out, p_inv)

    def test_custom_stored_matrix_is_read_only(self):
        spec = KernelSpec("CustomInverse", 2, {"p_inv": [[2.0, 0.5], [0.5, 2.0]]})
        with pytest.raises(ValueError):
            kernel_inverse(spec)[0, 0] = 5.0
        assert np.array_equal(spec.params["p_inv"], [[2.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("Ridge", 4, {"c": 3.0}),
            KernelSpec("Diagonal", 4, {"lams": [2.0, 1.0, 0.5, 0.25]}),
            KernelSpec("DI", 4, {"c": 2.0, "lam": 0.7}),
            KernelSpec("TC", 4, {"c": 2.0, "lam": 0.7}),
            KernelSpec("TC", 1, {"c": 2.0, "lam": 0.7}),
            dc_spec(n=4),
            dc_spec(rho=-0.5, n=4),
            dc_spec(n=1),
        ],
        ids=str,
    )
    def test_inverse_contract(self, spec):
        prod = build_kernel(spec) @ kernel_inverse(spec)
        assert np.max(np.abs(prod - np.eye(spec.n))) <= 1e-9

    def test_singular_kernel_has_no_inverse(self):
        # TC at lam = 1 is the all-ones matrix, rank 1 for n >= 2
        from optinput.linalg import NotPositiveDefinite

        with pytest.raises(NotPositiveDefinite):
            kernel_inverse(KernelSpec("TC", 4, {"c": 2.0, "lam": 1.0}))

    def test_counterexample_matrix_eigenvalues(self):
        p_inv = np.array([[1.0, 0.5, -0.125], [0.5, 1.0, -0.5], [-0.125, -0.5, 1.0]])
        spec = KernelSpec("CustomInverse", 3, {"p_inv": p_inv})
        eigs = np.linalg.eigvalsh(kernel_inverse(spec))
        assert np.allclose(eigs, [0.3526, 0.875, 1.7724], atol=5e-4)
        assert isinstance(kernel_inverse(spec), np.ndarray)
