import json

import numpy as np
import pytest

from optinput.analysis import (
    DEFAULT_CLAIMS,
    AnalyticVerdict,
    PreconditionViolated,
    asymptotic_white_noise_check,
    run_claims,
    verify_general_nondiagonal,
    verify_ridge_diagonal,
    verify_tridiagonal_signs,
)
from optinput.design_map import quadratic_map
from optinput.design_solver import DesignProblem, eval_criterion, q_of_r
from optinput.estimator import InputSequence
from optinput.kernels import KernelSpec, dc_inverse
from optinput import linalg


def dc_inverse_matrix(lam, rho, n):
    return dc_inverse(KernelSpec("DC", n, {"c": 1.0, "lam": lam, "rho": rho}))


class TestDefaultClaims:
    @pytest.mark.parametrize("name", sorted(DEFAULT_CLAIMS))
    def test_claim_holds(self, name):
        verdict = DEFAULT_CLAIMS[name]()
        assert isinstance(verdict, AnalyticVerdict)
        assert verdict.holds, verdict.witness

    def test_run_claims_selection(self):
        verdicts = run_claims(["ridge", "di"])
        assert len(verdicts) == 2
        assert all(v.holds for v in verdicts)

    def test_run_claims_default_covers_everything(self):
        assert len(run_claims()) == len(DEFAULT_CLAIMS)

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            run_claims(["ridge", "nonsense"])

    def test_verdicts_serialize(self):
        verdict = DEFAULT_CLAIMS["tc-moves-design"]()
        blob = json.dumps(verdict.to_json())
        back = json.loads(blob)
        assert back["claim_id"] == "nondiagonal-gradient-design-test"
        assert back["holds"] is True


class TestDiagonalFamilies:
    def test_wrong_family_rejected(self):
        spec = KernelSpec("TC", 3, {"c": 1.0, "lam": 0.8})
        with pytest.raises(PreconditionViolated):
            verify_ridge_diagonal(spec, N=8, sigma2=1.0, energy=1.0)

    def test_witness_reports_both_criteria(self):
        spec = KernelSpec("Ridge", 3, {"c": 2.0})
        verdict = verify_ridge_diagonal(spec, N=8, sigma2=1.0, energy=1.0)
        assert verdict.holds
        for crit in ("D", "A"):
            assert verdict.witness[crit]["max_abs_directional_derivative"] <= 1e-10
            assert verdict.witness[crit]["distance"] <= 1e-6


class TestTridiagonalSigns:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_posterior_sign_pattern(self, n, rho):
        # positive coupling gives a negative inverse off-diagonal, hence an
        # entrywise positive posterior; negative coupling checkerboards it
        p_inv = dc_inverse_matrix(0.9, rho, n)
        r_dag = np.r_[1.0, np.zeros(n - 1)]
        q_inv = linalg.inverse(q_of_r(r_dag, p_inv, 1.0))
        if rho > 0:
            assert np.all(q_inv > 0)
        else:
            i = np.arange(n)
            expected = (-1.0) ** np.abs(i[:, None] - i[None, :])
            assert np.all(q_inv * expected > 0)

    def test_report_only_case_is_not_asserted(self):
        # positive off-diagonal, odd period, n > 2: evaluated, not asserted
        verdict = verify_tridiagonal_signs(dc_inverse_matrix(0.9, -0.5, 3), N=7, sigma2=1.0, energy=1.0)
        assert verdict.witness["asserted"] is False
        assert verdict.holds == verdict.witness["sign_pattern_ok"]

    def test_asserted_case_reports_movement(self):
        verdict = verify_tridiagonal_signs(dc_inverse_matrix(0.9, 0.6, 4), N=9, sigma2=1.0, energy=1.0)
        assert verdict.holds
        for crit in ("D", "A"):
            assert not verdict.witness[crit]["stationary"]
            assert verdict.witness[crit]["improvement"] > 0

    def test_rejects_non_tridiagonal(self):
        m = np.eye(4) + 0.2 * np.ones((4, 4))
        with pytest.raises(PreconditionViolated):
            verify_tridiagonal_signs(m, N=8, sigma2=1.0, energy=1.0)

    def test_rejects_mixed_sign_offdiagonal(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 0.3
        m[1, 2] = m[2, 1] = -0.3
        with pytest.raises(PreconditionViolated):
            verify_tridiagonal_signs(m, N=8, sigma2=1.0, energy=1.0)

    def test_rejects_diagonal_matrix(self):
        with pytest.raises(PreconditionViolated):
            verify_tridiagonal_signs(np.eye(3), N=8, sigma2=1.0, energy=1.0)

    def test_rejects_scalar(self):
        with pytest.raises(PreconditionViolated):
            verify_tridiagonal_signs(np.array([[2.0]]), N=4, sigma2=1.0, energy=1.0)


class TestGeneralNondiagonal:
    def test_needs_interior_zero_correlation(self):
        spec = KernelSpec("TC", 4, {"c": 1.0, "lam": 0.8})
        with pytest.raises(PreconditionViolated):
            verify_general_nondiagonal(spec, N=5, sigma2=1.0, energy=1.0)

    def test_ridge_degenerates_to_stationarity(self):
        verdict = verify_general_nondiagonal(KernelSpec("Ridge", 3, {"c": 1.0}), N=8, sigma2=1.0, energy=1.0)
        assert verdict.holds
        for crit in ("D", "A"):
            assert not verdict.witness[crit]["nonzero"]

    def test_zero_traces_do_not_transfer_between_criteria(self):
        # the D-traces vanish (and the D-design stays put) while the A-design
        # still moves: a zero gradient for one criterion proves nothing for
        # the other
        p_inv = np.array([[1.0, 0.5, -0.125], [0.5, 1.0, -0.5], [-0.125, -0.5, 1.0]])
        spec = KernelSpec("CustomInverse", 3, {"p_inv": p_inv})
        verdict = verify_general_nondiagonal(spec, N=8, sigma2=1.0, energy=1.0, criteria=("D",))
        assert verdict.holds
        assert np.max(np.abs(verdict.witness["D"]["gradient_traces"])) <= 1e-12
        assert verdict.witness["A"]["nonzero"]
        assert verdict.witness["A"]["improvement"] > 0


class TestAsymptotics:
    def test_rows_structure_and_determinism(self):
        spec = KernelSpec("Ridge", 3, {"c": 1.0})
        rows = asymptotic_white_noise_check(spec, 1.0, 1.0, [8, 16], seeds=5)
        again = asymptotic_white_noise_check(spec, 1.0, 1.0, [8, 16], seeds=5)
        assert rows == again
        assert [row["N"] for row in rows] == [8, 16]
        for row in rows:
            assert set(row) == {"N", "median_gap", "mean_gap", "max_gap", "seeds"}
            assert row["median_gap"] > 0

    def test_gap_shrinks_with_period(self):
        spec = KernelSpec("Ridge", 5, {"c": 1.0})
        rows = asymptotic_white_noise_check(spec, 1.0, 1.0, [32, 256], seeds=50)
        assert rows[1]["median_gap"] < rows[0]["median_gap"]

    def test_impulse_input_has_exactly_zero_gap(self):
        spec = KernelSpec("Ridge", 3, {"c": 1.0})
        problem = DesignProblem(spec, 1.0, 3, 8, 4.0, "D")
        u = np.r_[2.0, np.zeros(7)]
        gap = eval_criterion(problem, quadratic_map(u, 3).r) - eval_criterion(problem, problem.r_dagger())
        assert gap == 0.0

    def test_constant_input_has_positive_gap(self):
        spec = KernelSpec("Ridge", 3, {"c": 1.0})
        problem = DesignProblem(spec, 1.0, 3, 9, 1.0, "D")
        u = InputSequence.scaled_to_power(np.ones(9), 1.0)
        gap = eval_criterion(problem, quadratic_map(u, 3).r) - eval_criterion(problem, problem.r_dagger())
        assert gap > 1e-6

    def test_rejects_nondiagonal_family(self):
        spec = KernelSpec("DC", 3, {"c": 1.0, "lam": 0.9, "rho": 0.4})
        with pytest.raises(PreconditionViolated):
            asymptotic_white_noise_check(spec, 1.0, 1.0, [8])

    def test_rejects_short_period(self):
        spec = KernelSpec("Ridge", 5, {"c": 1.0})
        with pytest.raises(PreconditionViolated):
            asymptotic_white_noise_check(spec, 1.0, 1.0, [4])
