import json

import numpy as np
import pytest

from conftest import build_circulant_regressor
from optinput.cli import EXIT_CLAIM_FAILED, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main
from optinput.design_solver import DesignSolution
from optinput.estimator import DataRecord, InputSequence
from optinput.kernels import KernelSpec, build_kernel


@pytest.fixture
def ridge_file(tmp_path):
    path = tmp_path / "ridge.json"
    path.write_text(json.dumps(KernelSpec("Ridge", 3, {"c": 1.0}).to_json()))
    return str(path)


@pytest.fixture
def dc_file(tmp_path):
    spec = KernelSpec("DC", 3, {"c": 1.0, "lam": 0.9, "rho": 0.5})
    path = tmp_path / "dc.json"
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


def design_args(kernel_file, *extra):
    return [
        "design",
        "--kernel",
        kernel_file,
        "--sigma2",
        "1.0",
        "--N",
        "8",
        "--energy",
        "1.0",
        *extra,
    ]


class TestExitCodes:
    def test_contract(self):
        assert (EXIT_OK, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_CLAIM_FAILED) == (0, 1, 2, 3)

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_INPUT
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        capsys.readouterr()


class TestDesign:
    def test_ridge_outputs_the_zero_correlation_design(self, ridge_file, capsys):
        code = main(design_args(ridge_file, "--criterion", "D"))
        assert code == EXIT_OK
        sol = DesignSolution.from_json(json.loads(capsys.readouterr().out))
        assert np.max(np.abs(sol.r - [1.0, 0.0, 0.0])) <= 1e-6
        assert sol.criterion == "D"

    def test_writes_to_file(self, ridge_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(design_args(ridge_file, "--criterion", "A", "--out", str(out)))
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        sol = DesignSolution.from_json(json.loads(out.read_text()))
        assert np.max(np.abs(sol.r - [1.0, 0.0, 0.0])) <= 1e-6

    def test_e_criterion_writes_even_without_convergence(self, dc_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(design_args(dc_file, "--criterion", "E", "--out", str(out)))
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert out.exists()
        capsys.readouterr()

    def test_missing_sigma2(self, ridge_file, capsys):
        args = ["design", "--kernel", ridge_file, "--N", "8", "--energy", "1.0", "--criterion", "D"]
        assert main(args) == EXIT_INPUT
        capsys.readouterr()

    def test_missing_kernel_file(self, tmp_path, capsys):
        assert main(design_args(str(tmp_path / "absent.json"), "--criterion", "D")) == EXIT_INPUT
        capsys.readouterr()

    def test_malformed_kernel_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(design_args(str(path), "--criterion", "D")) == EXIT_INPUT
        capsys.readouterr()

    def test_order_mismatch(self, ridge_file, capsys):
        assert main(design_args(ridge_file, "--criterion", "D", "--n", "4")) == EXIT_INPUT
        capsys.readouterr()

    def test_rejects_a_negative_tolerance_and_budget(self, dc_file, capsys):
        args = design_args(dc_file, "--criterion", "E", "--tol", "-1", "--max-iter", "-1")
        assert main(args) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["energy", "sigma2"])
    def test_rejects_an_infinite_scalar(self, ridge_file, capsys, field):
        args = design_args(ridge_file, "--criterion", "D")
        args[args.index(f"--{field}") + 1] = "inf"
        assert main(args) == EXIT_INPUT
        assert f"error: {field} must be positive and finite" in capsys.readouterr().err

    def test_rejects_an_infinite_kernel_scale(self, tmp_path, capsys):
        path = tmp_path / "tc.json"
        path.write_text('{"family": "TC", "n": 3, "params": {"c": Infinity, "lam": 0.9}}')
        assert main(design_args(str(path), "--criterion", "D")) == EXIT_INPUT
        assert "error: TC requires 0 < c < inf" in capsys.readouterr().err

    def test_random_signs_are_seeded(self, dc_file, capsys):
        outs = []
        for seed in ("7", "7", "8"):
            args = design_args(dc_file, "--criterion", "D", "--signs", "random", "--seed", seed)
            assert main(args) == EXIT_OK
            outs.append(json.loads(capsys.readouterr().out))
        u0, u1, u2 = (np.array(o["u"]) for o in outs)
        assert np.array_equal(u0, u1)
        assert not np.array_equal(u0, u2)


class TestEstimate:
    def make_record_file(self, tmp_path, sigma2=1e-4):
        rng = np.random.default_rng(42)
        n, N = 12, 200
        spec = KernelSpec("TC", n, {"c": 1.0, "lam": 0.8})
        theta = np.linalg.cholesky(build_kernel(spec)) @ rng.standard_normal(n)
        u = InputSequence.scaled_to_power(rng.standard_normal(N), float(N))
        y = build_circulant_regressor(u, n) @ theta + rng.normal(0.0, np.sqrt(sigma2), N)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(DataRecord(u, y).to_json()))
        return str(path), theta

    def test_high_snr_recovery(self, tmp_path, capsys):
        data, theta = self.make_record_file(tmp_path)
        assert main(["estimate", "--data", data, "--n", "12"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["sigma2_hat"] > 0
        assert out["kernel_spec"]["family"] == "TC"
        got = np.array(out["theta_rls"])
        assert np.linalg.norm(got - theta) <= 0.05 * np.linalg.norm(theta)

    def test_length_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"u": [1.0, 2.0, 3.0], "y": [0.0, 0.0], "energy": 14.0}))
        assert main(["estimate", "--data", str(path), "--n", "2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_residual_order_guard(self, tmp_path, capsys):
        data, _ = self.make_record_file(tmp_path)
        args = ["estimate", "--data", data, "--n", "12", "--residual-order", "199"]
        assert main(args) == EXIT_INPUT
        capsys.readouterr()


class TestVerify:
    def test_single_claim(self, capsys):
        assert main(["verify", "--claims", "ridge"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        verdict = json.loads(lines[0])
        assert verdict["claim_id"] == "diagonal-kernel-zero-correlation-optimal"
        assert verdict["holds"] is True

    def test_full_default_set(self, capsys):
        from optinput.analysis import DEFAULT_CLAIMS

        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(DEFAULT_CLAIMS)
        assert all(json.loads(line)["holds"] for line in lines)

    def test_unknown_claim(self, capsys):
        assert main(["verify", "--claims", "ridge,bogus"]) == EXIT_INPUT
        assert "bogus" in capsys.readouterr().err


class TestMc:
    def test_small_benchmark(self, tmp_path, capsys):
        cfg = {
            "systems": 2,
            "n": 12,
            "N": 24,
            "energy": 6.0,
            "criteria": ["D"],
            "master_seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        assert main(["mc", "--config", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "W: mean fit" in printed and "D: mean fit" in printed
        assert (tmp_path / "out" / "fits.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_prints_design_counts(self, tmp_path, capsys):
        cfg = {"systems": 1, "n": 12, "N": 24, "energy": 6.0, "criteria": ["A", "E"], "master_seed": 3,
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        assert main(["mc", "--config", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for crit in ("A", "E"):
            line = next(line for line in lines if line.startswith(f"{crit} designs:"))
            steps = summary["designs"][crit]["mean_iterations"]
            assert line.startswith(f"{crit} designs: 1 converged, 0 unconverged, mean {steps:.1f} steps, worst gap ")
            float(line.rsplit(" ", 1)[1])

    def test_zero_systems(self, tmp_path, capsys):
        cfg = {"systems": 0, "n": 4, "N": 8, "energy": 1.0, "output_dir": str(tmp_path / "e")}
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        assert main(["mc", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"systems": 1, "n": 9, "N": 8, "energy": 1.0}))
        assert main(["mc", "--config", str(path)]) == EXIT_INPUT
        capsys.readouterr()

    def test_missing_config(self, tmp_path, capsys):
        assert main(["mc", "--config", str(tmp_path / "nope.json")]) == EXIT_INPUT
        capsys.readouterr()

