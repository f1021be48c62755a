import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from optinput import experiment
from optinput.estimator import InputSequence, ls_estimate
from optinput.experiment import (
    DegenerateTruth,
    FitReport,
    McConfig,
    ZeroInput,
    empirical_snr,
    fit_metric,
    generate_test_system,
    noise_free_output,
    run_monte_carlo,
    run_single_system,
    simulate_record,
)
from optinput.experiment import TestSystem as FirSystem

TINY = dict(n=12, N=24, energy=6.0, criteria=("D",), master_seed=3)


def _lfilter_draw(rng, order, horizon):
    """The draw with its impulse response from scipy.signal.lfilter: the oracle."""
    n_pairs, n_real = divmod(order, 2)
    mags = rng.uniform(0.4, 0.95, n_pairs)
    angs = rng.uniform(0.0, np.pi, n_pairs)
    poles = mags * np.exp(1j * angs)
    poles = np.concatenate([poles, poles.conj()])
    if n_real:
        poles = np.append(poles, rng.uniform(0.4, 0.95) * rng.choice([-1.0, 1.0]))
    nz = order - 1
    z_pairs, z_real = divmod(nz, 2)
    zmags = rng.uniform(0.0, 1.2, z_pairs)
    zangs = rng.uniform(0.0, np.pi, z_pairs)
    zeros = zmags * np.exp(1j * zangs)
    zeros = np.concatenate([zeros, zeros.conj()])
    if z_real:
        zeros = np.append(zeros, rng.uniform(-1.2, 1.2))
    b = np.real(np.poly(zeros))
    a = np.real(np.poly(poles))
    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    return scipy.signal.lfilter(b, a, impulse), poles


class TestGenerateSystem:
    def test_deterministic_per_seed(self):
        a = generate_test_system(7, 12)
        b = generate_test_system(7, 12)
        assert np.array_equal(a.impulse_response, b.impulse_response)

    def test_different_seeds_differ(self):
        a = generate_test_system(0, 12)
        b = generate_test_system(1, 12)
        assert not np.array_equal(a.impulse_response, b.impulse_response)

    @pytest.mark.parametrize("seed", range(10))
    def test_truncation_and_normalization(self, seed):
        sys_ = generate_test_system(seed, 12)
        g = sys_.impulse_response
        assert sys_.order == 12
        assert np.all(np.isfinite(g))
        # responses are unit-normalized before truncating a <= 5% tail
        assert 0.95 <= np.linalg.norm(g) <= 1.0 + 1e-12
        assert np.linalg.norm(g - g.mean()) > 1e-8

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            generate_test_system(0, 0)

    def test_rejects_a_system_order_below_one(self):
        with pytest.raises(ValueError):
            generate_test_system(0, 12, order=0)

    def test_rejects_a_horizon_shorter_than_n(self):
        with pytest.raises(ValueError, match="horizon"):
            generate_test_system(0, 20, horizon=10)
        assert generate_test_system(0, 12, horizon=12).order == 12

    # the generator's own random poles only: repeated poles such as
    # np.poly(np.full(30, 0.5)) make the recurrence so ill-conditioned that
    # any two summation orders differ by O(0.1)
    @pytest.mark.parametrize("order", [1, 2, 3, 30])
    @pytest.mark.parametrize("horizon", [1, 2, 31, 512])
    def test_candidate_matches_the_lfilter_oracle(self, order, horizon):
        # horizon 1 and 2 cut a band wider than the record
        for seed in range(5):
            g, poles = experiment._draw_candidate(np.random.default_rng(seed), order, horizon)
            g_ref, poles_ref = _lfilter_draw(np.random.default_rng(seed), order, horizon)
            assert g.shape == (horizon,)
            assert np.array_equal(poles, poles_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-9 * np.max(np.abs(g_ref))

    def test_systems_match_the_lfilter_oracle(self, monkeypatch):
        ours = {(seed, n): generate_test_system(seed, n).impulse_response
                for seed in range(50) for n in (12, 20, 30, 50)}
        monkeypatch.setattr(experiment, "_draw_candidate", _lfilter_draw)
        for (seed, n), g in ours.items():
            # same accepted candidate, so the same length and taps
            g_ref = generate_test_system(seed, n).impulse_response
            assert g.shape == g_ref.shape == (n,)
            assert np.max(np.abs(g - g_ref)) <= 1e-9

    def test_inadmissible_truncation_exhausts_the_draw_budget(self):
        # almost no 30th order response fits into 6 taps
        with pytest.raises(RuntimeError):
            generate_test_system(0, 6, max_attempts=40)

    def test_system_validation(self):
        with pytest.raises(ValueError):
            FirSystem(np.zeros((2, 2)))


def test_importing_optinput_does_not_load_scipy_signal():
    code = ("import optinput, optinput.experiment, optinput.cli, sys; "
            "assert 'scipy.signal' not in sys.modules")
    # a fresh interpreter that imports this same optinput package
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestNoiseFreeOutput:
    def test_matches_rolled_superposition(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(5)
        u = InputSequence.scaled_to_power(rng.standard_normal(11), 11.0)
        y0 = noise_free_output(FirSystem(g), u)
        manual = sum(g[i] * np.roll(u.values, i) for i in range(5))
        assert np.max(np.abs(y0 - manual)) <= 1e-12


class TestSimulateRecord:
    def setup_method(self):
        self.system = generate_test_system(5, 12)
        rng = np.random.default_rng(0)
        self.u = InputSequence.scaled_to_power(rng.standard_normal(24), 24.0)

    def test_exactly_one_noise_argument(self):
        with pytest.raises(ValueError):
            simulate_record(self.system, self.u)
        with pytest.raises(ValueError):
            simulate_record(self.system, self.u, snr=2.0, sigma2=1.0)

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            simulate_record(self.system, self.u, snr=0.0)
        with pytest.raises(ValueError):
            simulate_record(self.system, self.u, sigma2=-1.0)

    def test_constant_input_has_no_signal(self):
        u = InputSequence(np.ones(24) * 0.5, 6.0)
        with pytest.raises(ZeroInput):
            simulate_record(self.system, u, snr=2.0)

    def test_near_noiseless_ls_recovery(self):
        rec = simulate_record(self.system, self.u, sigma2=1e-12, seed=1)
        est = ls_estimate(rec, 12)
        assert np.max(np.abs(est.theta - self.system.impulse_response)) <= 1e-4

    def test_same_seed_same_noise(self):
        a = simulate_record(self.system, self.u, snr=3.0, seed=9)
        b = simulate_record(self.system, self.u, snr=3.0, seed=9)
        assert np.array_equal(a.y, b.y)

    def test_requested_snr_is_met_exactly(self):
        rec = simulate_record(self.system, self.u, snr=4.0, seed=2)
        assert empirical_snr(self.system, rec) == pytest.approx(4.0, rel=1e-12)

    def test_replicate_variance_recovers_the_snr(self):
        # sample-variance oracle: a thousand replicates estimate the SNR
        recs = [simulate_record(self.system, self.u, snr=4.0, seed=k) for k in range(1000)]
        sigma2 = recs[0].sigma2
        var_est = np.mean([np.var(r.y) for r in recs]) - sigma2
        assert var_est / sigma2 == pytest.approx(4.0, rel=0.1)


class TestFitMetric:
    def test_perfect_fit(self):
        theta = np.array([1.0, -2.0, 0.5])
        assert fit_metric(theta, theta) == 100.0

    def test_mean_predictor_scores_zero(self):
        theta = np.array([1.0, -2.0, 0.5])
        assert fit_metric(np.full(3, theta.mean()), theta) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_predictor_scores_zero(self):
        theta = np.array([1.0, -2.0, 0.5])
        mirrored = 2.0 * theta - theta.mean()
        assert fit_metric(mirrored, theta) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_truth(self):
        with pytest.raises(DegenerateTruth):
            fit_metric(np.zeros(3), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_metric(np.zeros(3), np.ones(4))


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(systems=-1, n=4, N=8, energy=1.0)
        with pytest.raises(ValueError):
            McConfig(systems=1, n=9, N=8, energy=1.0)
        with pytest.raises(ValueError):
            McConfig(systems=1, n=4, N=8, energy=0.0)
        with pytest.raises(ValueError):
            McConfig(systems=1, n=4, N=8, energy=1.0, snr_range=(0.0, 2.0))
        with pytest.raises(ValueError):
            McConfig(systems=1, n=4, N=8, energy=1.0, snr_range=(3.0, 2.0))
        with pytest.raises(ValueError):
            McConfig(systems=1, n=4, N=8, energy=1.0, criteria=("D", "Z"))

    @pytest.mark.parametrize("field", [{"gap_rel_tol": -1.0}, {"max_iter": -1}, {"system_order": 0}], ids=str)
    def test_from_json_rejects_a_bad_field(self, field):
        with pytest.raises(ValueError):
            McConfig.from_json({"systems": 1, "n": 4, "N": 8, "energy": 1.0, **field})

    def test_json_roundtrip(self):
        cfg = McConfig(systems=3, n=4, N=8, energy=2.0, criteria=("A", "E"), master_seed=11)
        back = McConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_solver_options_mapping(self):
        cfg = McConfig(systems=1, n=4, N=8, energy=1.0, gap_rel_tol=1e-9, max_iter=77)
        opts = cfg.solver_options()
        assert opts.gap_rel_tol == 1e-9
        assert opts.max_iter == 77


class TestRunSingleSystem:
    def test_deterministic_and_ordered(self):
        cfg = McConfig(systems=1, **TINY)
        seq = np.random.SeedSequence(3).spawn(1)[0]
        reps = run_single_system(cfg, 0, seq)
        again = run_single_system(cfg, 0, np.random.SeedSequence(3).spawn(1)[0])
        assert reps == again
        assert [r.policy for r in reps] == ["W", "D"]
        assert all(isinstance(r, FitReport) for r in reps)

    def test_fits_are_bounded_and_snr_in_range(self):
        cfg = McConfig(systems=1, **TINY)
        reps = run_single_system(cfg, 0, np.random.SeedSequence(3).spawn(1)[0])
        lo, hi = cfg.snr_range
        assert lo <= reps[0].snr <= hi
        for r in reps:
            assert r.fit <= 100.0


class TestRunMonteCarlo:
    def test_small_run_outputs(self, tmp_path):
        cfg = McConfig(systems=3, output_dir=str(tmp_path / "out"), **TINY)
        summary = run_monte_carlo(cfg)
        lines = (tmp_path / "out" / "fits.csv").read_text().strip().splitlines()
        assert lines[0] == "system_id,policy,fit,snr,seed"
        assert len(lines) == 1 + 3 * 2  # W + one criterion per system
        assert summary["failed_systems"] == []
        assert set(summary["policies"]) == {"W", "D"}
        for stats in summary["policies"].values():
            assert set(stats) == {"mean", "median", "q1", "q3", "count"}
            assert stats["count"] == 3
        assert summary["designs"]["D"]["converged"] == 3
        assert summary["designs"]["D"]["unconverged"] == 0
        on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert on_disk == summary

    def test_unconverged_designs_are_counted(self, tmp_path, caplog):
        cfg = McConfig(systems=2, output_dir=str(tmp_path / "cap"), max_iter=1, **TINY)
        with caplog.at_level("WARNING", logger="optinput.experiment"):
            summary = run_monte_carlo(cfg)
        designs = summary["designs"]["D"]
        assert designs["unconverged"] == 2 and designs["converged"] == 0
        assert designs["worst_gap"] > 0.0
        assert designs["mean_iterations"] == 1.0  # each design stopped at its one-step budget
        assert sum("unconverged" in rec.getMessage() for rec in caplog.records) == 2
        lines = (tmp_path / "cap" / "fits.csv").read_text().strip().splitlines()
        assert lines[0] == "system_id,policy,fit,snr,seed"
        assert len(lines) == 1 + 2 * 2 and all(line.count(",") == 4 for line in lines)

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = McConfig(systems=3, output_dir=str(tmp_path / "a"), **TINY)
        cfg2 = McConfig(systems=3, output_dir=str(tmp_path / "b"), **TINY)
        s1, s2 = run_monte_carlo(cfg1), run_monte_carlo(cfg2)
        assert (tmp_path / "a" / "fits.csv").read_bytes() == (tmp_path / "b" / "fits.csv").read_bytes()
        s1["config"].pop("output_dir")
        s2["config"].pop("output_dir")
        assert s1 == s2

    def test_zero_systems_exit_cleanly(self, tmp_path):
        cfg = McConfig(systems=0, n=4, N=8, energy=1.0, output_dir=str(tmp_path / "empty"))
        summary = run_monte_carlo(cfg)
        assert summary["policies"] == {}
        assert (tmp_path / "empty" / "fits.csv").read_text() == "system_id,policy,fit,snr,seed\n"

    def test_failed_systems_are_logged_not_raised(self, tmp_path):
        # 6-tap truncations reject every candidate, so each system fails
        cfg = McConfig(systems=2, n=6, N=12, energy=1.0, output_dir=str(tmp_path / "fail"), master_seed=0)
        summary = run_monte_carlo(cfg)
        assert len(summary["failed_systems"]) == 2
        assert all("RuntimeError" in f["error"] for f in summary["failed_systems"])
        assert summary["policies"] == {}


class TestDesignedSnrAdvantage:
    def test_median_designed_snr_is_not_below_white(self):
        # designed inputs concentrate power where the system responds, so
        # at matched noise variance their records carry more signal
        cfg = McConfig(systems=10, n=12, N=24, energy=6.0, criteria=("D", "A"), master_seed=3)
        children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.systems)
        white, designed = [], []
        for sid in range(cfg.systems):
            reps = run_single_system(cfg, sid, children[sid])
            white.append(reps[0].snr)
            designed.extend(r.snr for r in reps[1:])
        assert np.median(designed) >= np.median(white)
