"""One benchmark workload in its own process: set up, timed rounds, checks.

Run by run.py, which fixes the BLAS thread count and PYTHONPATH before this
process starts.  Prints information lines, then one JSON line with the
measured metrics for run.py to merge with its set-up probes.

A round is the workload's fixed set of operations (solve calls and
identifications).  Rounds repeat until --seconds have passed, at least once,
so every run attempts whole rounds and the share of failed operations is the
same in every run.  With --trace 1 one untraced round runs first as the
baseline of the tracing overhead, then spans are recorded around every public
function of optinput's layer modules for the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

WHITE_DRAWS = 64  # white-noise inputs per design, for mse_cut and the feasible-point check


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True, help="directory for run outputs and traces")
    return parser.parse_args(argv)


@contextlib.contextmanager
def recording(module, names, log):
    """Replace module.<name> by pass-through wrappers that log (name, arguments by name, result, seconds)."""
    saved = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t
            log.append((name, signature.bind(*args, **kwargs).arguments, out, dt))
            return out

        return recorded

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield log
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


@dataclass
class Op:
    """One operation of a round: a solve call or an identification."""

    op_id: str
    kind: str  # "solve" or "identify"
    seconds: float
    data: dict
    problems: list[str] = field(default_factory=list)
    known_fault: bool = False


def design_data(problem, sol, options) -> dict:
    return {
        "criterion": problem.criterion, "n": problem.n, "N": problem.N, "energy": problem.energy,
        "sigma2": problem.sigma2, "family": problem.kernel.family, "params": dict(problem.kernel.params),
        "r": sol.r, "a": sol.a, "u": sol.u.values, "value": sol.value,
        "converged": sol.certificate.converged, "gap": sol.certificate.gap,
        "iterations": sol.certificate.iterations, "gap_rel_tol": options.gap_rel_tol,
    }


class McTc:
    """The paper's two-stage session at the acceptance config, systems 0..3 of master seed 0."""

    systems = 4

    def __init__(self, seed: int, out: Path):
        from optinput import experiment

        self.experiment = experiment
        self.config = experiment.McConfig(
            systems=self.systems, n=20, N=50, energy=10.0, snr_range=(1.0, 10.0), kernel_family="TC",
            criteria=("D", "A", "E"), master_seed=0, output_dir=str(out / "mc_out"),
        )

    def run_round(self) -> list[Op]:
        log = []
        names = ("estimate_noise_variance", "fit_hyperparameters", "rls_estimate", "solve")
        with recording(self.experiment, names, log):
            summary = self.experiment.run_monte_carlo(self.config)
        ops, sid, ident, first_rls = [], -1, None, False
        for name, a, out, dt in log:
            if name == "estimate_noise_variance":
                sid += 1
                u = getattr(a["u"], "values", a["u"])
                m = a.get("m") or len(u) // 2
                ident = {"y": a["y"], "u": u, "m": m, "sigma2_raw": out, "seconds": dt}
            elif name == "fit_hyperparameters":
                ident.update(n=a["n"], sigma2=a["sigma2"], family=out.family, params=dict(out.params))
                ident["seconds"] += dt
                first_rls = True
            elif name == "rls_estimate":
                record = a["record"]
                est = {"y": record.y, "u": record.u.values, "n": ident["n"], "family": ident["family"],
                       "params": ident["params"], "sigma2": a["sigma2"], "theta": out.theta,
                       "posterior": out.posterior_cov.a}
                if first_rls:
                    first_rls = False
                    ident.update(theta=out.theta, posterior=out.posterior_cov.a)
                    ops.append(Op(f"mc-tc/system{sid}/identify", "identify", ident["seconds"] + dt, ident))
                else:
                    ops[-1].data["test_records"].append(est)
            else:
                problem = a["problem"]
                data = design_data(problem, out, a.get("options") or self.experiment.SolverOptions())
                data["test_records"] = []
                ops.append(Op(f"mc-tc/system{sid}/{problem.criterion}", "solve", dt, data))
        done = {op.op_id for op in ops}
        for fail in summary["failed_systems"]:
            for what in ("identify", *self.config.criteria):
                op_id = f"mc-tc/system{fail['system_id']}/{what}"
                if op_id not in done:
                    op = Op(op_id, "solve" if what != "identify" else "identify", 0.0, {})
                    op.problems.append(fail["error"])
                    ops.append(op)
        self.fits = summary["policies"]
        return ops


class DesignCoupling:
    """Standalone solves: DC kernels over a coupling grid, diagonal DI/Ridge kernels at r_dagger."""

    def __init__(self, seed: int, out: Path):
        import numpy as np
        import optinput
        from optinput import DesignProblem, KernelSpec, SolverOptions

        self.optinput, self.options = optinput, SolverOptions()
        n, sigma2, energy = 4, 0.5, 1.0
        cases = []
        for N in (4, 7, 8):
            for rho in (-0.6, 0.3, 0.9):
                cases.append((f"DC{rho:+.1f}-N{N}", KernelSpec("DC", n, {"c": 1.0, "lam": 0.8, "rho": rho}), N))
        cases.append(("Ridge-N4", KernelSpec("Ridge", n, {"c": 1.0}), 4))
        cases.append(("DI-N4", KernelSpec("DI", n, {"c": 1.0, "lam": 0.8}), 4))
        cases.append(("DI-N7", KernelSpec("DI", n, {"c": 1.0, "lam": 0.8}), 7))
        problems = [
            (f"design-coupling/{name}/{crit}", DesignProblem(spec, sigma2, n, N, energy, crit))
            for name, spec, N in cases
            for crit in ("D", "A", "E")
        ]
        order = np.random.default_rng(seed).permutation(len(problems))
        self.problems = [problems[i] for i in order]

    def run_round(self) -> list[Op]:
        ops = []
        for op_id, problem in self.problems:
            t = time.perf_counter()
            sol = self.optinput.solve(problem, self.options)
            dt = time.perf_counter() - t
            ops.append(Op(op_id, "solve", dt, design_data(problem, sol, self.options)))
        return ops


class IdentifyLong:
    """Noise variance, EB fit and RLS estimate from long white-noise records, no design."""

    records = (("TC", 30, 512), ("TC", 30, 512), ("TC", 50, 768), ("DC", 30, 256))

    def __init__(self, seed: int, out: Path):
        import numpy as np
        import optinput
        from optinput.experiment import generate_test_system, simulate_record

        self.optinput = optinput
        self.inputs = []
        for k, (family, n, N) in enumerate(self.records):
            rng = np.random.default_rng([seed, k])
            system = generate_test_system(int(rng.integers(2**31)), n)
            u = optinput.InputSequence.scaled_to_power(rng.standard_normal(N), float(N))
            record = simulate_record(system, u, snr=float(rng.uniform(1.0, 10.0)), seed=int(rng.integers(2**31)))
            self.inputs.append((f"identify-long/{family}-n{n}-N{N}-{k}", family, n, record))

    def run_round(self) -> list[Op]:
        ops = []
        for op_id, family, n, record in self.inputs:
            u = record.u.values
            t = time.perf_counter()
            lib = self.optinput
            sigma2 = lib.estimate_noise_variance(record.y, u, n)
            spec = lib.fit_hyperparameters(record.y, u, n, sigma2, family=family)
            est = lib.rls_estimate(record, lib.build_kernel(spec), sigma2)
            dt = time.perf_counter() - t
            data = {"y": record.y, "u": u, "n": n, "m": n, "family": family, "params": dict(spec.params),
                    "sigma2_raw": sigma2, "sigma2": sigma2, "theta": est.theta, "posterior": est.posterior_cov.a}
            ops.append(Op(op_id, "identify", dt, data))
        return ops


WORKLOADS = {"mc-tc": McTc, "design-coupling": DesignCoupling, "identify-long": IdentifyLong}


def check(ops: list[Op], seed: int) -> dict:
    """Run the reference checks on every operation; return per-design figures by op id."""
    import numpy as np

    import reference as ref

    figures = {}
    for op in ops:
        d = op.data
        if op.problems or not d:
            continue
        if op.kind == "identify":
            op.problems += ref.check_identification(d)
            continue
        p_inv = ref.precision(ref.kernel_matrix(d["family"], d["n"], d["params"]))
        # the same draws for the same problem in every round, so every round is checked alike
        rng = np.random.default_rng([seed, zlib.crc32(op.op_id.encode())])
        white = ref.white_noise_correlations(rng, d["N"], d["n"], d["energy"], WHITE_DRAWS)
        op.problems += ref.check_design({**d, "p_inv": p_inv, "white": white})
        for est in d.get("test_records", ()):
            op.problems += ref.check_rls(est)
        # the one known fault: E designs worse than a feasible point, and nothing else wrong
        op.known_fault = (d["criterion"] == "E" and bool(op.problems)
                          and all(p.startswith("worse than") for p in op.problems))
        crit = d["criterion"]
        m_white = np.mean([ref.mse_measure(crit, w, p_inv, d["sigma2"]) for w in white])
        fig = {"mse_cut_pct": 100.0 * (1.0 - ref.mse_measure(crit, d["r"], p_inv, d["sigma2"]) / m_white)}
        if crit in ("D", "A") and not d["converged"]:
            fig["gap_reported"] = d["gap"]
            fig["gap_at_r"] = ref.duality_gap(crit, d["r"], p_inv, d["sigma2"], d["N"])[0]
        figures[op.op_id] = fig
    return figures


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def info_metrics(ops: list[Op], figures: dict, workload: str, round_times: list[float]) -> dict:
    """Workload-specific figures, printed beside the JSON result."""
    info = {}
    if workload == "mc-tc":
        info["mc_system_s"] = (statistics.median(round_times) / McTc.systems, "s")
    for crit in ("D", "A", "E"):
        solves = [op for op in ops if op.kind == "solve" and op.data.get("criterion") == crit]
        if solves:
            info[f"design_{crit}_s"] = (mean(op.seconds for op in solves), "s")
            cuts = [figures[op.op_id]["mse_cut_pct"] for op in solves if op.op_id in figures]
            info[f"mse_cut_{crit}_pct"] = (mean(cuts), "%")
    idents = [op for op in ops if op.kind == "identify"]
    if idents:
        info["identify_s"] = (mean(op.seconds for op in idents), "s")
    return info


def per(count: int, base: int) -> float:
    return count / base if base else 0.0


def layer_metrics(tracer, ops: list[Op], round_times: list[float], untraced_round_s: float) -> dict:
    """Per-layer figures from the traced rounds' spans and solutions."""
    import numpy as np

    from tracer import LAYERS

    names, name_id, start, dur, parent, self_time = tracer.arrays()
    by_name = {name: name_id == i for i, name in enumerate(names)}
    empty = np.zeros(name_id.size, dtype=bool)

    def calls(name):
        return int(np.count_nonzero(by_name.get(name, empty)))

    def self_mean(name, scale):
        mask = by_name.get(name, empty)
        return float(self_time[mask].mean() * scale) if mask.any() else 0.0

    solves = [op for op in ops if op.kind == "solve" and op.data]
    n_solve = len(solves)
    n_ident = sum(op.kind == "identify" for op in ops)
    n_fit = calls("estimator.fit_hyperparameters")
    m = {}
    for crit in ("D", "A", "E"):
        mine = [op for op in solves if op.data["criterion"] == crit]
        m[f"solve_{crit}_ms"] = (self_mean(f"design_solver.solve[{crit}]", 1e3), "ms")
        m[f"iterations_{crit}"] = (mean(op.data["iterations"] for op in mine), "count")
        m[f"unconverged_{crit}"] = (sum(not op.data["converged"] for op in mine) / len(round_times), "count")
    m["eval_criterion_calls"] = (per(calls("design_solver.eval_criterion"), n_solve), "count")
    m["eval_criterion_us"] = (self_mean("design_solver.eval_criterion", 1e6), "us")
    m["gradient_in_r_calls"] = (per(calls("design_solver.gradient_in_r"), n_solve), "count")
    m["gradient_in_r_us"] = (self_mean("design_solver.gradient_in_r", 1e6), "us")
    m["q_of_r_us"] = (self_mean("design_solver.q_of_r", 1e6), "us")
    m["min_eigpair_calls"] = (per(calls("linalg.min_eigpair"), n_solve), "count")
    m["min_eigpair_us"] = (self_mean("linalg.min_eigpair", 1e6), "us")
    m["cholesky_calls"] = (per(calls("linalg.cholesky"), len(ops)), "count")
    m["cholesky_us"] = (self_mean("linalg.cholesky", 1e6), "us")
    m["solve_us"] = (self_mean("linalg.solve", 1e6), "us")
    m["inverse_us"] = (self_mean("linalg.inverse", 1e6), "us")
    m["build_kernel_calls"] = (per(calls("kernels.build_kernel"), n_ident), "count")
    m["build_kernel_us"] = (self_mean("kernels.build_kernel", 1e6), "us")
    m["kernel_inverse_us"] = (self_mean("kernels.kernel_inverse", 1e6), "us")
    m["vertices_us"] = (self_mean("design_map.vertices", 1e6), "us")
    m["recover_input_ms"] = (self_mean("design_map.recover_input", 1e3), "ms")
    m["circular_correlation_us"] = (self_mean("design_map.circular_correlation", 1e6), "us")
    m["fit_hyperparameters_ms"] = (self_mean("estimator.fit_hyperparameters", 1e3), "ms")
    m["eb_objective_calls"] = (per(calls("estimator.eb_objective"), n_fit), "count")
    m["eb_objective_us"] = (self_mean("estimator.eb_objective", 1e6), "us")
    rows = np.asarray(tracer.eb_rows, dtype=float)
    m["eb_objective_mb"] = (float(np.mean(rows * rows * 8.0) / 1e6) if rows.size else 0.0, "MB")
    m["rls_estimate_ms"] = (self_mean("estimator.rls_estimate", 1e3), "ms")
    m["estimate_noise_variance_ms"] = (self_mean("estimator.estimate_noise_variance", 1e3), "ms")
    m["generate_test_system_ms"] = (self_mean("experiment.generate_test_system", 1e3), "ms")
    m["simulate_record_ms"] = (self_mean("experiment.simulate_record", 1e3), "ms")
    m["run_single_system_self_ms"] = (self_mean("experiment.run_single_system", 1e3), "ms")
    m["trace_overhead_pct"] = (100.0 * (statistics.median(round_times) / untraced_round_s - 1.0), "%")
    # A span is outermost for its layer when no enclosing span belongs to that layer.
    layer_of_name = np.array([LAYERS.index(name.split(".")[0]) for name in names], dtype=np.int64)
    layer = layer_of_name[name_id] if name_id.size else np.zeros(0, dtype=np.int64)
    inside = np.zeros(name_id.size, dtype=np.int64)  # bit L set: an ancestor span is of layer L
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] | (1 << int(layer[p]))
    outermost = (inside >> layer) & 1 == 0
    total = sum(round_times)
    for k, name in enumerate(LAYERS):
        mine = layer == k
        m[f"self_pct_{name}"] = (100.0 * float(self_time[mine].sum()) / total, "%")
        m[f"incl_pct_{name}"] = (100.0 * float(dur[mine & outermost].sum()) / total, "%")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import optinput  # noqa: F401  (the import is part of set-up)

    workload = WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    args.out.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    untraced_round_s = None
    tracer = None
    if args.trace:
        t = time.perf_counter()
        ops += workload.run_round()
        untraced_round_s = time.perf_counter() - t
        tracer = Tracer()
        tracer.install()
    first_timed = len(ops)
    round_times = []
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        ops += workload.run_round()
        round_times.append(time.perf_counter() - t)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = check(ops, args.seed)
    failed = [op for op in ops if op.problems]
    unexpected = [op for op in failed if not op.known_fault]
    timed = ops[first_timed:]
    info = info_metrics(timed, figures, args.workload, round_times)
    for name, (value, unit) in info.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if args.workload == "mc-tc":
        for policy, stats in workload.fits.items():
            print(f"{args.workload} fit_{policy} {stats['mean']:.4f} % (mean over the slice)")
    listed = {}
    for op in failed:
        listed.setdefault(op.op_id, [op, 0])[1] += 1
    rounds = len(round_times) + bool(args.trace)
    for op_id, (op, times) in listed.items():
        kind = "known fault" if op.known_fault else "UNEXPECTED"
        print(f"FAILED {op_id} ({kind}, {times} of {rounds} rounds): {'; '.join(op.problems)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = layer_metrics(tracer, timed, round_times, untraced_round_s)
        tracer.save(args.out / f"{stem}.npz")
    else:
        metrics = {
            "round_s": (statistics.median(round_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "setup_s": setup_s,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "rounds": len(round_times), "round_times_s": round_times,
        "info": {name: value for name, (value, _) in info.items()}, "figures": figures,
        "op_seconds": [[op.op_id, op.seconds] for op in timed],
        "failed": [{"id": op.op_id, "known_fault": op.known_fault, "problems": op.problems} for op in failed],
        "result": result,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
