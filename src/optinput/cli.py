"""Command-line interface: design, estimate, verify, mc, basis.

Exit codes: 0 success, 1 invalid inputs, 2 solver finished without meeting its
convergence target (best iterate still written), 3 a verification claim failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, linalg
from .design_map import build_S, build_W, vertices
from .design_solver import DesignProblem, SolverOptions, solve
from .estimator import (
    DataRecord,
    OrderTooLarge,
    SearchFailure,
    SingularRegressor,
    estimate_noise_variance,
    fit_hyperparameters,
    rls_estimate,
)
from .kernels import InvalidHyperparameter, KernelSpec, build_kernel

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CLAIM_FAILED = 3

_INPUT_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    OSError,
    json.JSONDecodeError,
    OrderTooLarge,
    InvalidHyperparameter,
    SingularRegressor,
    SearchFailure,
    analysis.PreconditionViolated,
    linalg.NotPositiveDefinite,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our contract reserves 2 for
    # convergence warnings, so remap to the invalid-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str | None, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_design(args) -> int:
    spec = KernelSpec.from_json(_read_json(args.kernel))
    n = args.n if args.n is not None else spec.n
    problem = DesignProblem(
        kernel=spec,
        sigma2=args.sigma2,
        n=n,
        N=args.N,
        energy=args.energy,
        criterion=args.criterion,
    )
    options = SolverOptions(gap_rel_tol=args.tol, max_iter=args.max_iter)
    sign_pattern = "random" if args.signs == "random" else None
    sol = solve(problem, options=options, sign_pattern=sign_pattern, seed=args.seed)
    _write_json(args.out, sol.to_json())
    if not sol.certificate.converged:
        print("warning: convergence target not met; best iterate written", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_estimate(args) -> int:
    record = DataRecord.from_json(_read_json(args.data))
    n = args.n
    N = record.u.n_samples
    m = args.residual_order if args.residual_order is not None else min(N // 2, n)
    sigma2_hat = estimate_noise_variance(record.y, record.u.values, m)
    if sigma2_hat <= 0:
        sigma2_hat = float(np.finfo(float).tiny)
    spec = fit_hyperparameters(record.y, record.u.values, n, sigma2_hat, family=args.family)
    est = rls_estimate(record, build_kernel(spec), sigma2_hat)
    _write_json(
        args.out,
        {
            "sigma2_hat": sigma2_hat,
            "kernel_spec": spec.to_json(),
            "theta_rls": est.theta.tolist(),
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.claims.split(",") if args.claims else None
    try:
        verdicts = analysis.run_claims(names)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    all_hold = True
    for verdict in verdicts:
        print(json.dumps(verdict.to_json(), sort_keys=True))
        all_hold = all_hold and verdict.holds
    return EXIT_OK if all_hold else EXIT_CLAIM_FAILED


def cmd_mc(args) -> int:
    from .experiment import McConfig, run_monte_carlo

    config = McConfig.from_json(_read_json(args.config))
    summary = run_monte_carlo(config)
    for policy, stats in summary["policies"].items():
        print(f"{policy}: mean fit {stats['mean']:.2f} (n={stats['count']})")
    for crit, designs in summary["designs"].items():
        print(
            f"{crit} designs: {designs['converged']} converged, {designs['unconverged']} unconverged, "
            f"mean {designs['mean_iterations']:.1f} steps, worst gap {designs['worst_gap']:.3g}"
        )
    print(f"wrote {config.output_dir}/fits.csv and summary.json")
    return EXIT_OK


def cmd_basis(args) -> int:
    W = build_W(args.N)
    S = build_S(args.N, args.n)
    V = vertices(args.N, args.n, args.energy)
    _write_json(
        args.out,
        {
            "N": args.N,
            "n": args.n,
            "energy": args.energy,
            "W": W.tolist(),
            "S": S.tolist(),
            "vertices": V.tolist(),
            "orthogonality_error": float(np.max(np.abs(W.T @ W - np.eye(args.N)))),
        },
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optinput", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[], help="solve one input-design problem")
    p.add_argument("--kernel", required=True, help="kernel spec JSON file")
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="FIR order (default: kernel order)")
    p.add_argument("--N", type=int, required=True, help="input period length")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--criterion", choices=("D", "A", "E"), required=True)
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.add_argument("--signs", choices=("default", "random"), default="default")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=SolverOptions().gap_rel_tol)
    p.add_argument("--max-iter", type=int, default=SolverOptions().max_iter)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("estimate", help="fit noise variance, kernel, and FIR estimate")
    p.add_argument("--data", required=True, help="data record JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("TC", "DC", "Ridge", "DI"), default="TC")
    p.add_argument("--residual-order", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run the analytic claim checks")
    p.add_argument("--claims", default=None, help="comma-separated claim names (default: all)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mc", help="run the Monte Carlo benchmark from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("basis", help="emit W, S, and the polytope vertices as JSON")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--energy", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_basis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
