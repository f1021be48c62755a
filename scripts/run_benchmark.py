"""Run the Monte Carlo benchmark from the command line and print a summary table.

Desk-scale defaults match the shipped acceptance setup (50 systems, n=20,
N=50, energy 10, TC kernel, SNR uniform on [1, 10]); every knob is a flag.
"""

import argparse

from optinput.experiment import McConfig, run_monte_carlo


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems", type=int, default=50)
    parser.add_argument("--n", type=int, default=20, help="FIR order")
    parser.add_argument("--N", type=int, default=50, help="input period length")
    parser.add_argument("--energy", type=float, default=10.0)
    parser.add_argument("--snr-lo", type=float, default=1.0)
    parser.add_argument("--snr-hi", type=float, default=10.0)
    parser.add_argument("--family", default="TC", choices=("TC", "DC", "Ridge", "DI"))
    parser.add_argument("--criteria", default="D,A,E", help="comma-separated subset of D,A,E")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--outdir", default="mc_out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    config = McConfig(
        systems=args.systems,
        n=args.n,
        N=args.N,
        energy=args.energy,
        snr_range=(args.snr_lo, args.snr_hi),
        kernel_family=args.family,
        criteria=tuple(args.criteria.split(",")),
        master_seed=args.master_seed,
        output_dir=args.outdir,
    )
    summary = run_monte_carlo(config)

    header = f"{'policy':>8} {'mean':>8} {'median':>8} {'q1':>8} {'q3':>8} {'count':>6}"
    print(header)
    print("-" * len(header))
    for policy in ("W", *config.criteria):
        stats = summary["policies"].get(policy)
        if stats is None:
            continue
        print(
            f"{policy:>8} {stats['mean']:8.2f} {stats['median']:8.2f} "
            f"{stats['q1']:8.2f} {stats['q3']:8.2f} {stats['count']:6d}"
        )
    print()
    header = f"{'design':>8} {'converged':>10} {'unconverged':>12} {'mean steps':>11} {'worst gap':>10}"
    print(header)
    print("-" * len(header))
    for crit, designs in summary["designs"].items():
        print(
            f"{crit:>8} {designs['converged']:10d} {designs['unconverged']:12d} "
            f"{designs['mean_iterations']:11.1f} {designs['worst_gap']:10.3g}"
        )
    if summary["failed_systems"]:
        print(f"failed systems: {len(summary['failed_systems'])}")
    print(f"wrote {config.output_dir}/fits.csv and summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
