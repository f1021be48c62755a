"""Solve A and E designs on a grid at the TC kernel's lam cap and list the unconverged ones.

The empirical-Bayes fit caps TC's lam at 1 - 1e-6, where Q(r) is graded and
the Newton loop's edge cases show.  The grid crosses n in {3, 5, 12},
N in {n, n+1, 2n-2, 2n+1, 4n}, sigma2 in {1e-6, 1e-2, 1, 1e2} and
E in {0.1, 10, 1e3}: 336 problems.  For each design with converged=False the
script prints n, N, sigma2, E, the criterion, the Newton steps and the
relative gap, then the count.

    PYTHONPATH=src python scripts/edge_sweep.py
"""

from optinput.design_solver import DesignProblem, solve
from optinput.kernels import KernelSpec


def grid():
    for n in (3, 5, 12):
        for N in sorted({n, n + 1, 2 * n - 2, 2 * n + 1, 4 * n}):
            spec = KernelSpec("TC", n, {"c": 1.0, "lam": 1.0 - 1e-6})
            for sigma2 in (1e-6, 1e-2, 1.0, 1e2):
                for energy in (0.1, 10.0, 1e3):
                    for criterion in ("A", "E"):
                        yield DesignProblem(spec, sigma2, n, N, energy, criterion)


def main() -> int:
    problems = list(grid())
    unconverged = 0
    for p in problems:
        s = solve(p)
        if not s.certificate.converged:
            unconverged += 1
            print(f"n={p.n} N={p.N} sigma2={p.sigma2:g} E={p.energy:g} {p.criterion} "
                  f"steps={s.certificate.iterations} rel_gap={s.certificate.gap / abs(s.value):.2e}")
    print(f"{unconverged} of {len(problems)} designs unconverged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
