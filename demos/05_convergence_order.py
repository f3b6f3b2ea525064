"""Estimate the mean-square convergence order of the jump-adapted scheme.

Run from the repository root:

    python demos/05_convergence_order.py

The script integrates independent noisy paths at every step size as
the lanes of one ``integrate_pathwise_batch`` call, each lane at its
own step size, evaluates the closed-form solution at the end
time on the same paths, and fits a log-log line through each step
size's root-mean-square error. The demo uses a reduced batch so it
finishes in a few seconds; the CLI's converge command runs the
full-size study.
"""

import numpy as np

import symplevy as sl
from symplevy.cli import _cell_seed


def main():
    params = sl.KuboParams(alpha=0.1, beta=0.1)
    system = sl.kubo_system(params)
    start = sl.PhaseState([0.0], [1.0])
    T = 10.0
    samples = 40
    dts = [0.08, 0.04, 0.02, 0.01]

    # every (dt, sample) cell is one lane of a single batch, each lane at its own dt
    cells = [(i, j) for i in range(len(dts)) for j in range(samples)]
    paths = [
        sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=_cell_seed(0, i, j)), T)
        for i, j in cells
    ]
    trajs = sl.integrate_pathwise_batch(system, start, 0.0, T, paths, [dts[i] for i, _ in cells])
    diffs = np.empty((len(cells), 2))
    for c, (path, traj) in enumerate(zip(paths, trajs)):
        exact = sl.kubo_exact(params, start, T, sl.increment(path, 1, 0.0, T))
        diffs[c] = [traj.ps[-1, 0] - exact.p[0], traj.qs[-1, 0] - exact.q[0]]

    errors = []
    for i, dt in enumerate(dts):
        errors.append(sl.ms_error(diffs[i * samples : (i + 1) * samples]))
        print(f"dt = {dt:<6g} rms end-state error = {errors[-1]:.4e}")

    fit = sl.estimate_order(dts, errors)
    print(f"\nfitted order {fit.slope:.3f} (log-log residual {fit.residual:.3f})")
    print(f"distance to an exact half-order law: {sl.reference_residual(fit):.3f}")
    print("(full-size study: symplevy converge --svg)")


if __name__ == "__main__":
    main()
