"""Integrate one noisy oscillator path with both schemes and compare orbits.

Run from the repository root:

    python demos/03_orbit_comparison.py

The exact solution stays on the unit circle for every noise
realization. The semi-implicit scheme follows it on a thin annulus,
while the explicit scheme spirals outward because every step inflates
the radius by a factor sqrt(1 + a_j^2).
"""

import numpy as np

import symplevy as sl


def main():
    params = sl.KuboParams(alpha=0.1, beta=0.1)
    system = sl.kubo_system(params)
    start = sl.PhaseState([0.0], [1.0])
    T = 200.0
    dt = 0.08

    path = sl.sample_path(sl.LevyPathSpec(rate=5.0, mark_sigma=0.2, seed=0), T)
    print(f"shared noise path: {len(path.events)} jumps over [0, {T:g}]")

    sym = sl.integrate_fixed_grid(system, "symplectic", start, 0.0, T, path, dt)
    exp = sl.integrate_fixed_grid(system, "explicit", start, 0.0, T, path, dt)

    r_sym = np.hypot(sym.ps[:, 0], sym.qs[:, 0])
    r_exp = np.hypot(exp.ps[:, 0], exp.qs[:, 0])
    print(f"symplectic radius stays in [{r_sym.min():.4f}, {r_sym.max():.4f}]")
    print(f"explicit radius grows from 1 to {r_exp[-1]:.4f}")

    exact_end = sl.kubo_exact(params, start, T, sl.increment(path, 1, 0.0, T))
    end_sym = sym.final_state()
    end_exp = exp.final_state()
    err_sym = np.hypot(end_sym.p[0] - exact_end.p[0], end_sym.q[0] - exact_end.q[0])
    err_exp = np.hypot(end_exp.p[0] - exact_end.p[0], end_exp.q[0] - exact_end.q[0])
    print(f"end-state error vs the closed form: symplectic {err_sym:.3f}, explicit {err_exp:.3f}")

    out = "demo_out"
    import os

    os.makedirs(out, exist_ok=True)
    sl.write_trajectory_csv(sym, os.path.join(out, "orbit_symplectic.csv"))
    sl.write_trajectory_csv(exp, os.path.join(out, "orbit_explicit.csv"))
    print(f"wrote {out}/orbit_symplectic.csv and {out}/orbit_explicit.csv")
    print("(the CLI draws the same picture: symplevy orbit --svg)")


if __name__ == "__main__":
    main()
