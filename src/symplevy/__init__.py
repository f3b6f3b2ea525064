"""Structure-preserving integrators for Hamiltonian systems with jump noise.

The package simulates canonical Hamiltonian systems driven by
multiplicative compound Poisson noise, where each jump acts through the
unit-time flow of an auxiliary ODE so that the phase-space geometry
survives the jumps. It provides:

* compound Poisson path sampling with exact interval increments
  (:mod:`symplevy.levy_path`),
* the model abstraction plus the Kubo oscillator and its closed-form
  solution as test oracle (:mod:`symplevy.hamiltonian`),
* the jump mapping as a numerically integrated flow
  (:mod:`symplevy.marcus`),
* a semi-implicit symplectic Euler scheme, an explicit Euler comparison
  scheme, and fixed-grid plus jump-adapted drivers
  (:mod:`symplevy.integrators`),
* error norms, order fits, energy series, and symplecticity diagnostics
  (:mod:`symplevy.analysis`),
* a CSV-producing command line harness (:mod:`symplevy.cli`, installed
  as ``symplevy``).
"""

from .analysis import (
    OrderFit,
    estimate_order,
    hamiltonian_series,
    ms_error,
    one_step_jacobian,
    reference_residual,
    symplectic_defect,
    write_order_fit_csv,
)
from .errors import (
    DivergenceError,
    DomainError,
    InvalidSpecError,
    NonConvergenceError,
    SymplevyError,
)
from .hamiltonian import (
    HamiltonianSystem,
    KuboParams,
    PhaseState,
    gradient_defect,
    hamiltonian_value,
    kubo_exact,
    kubo_system,
)
from .integrators import (
    DIVERGENCE_LIMIT,
    Trajectory,
    explicit_euler_step,
    integrate_fixed_grid,
    integrate_pathwise,
    integrate_pathwise_batch,
    symplectic_euler_step,
    write_trajectory_csv,
)
from .levy_path import (
    JumpEvent,
    LevyPath,
    LevyPathSpec,
    grid_increments,
    increment,
    jumps_in,
    read_path_csv,
    sample_path,
    write_path_csv,
)
from .marcus import DEFAULT_SUBSTEPS, jump_flow, kubo_jump_closed_form

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SymplevyError",
    "InvalidSpecError",
    "DomainError",
    "NonConvergenceError",
    "DivergenceError",
    "LevyPathSpec",
    "JumpEvent",
    "LevyPath",
    "sample_path",
    "increment",
    "jumps_in",
    "grid_increments",
    "write_path_csv",
    "read_path_csv",
    "PhaseState",
    "HamiltonianSystem",
    "KuboParams",
    "kubo_system",
    "kubo_exact",
    "hamiltonian_value",
    "gradient_defect",
    "jump_flow",
    "kubo_jump_closed_form",
    "DEFAULT_SUBSTEPS",
    "Trajectory",
    "symplectic_euler_step",
    "explicit_euler_step",
    "integrate_fixed_grid",
    "integrate_pathwise",
    "integrate_pathwise_batch",
    "write_trajectory_csv",
    "DIVERGENCE_LIMIT",
    "OrderFit",
    "ms_error",
    "estimate_order",
    "reference_residual",
    "hamiltonian_series",
    "one_step_jacobian",
    "symplectic_defect",
    "write_order_fit_csv",
]
