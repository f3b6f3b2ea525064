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

# each module's __all__ is its public list, republished here
from . import analysis, errors, hamiltonian, integrators, levy_path, marcus
from .analysis import *
from .errors import *
from .hamiltonian import *
from .integrators import *
from .levy_path import *
from .marcus import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *levy_path.__all__, *hamiltonian.__all__,
           *marcus.__all__, *integrators.__all__, *analysis.__all__]
