"""Exact synthesis costs for Cartan control problems on multi-qubit unitaries.

The package computes the minimal cost of synthesizing a special unitary when
Hamiltonians in a distinguished subalgebra are (almost) free: the cost equals
the Euclidean distance from the eigenphase vector of the central KAK factor
to the nearest point of the sum-zero pi-lattice.  Alongside the analytic
answer it ships the numerical machinery to verify it: Cartan-split
validation, finite-difference checks of the penalty-metric block structure,
and a discretized optimal-control oracle for the small-penalty limit.

All types are immutable values and all operations are pure functions, so
everything here is safe to call from concurrent tasks without coordination.
"""

from .control import (
    SweepResult,
    epsilon_sweep,
    evolve,
    optimal_feasible_path,
    optimize_path,
    path_cost,
)
from .cost import (
    CostReport,
    InvarianceReport,
    cheap_invariance_check,
    optimal_cost,
    single_qubit_cost,
)
from .errors import ConvergenceFailure, NumericalFailure, PreconditionError
from .kak import KakFactors, canonicalize_phases, kak_decompose, reconstruct
from .lattice import closest_lattice_point, closest_lattice_point_bruteforce
from .linalg import (
    diag_symmetric_unitary,
    expm,
    frobenius_distance,
    haar_random_special_unitary,
    log_special_orthogonal,
    project_special,
)
from .metric import (
    CoordinateGram,
    GramStructureReport,
    PenaltyMetric,
    bch_matrix,
    bch_operator,
    pullback_gram,
    verify_gram_structure,
)
from .pauli import (
    CartanSplit,
    Hamiltonian,
    builtin_split,
    involution,
    pauli_matrix,
    pauli_strings,
    random_hamiltonian,
    trace_inner_product,
    verify_cartan_split,
)

__version__ = "0.1.0"
