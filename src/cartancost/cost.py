"""The analytic optimal synthesis cost.

For a unitary with KAK factors exp(iL) exp(iZ) exp(iM) the minimal cost of
synthesizing it when l-directions are free is the Euclidean distance from
the canonical eigenphase vector of the central factor to the nearest point
of the sum-zero pi-lattice.  This equals the trace norm sqrt(tr(Z'^2)) of
the cheapest equivalent central generator Z'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kak import KakFactors, kak_decompose
from .lattice import closest_lattice_point
from .linalg import expm
from .pauli import CartanSplit, random_hamiltonian

__all__ = [
    "CostReport",
    "optimal_cost",
    "single_qubit_cost",
    "InvarianceReport",
    "cheap_invariance_check",
]


@dataclass(frozen=True, eq=False)
class CostReport:
    """Optimal cost together with the evidence that produced it.

    Invariant: ``cost**2 == sum(shifted_phases**2)`` with
    ``shifted_phases = eigenphases - pi * lattice_point``; ``certificate_gap
    = pi - (max - min)`` of them is >= 0, so the point is nearest (0: a tie).
    """

    cost: float
    eigenphases: np.ndarray
    lattice_point: np.ndarray
    shifted_phases: np.ndarray
    factors: KakFactors = field(repr=False)

    @property
    def certificate_gap(self) -> float:
        return float(np.pi - np.ptp(self.shifted_phases))


def optimal_cost(u, split: CartanSplit) -> CostReport:
    """Minimal synthesis cost of ``u`` under the given split.

    Uses the trace-norm convention with unnormalized Pauli strings
    (tr(P^2) = 2**n); a single-qubit exp(-i z sigma_z) therefore reports
    ``sqrt(2) * min_m |z - m pi|``.
    """
    factors = kak_decompose(u, split)
    phases = factors.phases
    point = closest_lattice_point(phases)
    shifted = phases - np.pi * point
    return CostReport(
        cost=float(np.linalg.norm(shifted)),
        eigenphases=phases,
        lattice_point=point,
        shifted_phases=shifted,
        factors=factors,
    )


def single_qubit_cost(z: float) -> float:
    """Closed-form single-qubit cost under the halved-eigenvalue convention.

    For a decomposition ``U = exp(-i x s_x) exp(-i z s_z) exp(-i y s_x)``
    where the middle generator is read with eigenvalues +-z/2, the cost is
    ``(1/sqrt(2)) * min_m |z - 2 pi m|`` — in particular |z|/sqrt(2) on
    [-pi, pi].  The outer angles x and y are free directions and do not
    enter, so only z is taken.  Kept independent of the KAK pipeline so the
    two can be checked against each other: the halved-eigenvalue parameter
    is twice the standard-Pauli one, so ``optimal_cost(expm(-1j*w*Z)) ==
    single_qubit_cost(2*w)`` exactly.
    """
    folded = z - 2.0 * np.pi * np.round(z / (2.0 * np.pi))
    return abs(folded) / np.sqrt(2.0)


@dataclass
class InvarianceReport:
    """Cost deviation under random free dressings exp(iK1) U exp(iK2)."""

    base_cost: float
    max_deviation: float
    samples: int
    ok: bool


_INVARIANCE_TOL = 1e-8  # largest accepted move of the cost under a free dressing


def cheap_invariance_check(
    u, split: CartanSplit, samples: int = 20, seed: int = 0
) -> InvarianceReport:
    """Verify that left/right multiplication by exp(i l-element) is free:
    the optimal cost must not move by more than 1e-8."""
    rng = np.random.default_rng(seed)
    base = optimal_cost(u, split).cost
    u = np.asarray(u, dtype=complex)
    worst = 0.0
    for _ in range(samples):
        k1 = random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.3, 2.5))
        k2 = random_hamiltonian(split.n, split.l_basis, rng, norm=rng.uniform(0.3, 2.5))
        dressed = expm(1j * k1.to_matrix()) @ u @ expm(1j * k2.to_matrix())
        worst = max(worst, abs(optimal_cost(dressed, split).cost - base))
    return InvarianceReport(base, worst, samples, worst <= _INVARIANCE_TOL)
