"""KAK-decompose a two-qubit gate and put it back together.

Every special unitary factors as exp(iL) exp(iZ) exp(iM) with L, M in the
free subalgebra and Z in the maximal commuting subspace of its complement.
Here we decompose a CNOT (after projecting out its global phase), inspect
the factors, and check the reconstruction.
"""

import numpy as np

from cartancost import (
    builtin_split,
    frobenius_distance,
    kak_decompose,
    project_special,
    reconstruct,
)
from cartancost.serialize import coefficients_to_json

cnot = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
split = builtin_split(2, "two_local")

factors = kak_decompose(cnot, split)
print("removed global phase:", factors.removed_phase)
# each leg is a coefficient row over pauli_strings(2); print its nonzero terms
for name, row in (("L", factors.l), ("Z", factors.z), ("M", factors.m)):
    print(f"{name} coefficients:", {s: round(c, 6) for s, c in coefficients_to_json(row).items()})
print("eigenphases of the central factor:", np.round(factors.phases, 6))

rebuilt = reconstruct(factors)
target, _ = project_special(cnot)
print("reconstruction residual:", frobenius_distance(rebuilt, target))

# the adapted-frame factors are real orthogonal around a diagonal core
print("max |Im A|:", np.abs(factors.a.imag).max() if np.iscomplexobj(factors.a) else 0.0)
print("A^T A - I:", np.linalg.norm(factors.a.T @ factors.a - np.eye(4)))
print("det D:", np.linalg.det(factors.d))
