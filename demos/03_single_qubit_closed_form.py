"""The single-qubit control problem and its two parameter conventions.

With x-fields free and transverse fields at unit cost, the cost of
U = exp(-i x sx) exp(-i z sz) exp(-i y sx) depends only on z.  Two readings
of that formula coexist: under the halved-eigenvalue convention the answer
is (1/sqrt 2) min_m |z - 2 pi m|; under the standard-Pauli reading of the
same matrix it is sqrt(2) min_m |z - pi m|.  The halved parameter is twice
the standard one, so both describe the same matrix cost.
"""

import numpy as np

from cartancost import builtin_split, expm, optimal_cost, pauli_matrix, single_qubit_cost

split = builtin_split(1, "single_x")
sz = pauli_matrix("Z")

print(f"{'z':>8} {'closed form (z)':>16} {'pipeline exp(-izZ)':>20} {'closed form (2z)':>18}")
for z in np.linspace(0, np.pi, 9):
    closed = single_qubit_cost(z)
    pipeline = optimal_cost(expm(-1j * z * sz), split).cost
    mapped = single_qubit_cost(2 * z)
    print(f"{z:8.4f} {closed:16.8f} {pipeline:20.8f} {mapped:18.8f}")

print()
print("periodicity of the closed form: cost(z + 2 pi) == cost(z)")
for z in (0.3, 1.2, 2.9):
    print(f"  z={z}: {single_qubit_cost(z):.8f} vs "
          f"{single_qubit_cost(z + 2 * np.pi):.8f}")
