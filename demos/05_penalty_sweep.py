"""Watch the control oracle converge to the analytic cost as eps -> 0.

A piecewise-constant path optimizer works the synthesis problem at a few
penalty weights.  The numeric optimum is sandwiched between the analytic
lattice cost and the explicit polar feasible path exp(ia) exp(ib), with a
free and |b| the lattice cost, whose excess is sqrt(eps) |a|; the relative
error shrinks with eps.

Takes a second or two.
"""

import numpy as np

from cartancost import builtin_split, epsilon_sweep, expm, pauli_matrix

split = builtin_split(1, "single_x")
sx, sz = pauli_matrix("X"), pauli_matrix("Z")
target = expm(-1j * 0.25 * sx) @ expm(-1j * 0.9 * sz) @ expm(-1j * 0.3 * sx)

sweep = epsilon_sweep(target, split, [1e-1, 1e-2, 1e-3], segments=3, restarts=1, seed=0)

print(f"analytic cost: {sweep.analytic_cost:.8f}")
print(f"{'eps':>8} {'numeric':>12} {'feasible':>12} {'rel error':>12} {'endpoint':>10}")
for e, c, f, r in zip(
    sweep.epsilon_values, sweep.numeric_costs, sweep.feasible_costs, sweep.endpoint_residuals
):
    rel = abs(c - sweep.analytic_cost) / sweep.analytic_cost
    print(f"{e:8.0e} {c:12.8f} {f:12.8f} {rel:12.2e} {r:10.1e}")

print("all runs converged:", bool(np.all(sweep.converged)))
print("all within the feasibility sandwich:", bool(np.all(sweep.within_bounds)))
