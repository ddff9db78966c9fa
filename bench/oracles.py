"""Checks of cartancost's outputs, computed apart from the program.

Nothing here imports cartancost.  The Pauli matrices, the built-in splits'
string sets and adapted frames, the special-unitary projection, the
eigenphase spectrum, the nearest lattice point and the exact metric Gram are
all rebuilt from NumPy and SciPy, so a fault shared by the program's layers
cannot hide itself.  Each ``check_*`` function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Closed-form costs (trace norm, unnormalized Pauli strings) of the named
# two-qubit gates under the two_local split: the norm of the canonical
# generator (pi/4)(a XX + b YY + c ZZ) is (pi/2) sqrt(a^2 + b^2 + c^2).
CLOSED_FORM = {
    "identity": 0.0,
    "cnot": np.pi / 2,
    "iswap": np.pi / np.sqrt(2),
    "swap": np.sqrt(3) * np.pi / 2,
}

NAMED_GATES = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def z_rotation_cost(w: float) -> float:
    """Closed-form cost of exp(-i w Z) under single_x: sqrt(2) min_m |w - m pi|."""
    return float(np.sqrt(2) * abs(w - np.pi * np.round(w / np.pi)))


@functools.lru_cache(maxsize=None)
def pauli(s: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for c in s:
        m = np.kron(m, _SIGMA[c])
    m.setflags(write=False)
    return m


def strings(n: int) -> tuple[str, ...]:
    """Non-identity Pauli strings on n qubits in IXYZ product order."""
    return tuple("".join(t) for t in itertools.product("IXYZ", repeat=n) if set(t) != {"I"})


class SplitSpec(NamedTuple):
    """A built-in split as the paper defines it: free strings ``l``, the
    commuting strings ``z`` of p, and an adapted frame ``q`` in which exp(i l)
    is real orthogonal and z is diagonal."""

    n: int
    l: tuple[str, ...]
    z: tuple[str, ...]
    q: np.ndarray


def split_spec(kind: str, n: int) -> SplitSpec:
    all_strings = strings(n)
    if kind == "single_x":
        # conj by diag(1, i) sends X to -Y, whose exponentials are real
        return SplitSpec(1, ("X",), ("Z",), np.diag([1.0, 1j]))
    if kind == "two_local":
        # Bell states with the phases that make local unitaries real orthogonal
        magic = np.array(
            [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
        ) / np.sqrt(2)
        l = tuple(s for s in all_strings if sum(c != "I" for c in s) == 1)
        return SplitSpec(2, l, ("XX", "YY", "ZZ"), magic)
    if kind == "ai":
        l = tuple(s for s in all_strings if s.count("Y") % 2 == 1)
        z = tuple(s for s in all_strings if set(s) <= {"I", "Z"})
        return SplitSpec(n, l, z, np.eye(2**n, dtype=complex))
    raise ValueError(f"unknown split kind {kind!r}")


def hermitian(coeffs: dict, n: int) -> np.ndarray:
    h = np.zeros((2**n, 2**n), dtype=complex)
    for s, c in coeffs.items():
        h += c * pauli(s)
    return h


def to_special(u) -> np.ndarray:
    """Divide by the principal N-th root of det(u), as the paper's SU(N) reading."""
    u = np.asarray(u, dtype=complex)
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / u.shape[0])


def frame_spectrum(u, spec: SplitSpec) -> np.ndarray:
    """Eigenvalues of V^T V with V = Q^+ U Q in the adapted frame."""
    v = spec.q.conj().T @ to_special(u) @ spec.q
    return np.linalg.eigvals(v.T @ v)


def voronoi_reduce(x) -> np.ndarray:
    """Shift a sum-zero vector by pi(e_j - e_i) steps until max - min <= pi.

    The roots pi(e_i - e_j) are the Voronoi-relevant vectors of the scaled
    A_{N-1} lattice, so the result lies in the Voronoi cell of 0: it is x
    minus its nearest lattice point.  Each step shortens the vector.
    """
    y = np.array(x, dtype=float)
    while y.max() - y.min() > np.pi:
        y[np.argmax(y)] -= np.pi
        y[np.argmin(y)] += np.pi
    return y


def oracle_cost(u, spec: SplitSpec) -> float:
    """The optimal cost from the spectrum of V^T V alone."""
    phi = np.angle(frame_spectrum(u, spec)) / 2.0
    # det V = 1 makes sum(phi) a multiple of pi; one pi-shift zeroes it
    phi[0] -= np.pi * np.round(phi.sum() / np.pi)
    return float(np.linalg.norm(voronoi_reduce(phi)))


def _circle_mismatch(a, b) -> float:
    """Largest distance in the best one-to-one matching of two point sets."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def check_cost_report(u, spec: SplitSpec, report, expected: float | None = None,
                      tol: float = 1e-8) -> list[str]:
    """Certify an optimal_cost report: the eigenphases are the halved
    spectrum of V^T V, the lattice point is nearest (Voronoi test), and the
    cost is the length of the shifted phases."""
    problems = []
    phases = np.asarray(report.eigenphases, dtype=float)
    point = np.asarray(report.lattice_point)
    shifted = np.asarray(report.shifted_phases, dtype=float)
    mismatch = _circle_mismatch(np.exp(2j * phases), frame_spectrum(u, spec))
    if mismatch > tol:
        problems.append(f"exp(2i phases) misses the spectrum of V^T V by {mismatch:.2e}")
    if abs(phases.sum()) > 1e-9:
        problems.append(f"eigenphases sum to {phases.sum():.2e}")
    if not np.array_equal(point, np.round(point)) or int(np.round(point).sum()) != 0:
        problems.append(f"lattice point {point} is not a sum-zero integer vector")
    if np.max(np.abs(shifted - (phases - np.pi * point))) > 1e-12:
        problems.append("shifted phases differ from phases - pi * lattice point")
    if shifted.max() - shifted.min() > np.pi + 1e-9:
        problems.append(f"shifted phases span {shifted.max() - shifted.min():.6f} > pi")
    if abs(report.cost - np.linalg.norm(shifted)) > 1e-12:
        problems.append("cost differs from |shifted phases|")
    ref = oracle_cost(u, spec)
    if abs(report.cost - ref) > tol:
        problems.append(f"cost {report.cost:.12f} differs from the spectral oracle {ref:.12f}")
    if expected is not None and abs(report.cost - expected) > tol:
        problems.append(f"cost {report.cost:.12f} differs from the closed form {expected:.12f}")
    return problems


def _matrix(doc) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def check_factors(u, spec: SplitSpec, doc: dict, tol: float = 1e-8) -> list[str]:
    """Certify a ``decompose`` document: exp(iL) exp(iZ) exp(iM) rebuilt from
    the coefficient maps reproduces ``u`` up to global phase, L and M lie in
    l, Z in z, A and B are real special orthogonal and D is diagonal unitary."""
    problems = []
    for name, allowed in (("L", spec.l), ("Z", spec.z), ("M", spec.l)):
        outside = set(doc[name]) - set(allowed)
        if outside:
            problems.append(f"{name} has terms outside its subspace: {sorted(outside)}")
    if problems:
        return problems
    rebuilt = np.eye(2**spec.n, dtype=complex)
    for name in ("L", "Z", "M"):
        rebuilt = rebuilt @ scipy.linalg.expm(1j * hermitian(doc[name], spec.n))
    u = np.asarray(u, dtype=complex)
    overlap = np.trace(rebuilt.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    residual = float(np.linalg.norm(rebuilt * phase - u))
    if residual > tol:
        problems.append(f"exp(iL)exp(iZ)exp(iM) misses the input by {residual:.2e}")
    eye = np.eye(2**spec.n)
    for name in ("A", "B"):
        m = _matrix(doc[name])
        if np.abs(m.imag).max() > 0 or np.linalg.norm(m.real.T @ m.real - eye) > 1e-9 \
                or abs(np.linalg.det(m.real) - 1.0) > 1e-9:
            problems.append(f"{name} is not real special orthogonal")
    d = _matrix(doc["D"])
    if np.abs(d - np.diag(np.diagonal(d))).max() > 0 or np.abs(np.abs(np.diagonal(d)) - 1).max() > 1e-12:
        problems.append("D is not diagonal unitary")
    return problems


def check_sweep(u, spec: SplitSpec, result, endpoint_tol: float = 1e-4) -> list[str]:
    """Certify a one-epsilon sweep: the solve converged, and the numeric cost
    lies between the certified analytic cost (less the endpoint margin) and
    the feasible path's cost, since any path pays at least its p-part and the
    feasible path is itself a candidate."""
    problems = []
    analytic = oracle_cost(u, spec)
    if abs(result.analytic_cost - analytic) > 1e-8:
        problems.append(f"analytic cost {result.analytic_cost:.12f} differs from the oracle {analytic:.12f}")
    if not bool(np.all(result.converged)):
        return problems + ["the solve did not converge"]
    residual = float(result.endpoint_residuals[0])
    if not residual <= endpoint_tol:
        problems.append(f"endpoint residual {residual:.2e} > {endpoint_tol:.0e}")
    numeric = float(result.numeric_costs[0])
    feasible = float(result.feasible_costs[0])
    # the same allowance the sweep grants a path that meets the target only
    # to within endpoint_tol
    margin = 1e-3 * max(analytic, 1.0) + 10.0 * endpoint_tol
    if not analytic - margin <= numeric <= feasible + 1e-9:
        problems.append(
            f"numeric cost {numeric:.6f} outside [{analytic - margin:.6f}, {feasible:.6f}]"
        )
    if not bool(np.all(result.within_bounds)):
        problems.append("within_bounds is false")
    return problems


def exact_gram(base: tuple[dict, dict, dict], spec: SplitSpec, epsilon: float) -> np.ndarray:
    """The penalty-metric Gram of U = exp(iL)exp(iZ)exp(iM) over unit
    trace-norm coordinate directions (l-block, z-block, l-block), with exact
    tangents from the Frechet derivative of the exponential."""
    n = spec.n
    dim = 2**n
    gens = [1j * hermitian(c, n) for c in base]
    exps = [scipy.linalg.expm(g) for g in gens]
    u_dag = (exps[0] @ exps[1] @ exps[2]).conj().T
    unit = 2.0 ** (-n / 2.0)
    all_strings = strings(n)
    in_l = np.array([s in set(spec.l) for s in all_strings])
    stack = np.stack([pauli(s) for s in all_strings])
    coeffs = []
    for slot, directions in ((0, spec.l), (1, spec.z), (2, spec.l)):
        for s in directions:
            _, d_exp = scipy.linalg.expm_frechet(gens[slot], 1j * unit * pauli(s))
            factors = list(exps)
            factors[slot] = d_exp
            t = 1j * factors[0] @ factors[1] @ factors[2] @ u_dag
            coeffs.append(np.einsum("kij,ji->k", stack, t).real / dim)
    c = np.array(coeffs)
    return dim * (epsilon * c[:, in_l] @ c[:, in_l].T + c[:, ~in_l] @ c[:, ~in_l].T)


def check_gram(base: tuple[dict, dict, dict], spec: SplitSpec, epsilon: float, gram,
               report, tol: float = 1e-7) -> list[str]:
    """Certify a finite-difference Gram against the exact one, and require
    the structure verdict PASS on a Gram that is not step-degenerate."""
    problems = []
    exact = exact_gram(base, spec, epsilon)
    if exact.shape != gram.gram.shape:
        return [f"Gram shape {gram.gram.shape} differs from the exact {exact.shape}"]
    deviation = float(np.max(np.abs(gram.gram - exact)))
    if deviation > tol:
        problems.append(f"finite-difference Gram misses the exact Gram by {deviation:.2e}")
    if not report.all_ok:
        problems.append("structure verdict is FAIL")
    if gram.step_degenerate:
        problems.append("Gram is step-degenerate")
    return problems
