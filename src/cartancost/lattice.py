"""Closest-point search in the sum-zero pi-lattice.

The lattice is ``{pi * m : m integer, sum(m) = 0}``, a scaled A_{N-1} root
lattice whose Voronoi-relevant vectors are the roots pi (e_i - e_j) (Conway &
Sloane, ch. 21).  So pi m is nearest to x exactly when ``s = x - pi m`` has
``max(s) - min(s) <= pi``, and the search's exit test is its certificate.
The brute-force enumerator exists purely as an oracle for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalFailure, PreconditionError

__all__ = ["closest_lattice_point", "closest_lattice_point_bruteforce"]


def closest_lattice_point(x) -> np.ndarray:
    """Integer vector m with sum 0 minimizing ``|x - pi m|``.

    From m = 0, steps pi off the largest entry of ``s = x - pi m`` onto the
    smallest while their spread exceeds pi, so a tie keeps the first point
    reached.  Exactly, no step is undone (after it ``s_j - s_i < pi``): an
    undo is a tie hidden by rounding at large |x|, and stops the search too.
    It raises NumericalFailure after ``N * (2 + ceil(max|x| / pi))`` steps.
    """
    x = np.asarray(x, dtype=float)
    if not abs(x.sum()) <= 1e-9:
        raise PreconditionError(f"coordinates must sum to zero (got {x.sum():.3e})")
    m, last = np.zeros(x.shape, dtype=int), None
    steps = x.size * (2 + int(np.ceil(np.abs(x).max() / np.pi)))
    for _ in range(steps + 1):
        s = x - np.pi * m
        step = [np.argmax(s), np.argmin(s)]
        if s.max() - s.min() <= np.pi or step[::-1] == last:
            return m
        m[step] += 1, -1
        last = step
    raise NumericalFailure(f"lattice search took more than {steps} steps")


@lru_cache(maxsize=16)
def _sum_zero_candidates(n: int, radius: int) -> np.ndarray:
    if (2 * radius + 1) ** (n - 1) > 20_000_000:
        raise PreconditionError("enumeration box too large (need N <= 8, radius <= 3)")
    axis = np.arange(-radius, radius + 1)
    grid = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    head = np.stack(grid, axis=-1).reshape(-1, n - 1)
    tail = -head.sum(axis=1)
    keep = np.abs(tail) <= radius
    cands = np.hstack([head[keep], tail[keep, None]])
    cands.setflags(write=False)
    return cands


def closest_lattice_point_bruteforce(x, radius: int = 3) -> np.ndarray:
    """Exhaustive minimizer over ``m in {-radius..radius}^N`` with sum 0.

    Agrees with the fast search in distance whenever the true minimizer lies
    inside the box; ties resolve to the first candidate in enumeration order.
    """
    x = np.asarray(x, dtype=float)
    cands = _sum_zero_candidates(len(x), radius)
    d2 = ((x[None, :] - np.pi * cands) ** 2).sum(axis=1)
    return cands[int(np.argmin(d2))].copy()
