"""Closest-point search in the sum-zero pi-lattice.

The lattice is ``{pi * m : m integer, sum(m) = 0}``, a scaled A_{N-1} root
lattice living in the sum-zero hyperplane.  The fast search is the classical
A_n nearest-point procedure (round, then repair the coordinate-sum
deficiency along the worst rounding residuals); the brute-force enumerator
exists purely as an oracle for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PreconditionError

__all__ = ["closest_lattice_point", "closest_lattice_point_bruteforce"]


def closest_lattice_point(x) -> np.ndarray:
    """Integer vector m with sum 0 minimizing ``|x - pi m|``.

    Rounds each coordinate of x/pi half-toward-zero, then repairs the sum
    deficiency Delta by decrementing the Delta coordinates with the most
    negative rounding residual (incrementing the most positive ones for
    negative Delta).  O(N log N), exact for this lattice family.
    """
    x = np.asarray(x, dtype=float)
    if abs(x.sum()) > 1e-9:
        raise PreconditionError(f"coordinates must sum to zero (got {x.sum():.3e})")
    t = x / np.pi
    m = (np.ceil(np.abs(t) - 0.5) * np.sign(t)).astype(int)
    residual = t - m
    deficiency = int(m.sum())
    if deficiency > 0:
        order = np.argsort(residual, kind="stable")
        m[order[:deficiency]] -= 1
    elif deficiency < 0:
        order = np.argsort(-residual, kind="stable")
        m[order[:-deficiency]] += 1
    return m


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

    Agrees with the fast search whenever the true minimizer lies inside the
    enumeration box; ties resolve to the first candidate in enumeration
    order, which may differ from the fast tie-break (distances still agree).
    """
    x = np.asarray(x, dtype=float)
    cands = _sum_zero_candidates(len(x), radius)
    d2 = ((x[None, :] - np.pi * cands) ** 2).sum(axis=1)
    return cands[int(np.argmin(d2))].copy()
