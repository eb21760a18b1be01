"""Gromov-hyperbolicity toolkit over abstract distance oracles.

An oracle is any object with a symmetric `dist(x, y)` returning exact
non-negative numbers; nothing else of it is read.  All arithmetic is exact:
Gromov products are rationals with denominator at most 2, never floats, so a
quadruple scan is a proof on the scanned set.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import farey


def gromov_product(x, y, z, oracle) -> Fraction:
    """(x | y)_z = (d(x,z) + d(y,z) - d(x,y)) / 2."""
    return Fraction(oracle.dist(x, z) + oracle.dist(y, z) - oracle.dist(x, y), 2)


@dataclass(frozen=True)
class DeltaEstimate:
    """Least delta satisfying the four-point condition on the scanned set."""

    delta: Fraction
    witness: tuple | None
    quadruples_scanned: int
    exhaustive: bool


def estimate_delta(points, oracle, max_quadruples=None, seed=0) -> DeltaEstimate:
    """Four-point hyperbolicity constant of a finite point set.

    delta = max over ordered quadruples (x, y, z, w) of
        min{(x|z)_w, (y|z)_w} - (x|y)_w, clamped at 0.
    Twice that deficiency is d(x,y) + d(z,w) - max(d(x,z) + d(y,w),
    d(x,w) + d(y,z)), an integer that depends only on the split xy|zw, so
    the exhaustive scan evaluates the three splits of each 4-set a<b<c<e at
    their first orderings in permutation order, (a,b,c,e), (a,c,b,e) and
    (a,e,b,c): the witness is the first of the 24 orderings that attains
    delta, and all 24 role assignments are counted.  Exhaustive below
    `max_quadruples` role assignments, deterministic seeded sampling beyond.
    """
    pts = list(points)
    n = len(pts)
    d = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = oracle.dist(pts[i], pts[j])

    total = n * (n - 1) * (n - 2) * (n - 3)
    exhaustive = max_quadruples is None or total <= max_quadruples
    if exhaustive:
        quads = (q for a, b, c, e in combinations(range(n), 4)
                 for q in ((a, b, c, e), (a, c, b, e), (a, e, b, c)))
    else:
        rng = random.Random(seed)
        total = max(max_quadruples, 0)
        quads = (rng.sample(range(n), 4) for _ in range(total))
    best = 0
    witness = None
    for x, y, z, w in quads:
        val = d[x][y] + d[z][w] - max(d[x][z] + d[y][w], d[x][w] + d[y][z])
        if val > best:
            best = val
            witness = (pts[x], pts[y], pts[z], pts[w])
    return DeltaEstimate(Fraction(best, 2), witness, total, exhaustive)


def bfs(source, neighbours, depth=None):
    """Breadth-first walk from `source`: yields (vertex, distance) once per
    reached vertex, in order of discovery, the source first.

    `neighbours(v)` returns the vertices adjacent to v; it is called once per
    expanded vertex.  Vertices at distance `depth` are not expanded (no cap
    when None).  The walk is lazy, so a caller may stop it early.
    """
    seen = {source}
    queue = deque([(source, 0)])
    yield source, 0
    while queue:
        u, d = queue.popleft()
        if depth is not None and d >= depth:
            continue
        for v in neighbours(u):
            if v not in seen:
                seen.add(v)
                queue.append((v, d + 1))
                yield v, d + 1


# ---------------------------------------------------------------------------
# The concrete oracle: the Farey graph.


class FareyOracle:
    """Distance oracle adapter for the Farey graph."""

    def dist(self, a, b) -> int:
        return farey.farey_distance(a, b)
