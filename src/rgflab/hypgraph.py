"""Gromov-hyperbolicity toolkit over abstract distance oracles.

An oracle is any object with a symmetric `dist(x, y)` returning exact
non-negative numbers, and optionally `geodesic(x, y)` returning one vertex
sequence realizing the distance.  All arithmetic is exact: Gromov products
are rationals with denominator at most 2, never floats, so a quadruple scan
is a proof on the scanned set.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import farey


class GeodesicsUnsupported(RuntimeError):
    """Raised by checks that need actual geodesics from an oracle without them."""


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
    if n < 4:
        return DeltaEstimate(Fraction(0), None, 0, True)
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


def point_to_path_distance(z, path, oracle):
    return min(oracle.dist(z, v) for v in path)


def check_gp_geodesic_bound(x, y, z, oracle, delta) -> bool:
    """d(z, [x,y]) - 4*delta <= (x|y)_z <= d(z, [x,y]) for one geodesic [x,y]."""
    geod = getattr(oracle, "geodesic", None)
    if geod is None:
        raise GeodesicsUnsupported("oracle provides no geodesics")
    path = geod(x, y)
    dz = point_to_path_distance(z, path, oracle)
    gp = gromov_product(x, y, z, oracle)
    return dz - 4 * Fraction(delta) <= gp <= dz


@dataclass
class ChainReport:
    """Outcome of the local-to-global check on one chain."""

    D: Fraction                  # A + 6*delta
    hypothesis_ok: bool
    conclusion_ok: bool
    geodesic_ok: bool | None     # None when the oracle has no geodesics
    slack: Fraction              # d(x0,xn) - (sum - 2D(n-1)); >= 0 when hypothesis holds
    failures: list = field(default_factory=list)


def check_local_to_global(chain, A, delta, oracle) -> ChainReport:
    """Chain form of the local-to-global principle.

    Hypotheses: every interior Gromov product (x_{i-1} | x_{i+1})_{x_i} <= A
    and every gap d(x_i, x_{i+1}) > 4A + 24*delta.  Conclusions: the
    concatenation loses at most 2D per interior point (D = A + 6*delta), the
    total gap sum is at most twice the end distance, and, when geodesics are
    available, every chain point lies within D of a geodesic between the
    endpoints.
    """
    A = Fraction(A)
    delta = Fraction(delta)
    D = A + 6 * delta
    pts = list(chain)
    n = len(pts) - 1
    if n < 1:
        raise ValueError("chain needs at least one segment")
    failures = []

    gaps = [oracle.dist(pts[i], pts[i + 1]) for i in range(n)]
    hyp = True
    threshold = 4 * A + 24 * delta
    for i, g in enumerate(gaps):
        if g <= threshold:
            hyp = False
            failures.append(f"gap {i} = {g} <= 4A+24delta = {threshold}")
    for i in range(1, n):
        gp = gromov_product(pts[i - 1], pts[i + 1], pts[i], oracle)
        if gp > A:
            hyp = False
            failures.append(f"interior product at {i} = {gp} > A = {A}")

    end = oracle.dist(pts[0], pts[n])
    total = sum(gaps)
    slack = end - (total - 2 * D * (n - 1))
    concl = slack >= 0
    if not concl:
        failures.append(f"lower bound fails by {-slack}")
    if total > 2 * end:
        concl = False
        failures.append(f"gap sum {total} exceeds twice end distance {end}")

    geo_ok = None
    geod = getattr(oracle, "geodesic", None)
    if geod is not None:
        path = geod(pts[0], pts[n])
        geo_ok = True
        for i in range(1, n):
            if point_to_path_distance(pts[i], path, oracle) > D:
                geo_ok = False
                failures.append(f"point {i} farther than D from a geodesic")
        concl = concl and geo_ok

    return ChainReport(D, hyp, concl, geo_ok, slack, failures)


def bfs(sources, neighbours, depth=None):
    """Breadth-first walk: yields (vertex, parent, distance) once per reached
    vertex, in order of discovery, the sources first with parent None.

    `neighbours(v)` returns the vertices adjacent to v; it is called once per
    expanded vertex.  Vertices at distance `depth` are not expanded (no cap
    when None).  The walk is lazy, so a caller may stop it early.
    """
    seen = set()
    queue = deque()
    for s in sources:
        if s not in seen:
            seen.add(s)
            queue.append((s, 0))
            yield s, None, 0
    while queue:
        u, d = queue.popleft()
        if depth is not None and d >= depth:
            continue
        for v in neighbours(u):
            if v not in seen:
                seen.add(v)
                queue.append((v, d + 1))
                yield v, u, d + 1


# ---------------------------------------------------------------------------
# Concrete oracles: finite graphs (the synthetic instances) and the Farey graph.


class GraphOracle:
    """BFS metric on an explicit undirected graph given as an adjacency dict."""

    def __init__(self, adjacency: dict):
        self.adj = {u: sorted(vs, key=repr) for u, vs in adjacency.items()}
        self._bfs_cache = {}

    def points(self):
        return list(self.adj)

    def _bfs(self, src):
        got = self._bfs_cache.get(src)
        if got is None:
            dist, parent = {}, {}
            for v, p, d in bfs([src], self.adj.__getitem__):
                dist[v] = d
                parent[v] = p
            got = self._bfs_cache[src] = (dist, parent)
        return got

    def dist(self, a, b) -> int:
        dist, _ = self._bfs(a)
        if b not in dist:
            raise KeyError(f"{b!r} unreachable from {a!r}")
        return dist[b]

    def geodesic(self, a, b) -> list:
        _, parent = self._bfs(a)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        return path


class FareyOracle:
    """Distance oracle adapter for the Farey graph with exact geodesics."""

    def dist(self, a, b) -> int:
        return farey.farey_distance(a, b)

    def geodesic(self, a, b) -> list:
        return farey.farey_geodesic(a, b)
