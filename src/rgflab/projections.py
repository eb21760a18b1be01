"""Abstract projection systems and the axioms that power distance estimates:
the Behrstock inequality, bounded geodesic images, and the two projection
persistence arguments.

A system exposes sites, a symmetric irreflexive overlap relation, projection
distances between objects at a site, and an ambient metric on objects with
geodesics.  The projection distance d_Y(a, b) is the diameter of the union
of the two projections, so it is symmetric in a and b.  A site is itself an
object, so the checks pass sites straight to `proj_dist` and
`ambient_dist`.  Two instances are
provided: annuli in the Farey graph, whose sites and objects are slopes, and
synthetic systems built from a hidden tree embedding so the axioms hold by
construction.  All checks take thresholds (M, B) explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import farey
from .farey import Slope, act, twist_about
from .hypgraph import GraphOracle
from .raag import nearest_overlaps


class OverlapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Torus instance: sites are annuli about slopes.


class TorusAnnuli:
    """Annular projection system of the once-punctured torus.

    Sites are slopes; every pair of distinct slopes overlaps.  Objects are
    slopes too, since a curve system on the punctured torus is one curve, and
    a site is the object of its core curve.
    """

    def overlaps(self, y: Slope, z: Slope) -> bool:
        return y != z

    def projects(self, site: Slope, obj: Slope) -> bool:
        return obj != site

    def proj_dist(self, site: Slope, a: Slope, b: Slope) -> int:
        return farey.annular_distance(site, a, b)

    def path_diam(self, site: Slope, path) -> int:
        """Projection diameter of the union of a path's slopes: one span
        fold, equal to the largest pairwise `proj_dist`."""
        span = farey.link_span(site, path)
        if span is None:
            raise farey.EmptyProjectionError(f"nothing projects to the annulus about {site}")
        return span[1] - span[0]

    def ambient_dist(self, a: Slope, b: Slope) -> int:
        return farey.slope_set_distance(a, b)

    def ambient_geodesic(self, a: Slope, b: Slope):
        return farey.farey_geodesic(a, b)


# ---------------------------------------------------------------------------
# Synthetic instances from a hidden tree embedding.


class TreeSystem:
    """Projection system read off a tree with numbered directions.

    Sites occupy tree vertices; two sites overlap iff their positions are at
    tree distance at least 2.  The projection of an object to a site is the
    direction (neighbor of the site's position) its geodesic leaves through,
    scored by a hidden integer coordinate on the link.  Both axioms then hold
    by construction: a geodesic missing the unit ball about a site stays in
    one direction (images have diameter 0), and if two objects leave a site
    in different directions the site sits on their geodesic, so each sees the
    other two in a single direction (Behrstock with B = 1).

    Objects are tree vertices or sites: every object argument resolves
    through `_pos`, so a site stands for the vertex it occupies.
    """

    def __init__(self, tree: GraphOracle, positions: dict, link_coords: dict):
        self.tree = tree
        self.positions = dict(positions)          # site -> tree vertex
        self.link_coords = {v: dict(cs) for v, cs in link_coords.items()}

    def sites(self):
        return list(self.positions)

    def _pos(self, obj):
        return self.positions.get(obj, obj)

    def overlaps(self, y, z) -> bool:
        return self.tree.dist(self.positions[y], self.positions[z]) >= 2

    def projects(self, site, obj) -> bool:
        return self.tree.dist(self.positions[site], self._pos(obj)) >= 2

    def _direction(self, site, obj):
        path = self.tree.geodesic(self.positions[site], self._pos(obj))
        return path[1]

    def _coord(self, site, obj) -> int:
        """The hidden coordinate of obj's direction at site; 0 if unscored."""
        return self.link_coords.get(self.positions[site], {}).get(self._direction(site, obj), 0)

    def proj_dist(self, site, a, b) -> int:
        for obj in (a, b):
            if not self.projects(site, obj):
                raise farey.EmptyProjectionError(f"{obj} does not project to {site}")
        return abs(self._coord(site, a) - self._coord(site, b))

    def path_diam(self, site, path) -> int:
        """Largest pairwise `proj_dist` over a projecting path: the spread of
        its link coordinates."""
        coords = [self._coord(site, v) for v in path]
        return max(coords) - min(coords)

    def ambient_dist(self, a, b) -> int:
        return self.tree.dist(self._pos(a), self._pos(b))

    def ambient_geodesic(self, a, b):
        return self.tree.geodesic(self._pos(a), self._pos(b))


def synthetic_system(n_sites: int, seed: int, threshold: int = 3, decoys: int = 0,
                     block_sizes=None) -> TreeSystem:
    """Build a positive instance on a caterpillar tree.

    Spine sites sit 3 to 5 tree edges apart; hidden link coordinates make
    each interior site see its neighbors `threshold` apart, so sequences of
    spine sites satisfy the persistence hypotheses at M + 3B <= threshold.
    `block_sizes[i]` extra sites may share the i-th spine position, producing
    mutually non-overlapping blocks for the skip-index machinery.
    """
    rng = random.Random(seed)
    adj = {}

    def add_edge(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    positions = {}
    link_coords = {}
    spine = []
    node = 0
    adj[0] = []
    for i in range(n_sites):
        if i > 0:
            gap = rng.randrange(3, 6)
            for _ in range(gap):
                add_edge(node, node + 1)
                node += 1
        spine.append(node)
        positions[f"Y{i}"] = node
    # hidden coordinates: the two spine directions at each interior site are
    # `threshold + jitter` apart
    for i, v in enumerate(spine):
        coords = {}
        nbrs = adj[v]
        back = [u for u in nbrs if u < v]
        fwd = [u for u in nbrs if u > v]
        if back:
            coords[back[0]] = 0
        if fwd:
            coords[fwd[0]] = threshold + rng.randrange(0, 3)
        link_coords[v] = coords
    # decoy leaves with random coordinates
    for _ in range(decoys):
        v = spine[rng.randrange(len(spine))]
        node += 1
        add_edge(v, node)
        node += 1
        add_edge(node - 1, node)
        positions[f"D{node}"] = node
        link_coords[v][adj[v][-1]] = rng.randrange(-2, threshold + 3)
    # block sites sharing spine positions (pairwise non-overlapping)
    if block_sizes:
        for i, size in enumerate(block_sizes):
            for k in range(size):
                positions[f"B{i}.{k}"] = spine[i]
    tree = GraphOracle(adj)
    return TreeSystem(tree, positions, link_coords)


# ---------------------------------------------------------------------------
# Scans and checks.


@dataclass
class BehrstockReport:
    scanned: int
    violations: list
    B_emp: int


def behrstock_scan(system, triples, B: int | None = None) -> BehrstockReport:
    """Scan pairwise-overlapping site triples for the one-large-projection law.

    A triple violates level b when some arrangement has d_Y(X, Z) >= b and
    max(d_X(Y, Z), d_Z(X, Y)) >= b; B_emp is the least b with no violations
    on the sample.  With B None only B_emp is measured.

    Projection distances are symmetric, so three reads serve all three
    arrangements: d_x(y, z), d_y(x, z) and d_z(x, y), each site passed as
    an object.  The level of a triple, the greatest b it violates, is
    max_i min(d_i, max_{j != i} d_j), and that is the median of the three.
    With d_1 <= d_2 <= d_3 sorted: for i = 3 and for i = 2 the term is
    min(d_i, d_3 or d_2) = d_2, and for i = 1 it is d_1 <= d_2; ties change
    nothing.  So some arrangement violates level b exactly when the median
    is at least b, and only such a triple goes through the arrangements to
    list its violations.
    """
    violations = []
    worst = 0
    count = 0
    overlaps, proj_dist = system.overlaps, system.proj_dist
    for triple in triples:
        x, y, z = triple
        for u, v in ((x, y), (y, z), (x, z)):
            if not overlaps(u, v):
                raise OverlapError(f"sites {u!r}, {v!r} do not overlap")
        count += 1
        a = proj_dist(x, y, z)
        b = proj_dist(y, x, z)
        c = proj_dist(z, x, y)
        lo, hi = (a, b) if a < b else (b, a)
        level = lo if c < lo else hi if c > hi else c
        if level > worst:
            worst = level
        if B is not None and level >= B:
            for mid, d_mid, d_max in ((y, b, max(a, c)), (x, a, max(b, c)), (z, c, max(a, b))):
                if d_mid >= B and d_max >= B:
                    violations.append((triple, mid, d_mid, d_max))
    return BehrstockReport(count, violations, worst + 1)


@dataclass
class BgitReport:
    all_project: bool
    diameter: int | None
    witness: object = None     # first non-projecting vertex when any


def bgit_scan(system, site, geodesic) -> BgitReport:
    """Projection diameter of an ambient geodesic, or its first vertex that
    fails to project (the converse use: large projections force pit stops)."""
    path = list(geodesic)
    for u, v in zip(path, path[1:]):
        if system.ambient_dist(u, v) != 1:
            raise ValueError("input sequence is not an ambient geodesic")
    if len(path) >= 2 and system.ambient_dist(path[0], path[-1]) != len(path) - 1:
        raise ValueError("input sequence is not distance-realizing")
    for v in path:
        if not system.projects(site, v):
            return BgitReport(False, None, v)
    return BgitReport(True, system.path_diam(site, path) if path else 0)


@dataclass
class PersistenceReport:
    hypothesis_ok: bool
    pairwise_overlap_ok: bool
    middle_bound_ok: bool
    monotone_ok: bool
    gaps_at_least_3: bool
    final_distance_ok: bool
    worst_triple: tuple | None
    failures: list = field(default_factory=list)

    @property
    def conclusions_ok(self) -> bool:
        return (self.pairwise_overlap_ok and self.middle_bound_ok
                and self.monotone_ok and self.final_distance_ok)


def persistence_check(system, sequence, M: int, B: int) -> PersistenceReport:
    """Consecutive overlaps plus middle projections >= M + 3B make middle
    projections >= M + B persist to all triples, ambient distances monotone
    over nested index pairs, and, under 3-separated gaps, d(Y_1, Y_n) >= n-1.
    """
    seq = list(sequence)
    n = len(seq)
    failures = []
    hyp = True
    for i in range(n - 1):
        if not system.overlaps(seq[i], seq[i + 1]):
            hyp = False
            failures.append(f"consecutive sites {i},{i+1} do not overlap")
    if hyp:
        for j in range(1, n - 1):
            d = system.proj_dist(seq[j], seq[j - 1], seq[j + 1])
            if d < M + 3 * B:
                hyp = False
                failures.append(f"middle projection at {j} is {d} < M+3B = {M + 3*B}")

    pairwise = True
    for i in range(n):
        for k in range(i + 1, n):
            if not system.overlaps(seq[i], seq[k]):
                pairwise = False
                failures.append(f"sites {i},{k} do not overlap")

    middle = True
    worst = None
    worst_val = None
    if pairwise:
        for j in range(1, n - 1):
            for i in range(j):
                for k in range(j + 1, n):
                    d = system.proj_dist(seq[j], seq[i], seq[k])
                    if worst_val is None or d < worst_val:
                        worst_val, worst = d, (i, j, k)
                    if d < M + B:
                        middle = False
                        failures.append(f"projection d_{j}({i},{k}) = {d} < M+B")
    else:
        middle = False

    # the ambient metric is symmetric and the diagonal is never read, so
    # each distance is computed once, above the diagonal, and mirrored
    amb = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            amb[i][j] = amb[j][i] = system.ambient_dist(seq[i], seq[j])
    monotone = True
    for i in range(n):
        for j in range(i, n):
            for k in range(j + 1, n):
                for l in range(k, n):
                    if amb[i][l] < amb[j][k]:
                        monotone = False
                        failures.append(
                            f"d({i},{l}) = {amb[i][l]} < d({j},{k}) = {amb[j][k]}")

    gaps3 = all(amb[i][i + 1] >= 3 for i in range(n - 1))
    final_ok = True
    if gaps3 and n and amb[0][n - 1] < n - 1:
        final_ok = False
        failures.append(f"d(Y_1, Y_n) = {amb[0][n-1]} < n-1 = {n-1}")

    return PersistenceReport(hyp, pairwise, middle, monotone, gaps3, final_ok, worst, failures)


@dataclass
class GeneralPersistenceReport:
    iota: list
    tau: list
    hypothesis_ok: bool
    subsequence: list
    interior_bound_ok: bool
    chained: PersistenceReport | None
    failures: list = field(default_factory=list)


def general_persistence_check(system, sequence, M: int, B: int,
                              subsequence=None) -> GeneralPersistenceReport:
    """Skip-index persistence: hypotheses at M + 6B against the nearest
    overlapping neighbors imply the plain persistence hypotheses (at M + 3B)
    for any subsequence with consecutive overlaps, which is then checked.
    The default subsequence is the greedy chain 0, tau(0), tau(tau(0)), ...
    """
    seq = list(sequence)
    iota, tau = nearest_overlaps(len(seq), lambda i, j: system.overlaps(seq[i], seq[j]))
    failures = []
    hyp = True
    for j in range(len(seq)):
        if iota[j] is not None and tau[j] is not None:
            d = system.proj_dist(seq[j], seq[iota[j]], seq[tau[j]])
            if d < M + 6 * B:
                hyp = False
                failures.append(f"d_{j}(iota, tau) = {d} < M+6B = {M + 6*B}")

    idx = [0] if subsequence is None else list(subsequence)
    while subsequence is None and tau[idx[-1]] is not None:
        idx.append(tau[idx[-1]])
    for a, b in zip(idx, idx[1:]):
        if not system.overlaps(seq[a], seq[b]):
            raise OverlapError(f"subsequence indices {a},{b} do not overlap")
    sub = [seq[i] for i in idx]

    interior_ok = True
    for jj in range(1, len(sub) - 1):
        for ii in range(jj):
            for kk in range(jj + 1, len(sub)):
                d = system.proj_dist(sub[jj], sub[ii], sub[kk])
                if d < M + 3 * B:
                    interior_ok = False
                    failures.append(
                        f"subsequence projection d_{jj}({ii},{kk}) = {d} < M+3B")

    chained = persistence_check(system, sub, M, B)
    return GeneralPersistenceReport(iota, tau, hyp, idx, interior_ok, chained, failures)


# ---------------------------------------------------------------------------
# Generators for positive torus instances and constant estimation.


def random_slopes(rng: random.Random, qmax: int):
    """Endless stream of p/q with q uniform in [0, qmax] and p in
    [-qmax, qmax], redrawn until reduced (q = 0 gives 1/0).  The loops are
    `Random.randrange`'s own over `getrandbits`, so the draws are exactly
    those of randrange.  A generator draws only when a slope is taken, so
    other draws from `rng` may come between two slopes."""
    bits, gcd, reduced = rng.getrandbits, math.gcd, Slope._reduced
    wq, wp = qmax + 1, 2 * qmax + 1        # the widths of the two ranges
    kq, kp = wq.bit_length(), wp.bit_length()
    while True:
        q = bits(kq)
        while q >= wq:
            q = bits(kq)
        if not q:
            yield farey.INFINITY
            continue
        p = bits(kp)
        while p >= wp:
            p = bits(kp)
        p -= qmax
        if gcd(p, q) == 1:
            yield reduced(p, q)


def random_slope(rng: random.Random, qmax: int) -> Slope:
    """One slope of `random_slopes`."""
    return next(random_slopes(rng, qmax))


def twist_pivot_sequence(a0: Slope, a1: Slope, strength: int, length: int,
                         rng: random.Random | None = None) -> list:
    """alpha_{k+1} = T_{alpha_k}^{+-K} alpha_{k-1} with |K| >= strength:
    consecutive twisting makes every interior projection large."""
    seq = [a0, a1]
    while len(seq) < length:
        k = strength if rng is None else rng.randrange(strength, strength + 4)
        sign = 1 if rng is None or rng.random() < 0.5 else -1
        seq.append(act(twist_about(seq[-1], sign * k), seq[-2]))
    return seq


@dataclass
class ConstantEstimates:
    M_emp: int
    B_emp: int
    c_emp: Fraction
    samples: dict
    stable: bool


def sample_overlapping_triples(n: int, rng: random.Random, qmax: int = 10000):
    draw = random_slopes(rng, qmax).__next__
    triples = []
    while len(triples) < n:
        x, y, z = draw(), draw(), draw()
        if x != y and y != z and x != z:
            triples.append((x, y, z))
    return triples


def estimate_constants(seed: int = 0, n_triples: int = 2000,
                       n_geodesics: int = 400, qmax: int = 1000) -> ConstantEstimates:
    """Deterministic seeded estimation of (M, B, c) for the torus system.

    Each constant is the least value making its axiom hold on the sample and
    is re-validated on a disjoint fresh sample; `stable` records agreement.
    """
    system = TorusAnnuli()

    def scan_B(r):
        return behrstock_scan(system, sample_overlapping_triples(n_triples, r, qmax)).B_emp

    def scan_M(r):
        worst = 0
        draw = random_slopes(r, qmax).__next__
        for _ in range(n_geodesics):
            site = draw()
            # stress with twisted pairs around the site plus random pairs
            if r.random() < 0.5:
                base = draw()
                if base == site:
                    continue
                n = r.randrange(1, 12)
                a, b = base, act(twist_about(site, n), base)
            else:
                a, b = draw(), draw()
            if a == b:
                continue
            path = system.ambient_geodesic(a, b)
            if site in path:
                continue
            rep = bgit_scan(system, site, path)
            if rep.all_project and rep.diameter > worst:
                worst = rep.diameter
        return worst

    def scan_c(r):
        # a draw with beta = site is skipped; a slope of `random_slopes(r, 50)`
        # repeats with probability 0.0013, so all 200 draws skip with
        # probability below 10^-577 and the minimum is over a nonempty sample
        ratios = []
        draw = random_slopes(r, 50).__next__
        for _ in range(200):
            site = draw()
            beta = draw()
            if beta == site:
                continue
            n = r.randrange(1, 100)
            d = system.proj_dist(site, act(twist_about(site, n), beta), beta)
            ratios.append(Fraction(d, n))
        return min(ratios)

    # estimate on one sample, re-validate on a disjoint fresh one: stable
    # means the fresh sample demands nothing beyond the first estimate
    b1, b2 = scan_B(random.Random(seed)), scan_B(random.Random(seed + 1001))
    m1, m2 = scan_M(random.Random(seed + 2)), scan_M(random.Random(seed + 1003))
    c1, c2 = scan_c(random.Random(seed + 4)), scan_c(random.Random(seed + 1005))
    stable = (b2 <= b1) and (m2 <= m1) and (c2 >= c1)
    return ConstantEstimates(
        M_emp=max(m1, m2),
        B_emp=max(b1, b2),
        c_emp=min(c1, c2),
        samples={"B": (b1, b2), "M": (m1, m2), "c": (c1, c2)},
        stable=stable,
    )
