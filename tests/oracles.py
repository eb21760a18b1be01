"""Definitions only the tests call: the denominator-bounded Farey BFS oracle
(`BfsOracle` over `bounded_neighbors`) with the path check `is_geodesic`,
reference twins of package kernels, small graph models with the
product-versus-geodesic sandwich and the sampled local-to-global chain check
(both take the geodesic function as an argument beside a `dist`-only
oracle), the synthetic tree projection system with the skip-index
persistence check, and RAAG word builders with the confluent rewriting
system that checks `raag.normal_form`, beside admissible support families
and the letter bookkeeping along alternating words."""

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

from rgflab import farey
from rgflab.bassserre import (PairCounts, ResumeTable, TreeBall, _Fallback, _mat_mul,
                              word_matrix)
from rgflab.farey import (MappingClass, Slope, act, adjacent, bounded_vertices,
                          conjugator_to_infinity, farey_distance)
from rgflab.constructions import (DefiniteDistanceReport, DisplacingReport, GromovBoundReport,
                                  MisalignmentReport)
from rgflab.hypgraph import FareyOracle, bfs, gromov_product
from rgflab.projections import (BehrstockReport, BgitReport, ConstantEstimates, OverlapError,
                                PersistenceReport, TorusAnnuli, persistence_check,
                                random_slopes)
from rgflab.raag import PresentationGraph, Word, normal_form

_new = tuple.__new__


def type1_pairs(ball: TreeBall):
    """The type-1 vertex pairs (t[i], t[j]), i < j, of t = `ball.vertices(1)`,
    in lexicographic order of (i, j): the order of `listed_qi_pairs`."""
    return combinations(ball.vertices(1), 2)


def listed_qi_pairs(ball: TreeBall) -> list:
    """The slow twin of `qi_pairs`, the pair scan that listed what it now
    counts: (d_T, d_S) for the type-1 pairs (t[i], t[j]), i < j, of
    t = `ball.vertices(1)`, in the order of `type1_pairs`, from one
    depth-first walk per source vertex.

    The walk steps between type-1 vertices across the type-2 fans, adding 2
    to d_T each time; the ball is a tree, so it keeps no seen-set, and type-2
    leaves lie on no path between type-1 vertices, so it skips them.  A
    vertex ranked at or before the source, with no fan but the one it was
    reached through, is skipped.  Every directed step gets its `ResumeTable`
    step id once per scan.  Each stack entry carries its vertex's state and
    additive d, so a pair costs one lookup of `trans[state][step]` and two
    additions; the source is in the root state of its factor.  The only
    fallback, a complete quotient x <= 1 after a prefix, is one uncached
    `ResumeTable.advance` from the empty prefix of the source's own
    conjugator, which is computed from the source's label and boundary on
    the source's first fallback.
    """
    kind, adjacency, label, factor, dist = (ball.kind, ball.adjacency, ball.label,
                                            ball.factor, ball.distance)
    adj = [[w for w in fan if kind[w] == 1 or len(adjacency[w]) > 1] for fan in adjacency]
    t1 = ball.vertices(1)
    rank = [-1] * len(kind)
    for k, i in enumerate(t1):
        rank[i] = k

    table = ResumeTable([f.boundary for f in ball.factors])
    fallback = table.FALLBACK
    sibling = [table.step(MappingClass.identity(), j) for j in range(len(ball.factors))]
    down, up = {}, {}                    # steps into and out of v across its parent fan
    for v in t1:
        if label[v]:
            j, h = label[v][-1]
            down[v] = table.step(h, factor[v])
            up[v] = table.step(h.inv(), j)
    edges = []                           # per vertex: (fan, [(w, step id, leaf)])
    for u in range(len(kind)):
        edges.append([])
        if kind[u] != 1:
            continue
        for fan in adj[u]:
            out = []
            for w in adj[fan]:
                if w == u:
                    continue
                if dist[w] < dist[fan]:
                    sid = up[u]
                elif dist[fan] < dist[u]:
                    sid = sibling[factor[w]]
                else:
                    sid = down[w]
                out.append((w, sid, len(adj[w]) == 1))
            edges[u].append((fan, out))

    trans = table.trans
    pairs = []
    boundary = table.boundary
    for k, src in enumerate(t1):
        conj = None
        row = [None] * (len(t1) - k - 1)
        # (vertex, fan it came through, d_T, state, additive d)
        stack = [(src, -1, 0, table.root[factor[src]], 0)]
        while stack:
            u, via, dt, state, d = stack.pop()
            dt += 2
            row_t = trans[state]
            for fan, out in edges[u]:
                if fan == via:
                    continue
                for v, sid, leaf in out:
                    r = rank[v] - k - 1
                    if leaf and r < 0:
                        continue
                    t = row_t.get(sid) or table.entry(state, sid)
                    if t is not fallback:
                        added, before, nxt = t
                        ds = d + added
                        nd = d + before
                    else:
                        if conj is None:
                            conj = conjugator_to_infinity(
                                act(word_matrix(label[src]), boundary[factor[src]]))
                        ds, nd, nxt = table.advance(_mat_mul(conj, word_matrix(label[v])),
                                                    boundary[factor[v]], None)
                    if r >= 0:
                        row[r] = (dt, ds)
                    if not leaf:
                        stack.append((v, fan, dt, nxt, nd))
        pairs += row
    return pairs


def ball_qi_pairs(ball: TreeBall) -> PairCounts:
    """The ball walk that `qi_pairs` replaced, kept unchanged as its twin:
    the count of each (d_T, d_S) over the unordered type-1 pairs of the
    ball, d_S between the images g . boundary(H_i) of `phi`; it reads only
    the ball and each factor's reducing system.

    Ordered pairs are counted, then halved: d_T and d_S are symmetric.  From
    a source the walk climbs the ancestor cosets, across the type-2 fans
    with their `ResumeTable` states and additive d, and adds what lies
    `below` the source and, at each coset on the way, its `level`: its
    siblings, its parent and the parent's other child fans, each with all
    below.  The subtree below a coset depends only on its depth and factor,
    and a state fixes each d_S below up to the additive d, so `group`
    memoises a histogram of (d_T, d_S - d) on (state, depth, factor, and a
    level's up step) and defers it, shifted, in `terms` (histogram 0 is one
    pair).  A group that meets a fallback entry (x <= 1 after a prefix) is
    walked per source, from the source's own conjugator and the absolute
    `word_matrix` of each label, where `qi_pairs` multiplies the path.
    """
    adjacency, label, factor, dist = ball.adjacency, ball.label, ball.factor, ball.distance
    table = ResumeTable([f.boundary for f in ball.factors])
    boundary = table.boundary
    sibling = [table.step(MappingClass.identity(), j) for j in range(len(ball.factors))]
    down, up = {}, {}                    # steps into and out of v across its parent fan
    for v in ball.vertices(1):
        if label[v]:
            j, h = label[v][-1]
            down[v], up[v] = table.step(h, factor[v]), table.step(h.inv(), j)
    hists, memo, conj, terms = [{(0, 0): 1}], {}, {}, Counter()

    def move(state, sid, v, d, src):
        """(d_S, additive d, state) of v, one step from a vertex in `state`."""
        t = table.entry(state, sid)
        if t is not table.FALLBACK:
            return d + t[0], d + t[1], t[2]
        if src is None:
            raise _Fallback
        if src not in conj:
            conj[src] = conjugator_to_infinity(act(word_matrix(label[src]), boundary[factor[src]]))
        return table.advance(_mat_mul(conj[src], word_matrix(label[v])), boundary[factor[v]], None)

    def visit(terms, steps, state, dt, d, src):
        for w, sid in steps:
            ds, nd, nxt = move(state, sid, w, d, src)
            terms[0, dt, ds] += 1
            group(terms, below, w, nxt, dt, nd, src)

    def below(terms, v, state, dt, d, src, skip=None):
        visit(terms, [(w, down[w]) for fan in adjacency[v][1:] if fan != skip
                      for w in adjacency[fan][1:]], state, dt + 2, d, src)

    def level(terms, u, state, dt, d, src):
        p = adjacency[u][0]
        visit(terms, [(w, sibling[factor[w]]) for w in (adjacency[p][1:] if p else adjacency[0])
                      if w != u], state, dt + 2, d, src)
        if p:
            ds, nd, nxt = move(state, up[u], adjacency[p][0], d, src)
            terms[0, dt + 2, ds] += 1
            below(terms, adjacency[p][0], nxt, dt + 2, nd, src, skip=p)

    def group(terms, f, v, state, dt, d, src):
        key = (f, state, dist[v], factor[v], up.get(v) if f is level else None)
        if key not in memo:
            try:
                local = Counter()
                f(local, v, state, 0, 0, None)
                memo[key] = len(hists)
                hists.append(flat(local))
            except _Fallback:
                memo[key] = None
        if memo[key] is None:
            f(terms, v, state, dt, d, src)
        else:
            terms[memo[key], dt, d] += 1

    def flat(terms):
        out = Counter()
        for (h, dt, d), m in terms.items():
            for (a, b), n in hists[h].items():
                out[a + dt, b + d] += m * n
        return out

    for src in ball.vertices(1):
        u, state, dt, d = src, table.root[factor[src]], 0, 0
        group(terms, below, src, state, 0, 0, src)
        while True:
            group(terms, level, u, state, dt, d, src)
            if not (p := adjacency[u][0]):
                break
            _, d, state = move(state, up[u], adjacency[p][0], d, src)
            u, dt = adjacency[p][0], dt + 2
    ordered = flat(terms)
    if any(n % 2 for n in ordered.values()):
        raise AssertionError("an odd count of ordered pairs: d_T or d_S is not symmetric")
    return PairCounts({pair: n // 2 for pair, n in ordered.items()})


def ball_bfs_distance(ball: TreeBall, v: int, w: int) -> int:
    """Path-walk oracle for `tree_distance`: BFS in the constructed ball."""
    for x, d in bfs(v, ball.adjacency.__getitem__):
        if x == w:
            return d
    raise KeyError("vertex not reachable inside the ball")


def coset_well_defined(ball: TreeBall, v: int) -> bool:
    """Representatives g and g*h (h in the factor) must give one image."""
    if ball.kind[v] != 1:
        raise ValueError("well-definedness is about type-1 vertices")
    f = ball.factors[ball.factor[v]]
    m = word_matrix(ball.label[v])
    base = act(m, f.boundary)
    return all(act(m.mul(h), f.boundary) == base for h in f.elements)


def bounded_neighbors(s: Slope, bound: int) -> list:
    """Neighbors of s in the subgraph of slopes with |p|, |q| <= bound.

    For s = p/q with q >= 1 they are the slopes (r0 + t p)/(s0 + t q) over
    the integers t with |s0 + t q| <= bound, where s0 = p^-1 mod q and
    p s0 - q r0 = 1; the solutions of p s - q r = -1 are their negatives.
    No vector is (p, q) or 0, whose determinants against (p, q) are 0, and
    each is primitive, so it needs a sign fix only."""
    if not s.q:
        return [Slope(n, 1) for n in range(-bound, bound + 1)]
    p, q = s
    s0 = pow(p, -1, q)          # 0 when q = 1
    r0 = (p * s0 - 1) // q
    out = []
    for t in range(-((bound + s0) // q), (bound - s0) // q + 1):
        r, den = r0 + t * p, s0 + t * q
        if abs(r) <= bound:
            out.append(_new(Slope, (r, den) if den > 0 or (not den and r > 0) else (-r, -den)))
    return sorted(out, key=lambda v: (v.q, v.p))


class BfsOracle:
    """Graph-distance oracle on the denominator-bounded Farey subgraph: the
    independent twin of `farey.farey_distance`, which it shares no loop with.

    Distances computed here can only overestimate true Farey distances; the
    declared contract is stabilization, i.e. a value is accepted once it
    agrees across two denominator bounds.

    The first search numbers the `bounded_vertices` of the bound and turns
    each one's `bounded_neighbors` into a list of numbers; every search then
    runs over those lists with a list of distances.  A source outside the
    bound starts from its own bounded neighbours at distance 1.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._graph = None              # (vertices, vertex -> number, adjacency)

    def _indexed(self):
        if self._graph is None:
            verts = bounded_vertices(self.bound)
            index = {s: i for i, s in enumerate(verts)}
            adj = [[index[v] for v in bounded_neighbors(s, self.bound)] for s in verts]
            self._graph = verts, index, adj
        return self._graph

    def distances_from(self, src: Slope) -> dict:
        """BFS distances from src to every slope it reaches, as a dict in
        the order the search reaches them, src first; nothing is kept
        between calls."""
        verts, index, adj = self._indexed()
        dist = [-1] * len(verts)
        i = index.get(src)
        if i is None:
            queue, first = [index[v] for v in bounded_neighbors(src, self.bound)], 1
        else:
            queue, first = [i], 0
        for v in queue:
            dist[v] = first
        for u in queue:                 # the list grows as the search goes
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
        out = {src: 0}
        out.update(zip(map(verts.__getitem__, queue), map(dist.__getitem__, queue)))
        return out

    def distance(self, a: Slope, b: Slope):
        """BFS distance within the bound, or None if not reachable."""
        return self.distances_from(a).get(b)


def is_geodesic(path: list) -> bool:
    """Whether `path` is a nonempty Farey edge path whose length is the
    `farey_distance` between its ends."""
    if not path:
        return False
    if any(not adjacent(u, v) for u, v in zip(path, path[1:])):
        return False
    return len(path) - 1 == farey_distance(path[0], path[-1])


def plain_distance_tail(p: int, q: int, up: bool) -> tuple:
    """The slow twin of `farey.distance_tail`: its Euclid loop with no memo,
    building `added` and L = T_{a_1} T_{a_2} ... forward from x = p/q."""
    added = 0
    a, b, c, d = 1, 0, 0, 1
    while True:
        k, r = divmod(p, q)
        if not r:
            return added + 1, added, up, (a, b, c, d)
        if k == 1 and up:
            up = False
        else:
            added += 1
            up = True
        a, b, c, d = a * k + b, a, c * k + d, c
        p, q = q, r


def matrix_power(m: MappingClass, n: int) -> MappingClass:
    """m^n by repeated multiplication; n may be negative."""
    base = m if n >= 0 else m.inv()
    out = MappingClass.identity()
    for _ in range(abs(n)):
        out = out.mul(base)
    return out


def annular_projection(alpha: Slope, beta: Slope) -> frozenset:
    """Coarse projection of beta to the annulus about alpha, as a set.

    Empty iff beta equals alpha; otherwise the floor/ceiling pair of the
    conjugated slope, read as positions in the link of alpha.  The set form
    is the reference for the integer kernel `link_span`.
    """
    if alpha == beta:
        return frozenset()
    s = act(conjugator_to_infinity(alpha), beta)
    fl = s.p // s.q
    return frozenset({fl, fl + 1}) if s.p % s.q else frozenset({fl})


def annular_projection_set(alpha: Slope, curves) -> frozenset:
    """Union of annular projections of an iterable of slopes, such as a path
    (slopes equal to alpha contribute nothing); the set form of `link_span`."""
    return frozenset().union(*(annular_projection(alpha, beta) for beta in curves))


class GraphOracle:
    """BFS metric on an explicit undirected graph given as an adjacency dict."""

    def __init__(self, adjacency: dict):
        self.adj = {u: sorted(vs, key=repr) for u, vs in adjacency.items()}
        self._bfs_cache = {}

    def points(self):
        return list(self.adj)

    def _bfs(self, src) -> dict:
        """{vertex: distance from src}, in the order the BFS reached them."""
        got = self._bfs_cache.get(src)
        if got is None:
            got = self._bfs_cache[src] = dict(bfs(src, self.adj.__getitem__))
        return got

    def dist(self, a, b) -> int:
        dist = self._bfs(a)
        if b not in dist:
            raise KeyError(f"{b!r} unreachable from {a!r}")
        return dist[b]

    def geodesic(self, a, b) -> list:
        """The BFS tree path from a to b.  The BFS expands vertices in the
        order it reaches them, so the parent of a vertex is its neighbour
        reached first, one step nearer to a on an undirected graph."""
        dist = self._bfs(a)
        rank = {v: i for i, v in enumerate(dist)}
        path = [b]
        while path[-1] != a:
            path.append(min(self.adj[path[-1]], key=rank.__getitem__))
        path.reverse()
        return path

def point_to_path_distance(z, path, oracle):
    return min(oracle.dist(z, v) for v in path)


def check_gp_geodesic_bound(x, y, z, oracle, geodesic, delta) -> bool:
    """d(z, [x,y]) - 4*delta <= (x|y)_z <= d(z, [x,y]) for the geodesic
    [x,y] = `geodesic(x, y)`."""
    dz = point_to_path_distance(z, geodesic(x, y), oracle)
    gp = gromov_product(x, y, z, oracle)
    return dz - 4 * Fraction(delta) <= gp <= dz


@dataclass
class ChainReport:
    """Outcome of the local-to-global check on one chain."""

    D: Fraction                  # A + 6*delta
    hypothesis_ok: bool
    conclusion_ok: bool
    geodesic_ok: bool
    slack: Fraction              # d(x0,xn) - (sum - 2D(n-1)); >= 0 when hypothesis holds
    failures: list = field(default_factory=list)


def check_local_to_global(chain, A, delta, oracle, geodesic) -> ChainReport:
    """Chain form of the local-to-global principle, on one sampled chain.

    Hypotheses: every interior Gromov product (x_{i-1} | x_{i+1})_{x_i} <= A
    and every gap d(x_i, x_{i+1}) > 4A + 24*delta.  Conclusions: the
    concatenation loses at most 2D per interior point (D = A + 6*delta), the
    total gap sum is at most twice the end distance, and every chain point
    lies within D of the geodesic `geodesic(x_0, x_n)` between the endpoints.
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

    path = geodesic(pts[0], pts[n])
    geo_ok = True
    for i in range(1, n):
        if point_to_path_distance(pts[i], path, oracle) > D:
            geo_ok = False
            failures.append(f"point {i} farther than D from a geodesic")

    return ChainReport(D, hyp, concl and geo_ok, geo_ok, slack, failures)


def cycle_oracle(n: int) -> GraphOracle:
    return GraphOracle({i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def random_tree(n: int, seed: int) -> GraphOracle:
    """Uniform-ish random tree on vertices 0..n-1 (random attachment)."""
    rng = random.Random(seed)
    adj = {0: []}
    for v in range(1, n):
        u = rng.randrange(v)
        adj.setdefault(u, []).append(v)
        adj[v] = [u]
    return GraphOracle(adj)


class GenericTorus(TorusAnnuli):
    """The torus annuli as a system for the generic scans here, which ask
    whether an object projects to a site: a slope projects to the annulus
    about every slope but itself."""

    def projects(self, site: Slope, obj: Slope) -> bool:
        return obj != site

    def path_diam(self, site: Slope, path) -> int:
        """Diameter of a projecting path's image in one `farey.link_span`
        fold: `system_bgit_scan` on this system is the list form of
        `bgit_scan`."""
        lo, hi = farey.link_span(site, path)
        return hi - lo


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


def sample_overlapping_triples(n: int, rng: random.Random, qmax: int = 10000):
    """Lazy sample of `n` triples of distinct slopes of `random_slopes`.  It
    stops right after the n-th triple, so it draws only for what it yields,
    and a scan that reads it once holds one triple at a time: the B samples
    that `estimate_constants` no longer draws."""
    draw = random_slopes(rng, qmax).__next__
    while n > 0:
        x, y, z = draw(), draw(), draw()
        if x != y and y != z and x != z:
            yield x, y, z
            n -= 1


def system_behrstock_scan(system, triples) -> BehrstockReport:
    """The `behrstock_scan` of any projection system, three `proj_dist`
    reads per triple at most: the scan the tree fixture's tests run, and the
    measured twin of the torus scan's closed form.

    The level of a triple is the median of its three reads, so when the
    first two are at most the worst level so far, so is the median, and the
    third is not read."""
    worst = 0
    count = 0
    overlaps, proj_dist = system.overlaps, system.proj_dist
    for x, y, z in triples:
        for u, v in ((x, y), (y, z), (x, z)):
            if not overlaps(u, v):
                raise OverlapError(f"sites {u!r}, {v!r} do not overlap")
        count += 1
        a = proj_dist(x, y, z)
        b = proj_dist(y, x, z)
        if a > worst or b > worst:
            worst = max(worst, sorted((a, b, proj_dist(z, x, y)))[1])
    return BehrstockReport(count, worst + 1)


def system_bgit_scan(system, site, geodesic) -> BgitReport:
    """The `bgit_scan` of any projection system with a one-fold `path_diam`:
    the scan the tree fixture's tests run, and the generic form of the torus
    scan."""
    path = list(geodesic)
    for u, v in zip(path, path[1:]):
        if system.ambient_dist(u, v) != 1:
            raise ValueError("input sequence is not an ambient geodesic")
    if len(path) >= 2 and system.ambient_dist(path[0], path[-1]) != len(path) - 1:
        raise ValueError("input sequence is not distance-realizing")
    for v in path:
        if not system.projects(site, v):
            return BgitReport(False, None)
    return BgitReport(True, system.path_diam(site, path) if path else 0)


def pairwise_bgit_scan(system, site, geodesic):
    """The O(L^2) `bgit_scan` of pairwise `proj_dist` reads, before one span
    fold replaced them: its slow twin."""
    path = list(geodesic)
    for u, v in zip(path, path[1:]):
        if system.ambient_dist(u, v) != 1:
            raise ValueError("input sequence is not an ambient geodesic")
    if len(path) >= 2 and system.ambient_dist(path[0], path[-1]) != len(path) - 1:
        raise ValueError("input sequence is not distance-realizing")
    for v in path:
        if not system.projects(site, v):
            return BgitReport(False, None)
    diam = 0
    for i in range(len(path)):
        for j in range(i, len(path)):
            d = system.proj_dist(site, path[i], path[j])
            if d > diam:
                diam = d
    return BgitReport(True, diam)


def nine_call_behrstock_scan(system, triples):
    """The `behrstock_scan` that made 9 distance calls per triple, three of
    them repeats: its slow twin."""
    worst = 0
    count = 0
    for triple in triples:
        x, y, z = triple
        for u, v in ((x, y), (y, z), (x, z)):
            if not system.overlaps(u, v):
                raise OverlapError(f"sites {u!r}, {v!r} do not overlap")
        count += 1
        for mid, o1, o2 in ((y, x, z), (x, y, z), (z, x, y)):
            d_mid = system.proj_dist(mid, o1, o2)
            d_max = max(system.proj_dist(o1, mid, o2), system.proj_dist(o2, mid, o1))
            level = min(d_mid, d_max)
            if level > worst:
                worst = level
    return BehrstockReport(count, worst + 1)


def slow_estimate_constants(seed: int, n_triples: int, n_geodesics: int,
                            qmax: int) -> ConstantEstimates:
    """The slow twin of `estimate_constants`, on the same seeded samples: the
    B samples go through `nine_call_behrstock_scan`, the M samples through
    the draw loop of `geodesic_image_bounds` with `bgit_scan(site, a, b)`
    read as `pairwise_bgit_scan` of the list `farey_geodesic(a, b)`, whose
    edges and ends it checks again and whose slopes it reads in pairs, and
    the c samples through the same scan."""
    system = GenericTorus()

    def scan_B(r):
        return nine_call_behrstock_scan(system, sample_overlapping_triples(n_triples, r, qmax)).B_emp

    def scan_M(r):
        worst = 0
        draw = random_slopes(r, qmax).__next__
        for _ in range(n_geodesics):
            site = draw()
            if r.random() < 0.5:
                base = draw()
                if base == site:
                    continue
                a, b = base, act(farey.twist_about(site, r.randrange(1, 12)), base)
            else:
                a, b = draw(), draw()
            if a == b:
                continue
            rep = pairwise_bgit_scan(system, site, farey.farey_geodesic(a, b))
            if rep.all_project and rep.diameter > worst:
                worst = rep.diameter
        return worst

    def scan_c(r):
        ratios = []
        draw = random_slopes(r, 50).__next__
        for _ in range(200):
            site = draw()
            beta = draw()
            if beta == site:
                continue
            n = r.randrange(1, 100)
            d = system.proj_dist(site, act(farey.twist_about(site, n), beta), beta)
            ratios.append(Fraction(d, n))
        return min(ratios)

    b1, b2 = scan_B(random.Random(seed)), scan_B(random.Random(seed + 1001))
    m1, m2 = scan_M(random.Random(seed + 2)), scan_M(random.Random(seed + 1003))
    c1, c2 = scan_c(random.Random(seed + 4)), scan_c(random.Random(seed + 1005))
    return ConstantEstimates(M_emp=max(m1, m2), B_emp=max(b1, b2), c_emp=min(c1, c2),
                             samples={"B": (b1, b2), "M": (m1, m2), "c": (c1, c2)},
                             stable=(b2 <= b1) and (m2 <= m1) and (c2 >= c1))


def triple_check_misaligned(factors, A) -> MisalignmentReport:
    """The slow twin of `constructions.check_misaligned`: one
    `hypgraph.gromov_product` on a `FareyOracle`, three distance calls, per
    distinct ordered triple."""
    A = Fraction(A)
    bs = [f.boundary for f in factors]
    n = len(bs)
    if n < 3:
        return MisalignmentReport({}, None, True, vacuous=True)
    oracle = FareyOracle()
    table = {(i, j, k): gromov_product(bs[i], bs[j], bs[k], oracle)
             for k in range(n) for i in range(n) for j in range(n) if len({i, j, k}) == 3}
    minimum = min(table.values())
    return MisalignmentReport(table, minimum, minimum >= A)


def oracle_definite_distance_scan(factor, sample_curves, M_emp) -> DefiniteDistanceReport:
    """The slow twin of `constructions.definite_distance_scan`: it measures
    d(a, dH) and each d(a, g a) per curve, with no shared table."""
    ks = [Fraction(d_bdry - 3, farey.farey_distance(a, act(g, a)))
          for a in sample_curves
          for d_bdry in [farey.slope_set_distance(a, factor.boundary)] if d_bdry > 3
          for g in factor.elements]
    return DefiniteDistanceReport(max([Fraction(1), *ks]), Fraction(M_emp + 3, 2), len(ks))


def oracle_gromov_bound_scan(factor, sample_curves, delta, K) -> GromovBoundReport:
    """The slow twin of `constructions.gromov_bound_scan`: each product
    (a | g a) at the reducing system is one `hypgraph.gromov_product` on a
    `FareyOracle`, with no use of g fixing the reducing system."""
    delta, K = Fraction(delta), Fraction(K)
    oracle = FareyOracle()
    products = [gromov_product(a, act(g, a), factor.boundary, oracle)
                for a in sample_curves if a != factor.boundary for g in factor.elements]
    worst = max([Fraction(0), *products])
    closed = 4 * delta + (12 * delta + 3) * K + 5
    return GromovBoundReport(worst, closed, worst <= closed, len(products))


def shell_sites(beta: Slope, shell_bound: int) -> set:
    """Annuli within distance one of the curve: the curve itself and the
    stretch of its link within `shell_bound` positions of zero (the link of
    a vertex is the conjugated integer line, so this enumerates bona fide
    Farey neighbors whatever the denominators)."""
    minv = conjugator_to_infinity(beta).inv()
    return {beta}.union(act(minv, Slope(k, 1)) for k in range(-shell_bound, shell_bound + 1))


def shell_best(shell: set, a: Slope, b: Slope):
    """The greatest d_Y(a, b) over the `shell_sites` both curves project to,
    or None when there is none."""
    return max((farey.annular_distance(y, a, b) for y in shell if y != a and y != b),
               default=None)


def shell_check_displacing(factors, L: int, shell_bound: int) -> DisplacingReport:
    """The slow twin of `constructions.check_displacing`: the same tuples,
    each searched over the 2 `shell_bound` + 1 link positions of
    `shell_sites` instead of the exact candidate annuli, so a tuple's best is
    a lower bound of the exact one, or None when no shell site sees both."""
    n = len(factors)
    betas = [f.boundary for f in factors]
    sep_ok = all(farey.slope_set_distance(betas[i], betas[j]) >= 5
                 for i in range(n) for j in range(i + 1, n))
    misses = []
    min_margin = None
    for j in range(n):
        shell = shell_sites(betas[j], shell_bound)
        for i in range(n):
            for k in range(n):
                if i == j or k == j:
                    continue
                for e_idx, h in enumerate(factors[j].elements):
                    best = shell_best(shell, betas[i], act(h, betas[k]))
                    if best is None or best < L:
                        misses.append((i, j, k, e_idx, best))
                    elif min_margin is None or best < min_margin:
                        min_margin = best
    return DisplacingReport(sep_ok, min_margin, misses, sep_ok and not misses)


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


def word(*syllables) -> Word:
    return tuple((int(g), int(e)) for g, e in syllables)


def inverse_word(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def concat(*words) -> Word:
    return tuple(chain(*words))


def commute(graph: PresentationGraph, i: int, j: int) -> bool:
    """Whether generators i and j are distinct and joined by an edge: the
    edge-set test that `PresentationGraph.neighbours` replaces in the package."""
    return i != j and (min(i, j), max(i, j)) in graph.edges


def rewrite_moves(graph: PresentationGraph, w: Word) -> list:
    """All single applications of: drop a zero syllable; merge two syllables
    of one generator across a commuting block; move a syllable left across a
    commuting block headed by a larger generator.  Each move yields a
    shortlex-smaller word, so random application terminates."""
    moves = []
    n = len(w)
    for i, (g, e) in enumerate(w):
        if e == 0:
            moves.append(w[:i] + w[i + 1:])
    for i in range(n):
        gi, ei = w[i]
        for j in range(i + 1, n):
            gj, ej = w[j]
            if gj == gi:
                if all(commute(graph, gi, w[k][0]) for k in range(i + 1, j)):
                    moves.append(w[:i] + ((gi, ei + ej),) + w[i + 1:j] + w[j + 1:])
                break
            if not commute(graph, gi, gj):
                break
    for j in range(n):
        # move w[j] left past any block it commutes with, landing before a
        # larger generator; every such move is strictly shortlex-decreasing
        gj, ej = w[j]
        i = j - 1
        while i >= 0:
            gi = w[i][0]
            if gi == gj or not commute(graph, gi, gj):
                break
            if gj < gi:
                moves.append(w[:i] + ((gj, ej),) + w[i:j] + w[j + 1:])
            i -= 1
    return moves


def random_rewrite(graph: PresentationGraph, w: Word, rng: random.Random) -> Word:
    """Apply applicable moves in random order until none remain."""
    current = tuple(w)
    while True:
        moves = rewrite_moves(graph, current)
        if not moves:
            return current
        current = moves[rng.randrange(len(moves))]


DISJOINT = "disjoint"
OVERLAP = "overlap"
NESTED = "nested"
BOUNDARY_ANNULUS = "boundary-annulus"
EQUAL = "equal"


@dataclass(frozen=True)
class AbstractFamily:
    """Declared pairwise relations among abstract supports S_1..S_n.

    The realization graph has an edge exactly where supports are disjoint;
    admissibility bars nesting and boundary annuli between distinct members.
    """

    n: int
    relations: tuple  # ((i, j, relation), ...) for i < j

    @staticmethod
    def of(n: int, rels: dict) -> "AbstractFamily":
        table = []
        for (i, j), r in sorted(rels.items()):
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i}, {j})")
            if r not in (DISJOINT, OVERLAP, NESTED, BOUNDARY_ANNULUS, EQUAL):
                raise ValueError(f"unknown relation {r!r}")
            table.append((i, j, r))
        if len(table) != n * (n - 1) // 2:
            raise ValueError("every unordered pair needs a declared relation")
        return AbstractFamily(n, tuple(table))

    def realization_graph(self) -> PresentationGraph:
        edges = [(i, j) for i, j, r in self.relations if r == DISJOINT]
        return PresentationGraph.of(self.n, edges)

def admissibility_check(family: AbstractFamily):
    """(ok, violating_pair): no distinct pair may be nested or a boundary annulus."""
    for i, j, r in family.relations:
        if r in (NESTED, BOUNDARY_ANNULUS, EQUAL):
            return False, (i, j)
    return True, None

@dataclass
class Bookkeeping:
    """Letters of an alternating word with their support indices.

    nu[t] = generator of letter t of the flattened word (the subwords' normal
    forms, concatenated); sigma[s] = index of the first letter of subword s; iota/tau give, for each
    letter, the nearest earlier/later letter whose support overlaps it (None
    at the ends).  Every letter strictly between iota(j) and tau(j) equals
    or commutes with letter j, by definition: iota(j) and tau(j) are the
    nearest letters that overlap j, and a letter overlaps j unless it
    equals or commutes with it.  Such a letter also shares j's subword
    (`support_bookkeeping` shows why).
    """

    nu: list
    sigma: list
    iota: list
    tau: list

def letters_overlap(graph: PresentationGraph, gi: int, gj: int) -> bool:
    """Supports overlap iff distinct and not disjoint (no realization edge)."""
    return gi != gj and not commute(graph, gi, gj)

def nearest_overlaps(n: int, overlap) -> tuple:
    """(iota, tau) for positions 0..n-1: iota[j] is the largest t < j and
    tau[j] the least t > j with overlap(min(j, t), max(j, t)), None where no
    such t exists."""
    iota = [None] * n
    tau = [None] * n
    for j in range(n):
        for t in range(j - 1, -1, -1):
            if overlap(t, j):
                iota[j] = t
                break
        for t in range(j + 1, n):
            if overlap(j, t):
                tau[j] = t
                break
    return iota, tau

def support_bookkeeping(graph: PresentationGraph, parts: list, subwords: list) -> Bookkeeping:
    """Flatten an alternating word over a free-product decomposition.

    `parts` partitions the vertices of `graph` into blocks with no edges
    between distinct blocks; `subwords` is a list of (part_index, word) with
    consecutive part indices distinct.  Subwords are put in normal form
    before concatenation.

    Once the partition is validated, every letter t strictly between iota(j)
    and tau(j) lies in letter j's subword.  Say
    t < j, with t in subword a and j in subword b > a.  Subword b - 1 lies in
    a part other than b's, and no edge joins distinct parts, so its letters
    overlap letter j.  If b - 1 = a, that makes t <= iota(j); otherwise
    subword b - 1 lies between t and j, and again iota(j) > t.  The case
    t > j is the mirror image.
    """
    part_of = {}
    for k, block in enumerate(parts):
        for v in block:
            if v in part_of:
                raise ValueError(f"vertex {v} in two parts")
            part_of[v] = k
    if set(part_of) != set(range(graph.n)):
        raise ValueError("parts must partition the vertices")
    for i, j in graph.edges:
        if part_of[i] != part_of[j]:
            raise ValueError(f"edge ({i}, {j}) crosses distinct parts")

    nu = []
    sigma = []
    prev_part = None
    for k, w in subwords:
        if k == prev_part:
            raise ValueError("consecutive subwords from the same part")
        prev_part = k
        nf = normal_form(graph, w)
        if not nf:
            raise ValueError("empty subword after reduction breaks alternation")
        for g, _ in nf:
            if part_of[g] != k:
                raise ValueError(f"generator x{g + 1} not in part {k}")
        sigma.append(len(nu))
        nu.extend(g for g, _ in nf)

    iota, tau = nearest_overlaps(len(nu), lambda i, j: letters_overlap(graph, nu[i], nu[j]))
    return Bookkeeping(nu, sigma, iota, tau)
