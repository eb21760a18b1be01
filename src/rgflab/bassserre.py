"""Bass-Serre trees of free products, the equivariant orbit map into the
Farey graph, embedding certificates, and free-product injectivity search.

Elements of the abstract free product are alternating normal forms: tuples
of syllables (factor index, element) with consecutive factors distinct and
every element nontrivial in its factor.  Type-2 vertices are labeled by
normal forms, type-1 vertices by cosets (prefix, factor); the vertex for
gH_i drops a trailing i-syllable from g, which makes the label canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd

from . import farey, hypgraph
from .farey import MappingClass, Slope, act, conjugator_to_infinity
from .subgroups import (MatrixGroup, common_parabolic_fixed_slope, enumerate_ball,
                        group_is_finite)


@dataclass(frozen=True)
class FactorSpec:
    """One free-product factor: a torus matrix group with its reducing system.

    `budget` bounds the factor elements enumerated when building coset fans
    and relation searches: word length in the group's generators.
    """

    name: str
    group: MatrixGroup
    boundary: frozenset
    budget: int = 2

    @staticmethod
    def twist(name: str, alpha: Slope, power: int = 1, budget: int = 2) -> "FactorSpec":
        gen = farey.twist_about(alpha, power)
        return FactorSpec(name, MatrixGroup.of(gen), frozenset({alpha}), budget)

    def elements(self) -> tuple:
        """Nontrivial elements (projectively deduped), deterministic order;
        enumerated once per factor."""
        return self._elements

    # cached properties live in the instance __dict__, outside the dataclass
    # fields, so `==`, `hash` and `repr` do not see them
    @cached_property
    def _elements(self) -> tuple:
        out = {}
        for m in enumerate_ball(self.group, self.budget).values():
            if not m.is_identity():
                out.setdefault(m.projective_key(), m)
        return tuple(out[key] for key in sorted(out))

    @cached_property
    def parabolic(self) -> tuple | None:
        """(alpha, n) when the factor acts on slopes as the cyclic parabolic
        group x -> x + kn in the link coordinate of its fixed slope alpha
        (alpha sent to 1/0 by `conjugator_to_infinity`); None otherwise.

        n is the gcd of the generators' translations there; central
        generators translate by 0 and leave it unchanged.
        """
        alpha = common_parabolic_fixed_slope(self.group)
        if alpha is None:
            return None
        c = conjugator_to_infinity(alpha)
        n = 0
        for g in self.group.generators:
            h = c.mul(g).mul(c.inv())
            n = gcd(n, h.b * h.d)
        return alpha, n


def syllables_mul(word1: tuple, word2: tuple) -> tuple:
    """Concatenate two alternating normal forms, reducing at the seam."""
    left = list(word1)
    right = list(word2)
    while left and right and left[-1][0] == right[0][0]:
        i = left[-1][0]
        prod = left[-1][1].mul(right[0][1])
        left.pop()
        right.pop(0)
        if not prod.is_identity():
            left.append((i, prod))
            break
    return tuple(left) + tuple(right)


def syllables_inv(word: tuple) -> tuple:
    return tuple((i, m.inv()) for i, m in reversed(word))


def word_matrix(word: tuple) -> MappingClass:
    out = MappingClass.identity()
    for _, m in word:
        out = out.mul(m)
    return out


def _word_key(word: tuple) -> tuple:
    return tuple((i, m.projective_key()) for i, m in word)


@dataclass(frozen=True)
class Vertex:
    """Tree vertex: kind 2 carries a normal form; kind 1 a coset (prefix, factor)."""

    kind: int
    prefix: tuple          # projective keys, canonical label
    factor: int = -1

    def __repr__(self):
        if self.kind == 2:
            return f"v2({len(self.prefix)} syl)"
        return f"v1({len(self.prefix)} syl; H{self.factor})"


def type2_vertex(word: tuple) -> Vertex:
    return Vertex(2, _word_key(word))

def type1_vertex(word: tuple, i: int) -> Vertex:
    prefix = word[:-1] if word and word[-1][0] == i else word
    return Vertex(1, _word_key(prefix), i)


@dataclass
class TreeBall:
    """Radius-r ball about v(1) in the Bass-Serre tree.

    Coset fans at type-1 vertices are enumerated only up to the per-factor
    budget; `truncated` marks vertices whose fan was cut, never silently.
    """

    factors: list
    radius: int
    adjacency: dict
    distance: dict                 # from the center v(1)
    words: dict                    # type-2 vertex -> normal form (with matrices)
    prefixes: dict                 # type-1 vertex -> prefix normal form
    truncated: set = field(default_factory=set)

    def vertices(self, kind: int | None = None):
        if kind is None:
            return list(self.adjacency)
        return [v for v in self.adjacency if v.kind == kind]

    def type1_pairs(self):
        t1 = self.vertices(1)
        for i in range(len(t1)):
            for j in range(i + 1, len(t1)):
                yield t1[i], t1[j]


def build_ball(factors: list, radius: int) -> TreeBall:
    """Breadth-first ball construction; deterministic for fixed budgets."""
    if not factors:
        raise ValueError("need at least one factor")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    elements = [f.elements() for f in factors]
    infinite = [not _factor_closed(f) for f in factors]

    center = type2_vertex(())
    adjacency = {center: set()}
    distance = {}
    words = {center: ()}
    prefixes = {}
    truncated = set()

    def neighbours(u):
        """The fan at u, recording edges and the first label of each vertex."""
        fan = []
        if u.kind == 2:
            g = words[u]
            for i in range(len(factors)):
                v = type1_vertex(g, i)
                prefixes.setdefault(v, g[:-1] if g and g[-1][0] == i else g)
                fan.append(v)
        else:
            g = prefixes[u]
            for tail in [()] + [((u.factor, m),) for m in elements[u.factor]]:
                w = syllables_mul(g, tail)
                v = type2_vertex(w)
                words.setdefault(v, w)
                fan.append(v)
        for v in fan:
            adjacency[u].add(v)
            adjacency.setdefault(v, set()).add(u)
        return fan

    for v, _, d in hypgraph.bfs([center], neighbours, radius):
        distance[v] = d
        if v.kind == 1 and infinite[v.factor]:
            truncated.add(v)
    return TreeBall(list(factors), radius, adjacency, distance, words, prefixes, truncated)


def _factor_closed(f: FactorSpec) -> bool:
    finite, _ = group_is_finite(f.group, f.budget)
    return finite


def tree_distance(ball: TreeBall, v: Vertex, w: Vertex) -> int:
    """Exact free-product tree distance between ball vertices.

    Between elements, d(v(g), v(g')) is twice the syllable length of the
    reduced form of g^{-1} g'.  A coset endpoint saves one tree edge and any
    matching boundary syllable, since the nearest coset representative may
    absorb it: with c the reduced word between the labels,
      d(v(g), v(g'H_j))     = 1 + 2*(syl(c) - [c ends in factor j]),
      d(v(gH_i), v(g'H_j))  = 2 + 2*(syl(c) - [c starts in i] - [c ends in j])
    for distinct cosets (canonical labels make the degenerate single-syllable
    collision impossible).
    """
    if v == w:
        return 0
    a = ball.words[v] if v.kind == 2 else ball.prefixes[v]
    b = ball.words[w] if w.kind == 2 else ball.prefixes[w]
    c = syllables_mul(syllables_inv(a), b)
    if v.kind == 2 and w.kind == 2:
        return 2 * len(c)
    if v.kind == 2:
        drop = 1 if c and c[-1][0] == w.factor else 0
        return 1 + 2 * (len(c) - drop)
    if w.kind == 2:
        drop = 1 if c and c[0][0] == v.factor else 0
        return 1 + 2 * (len(c) - drop)
    drop_front = 1 if c and c[0][0] == v.factor else 0
    drop_back = 1 if c and c[-1][0] == w.factor else 0
    if len(c) == 1 and drop_front and drop_back:
        raise AssertionError("distinct cosets cannot share a canonical label")
    return 2 + 2 * (len(c) - drop_front - drop_back)


def ball_bfs_distance(ball: TreeBall, v: Vertex, w: Vertex) -> int:
    """Path-walk oracle: BFS in the constructed ball."""
    for x, _, d in hypgraph.bfs([v], ball.adjacency.__getitem__):
        if x == w:
            return d
    raise KeyError("vertex not reachable inside the ball")


# ---------------------------------------------------------------------------
# The orbit map into the Farey graph.


def phi(ball: TreeBall, base_curve: Slope) -> dict:
    """Vertex labels in the curve graph: v(gH_i) -> g . boundary(H_i) and
    v(g) -> {g . base_curve}."""
    images = {}
    for v in ball.vertices():
        if v.kind == 2:
            m = word_matrix(ball.words[v])
            images[v] = frozenset({act(m, base_curve)})
        else:
            m = word_matrix(ball.prefixes[v])
            images[v] = frozenset(act(m, s) for s in ball.factors[v.factor].boundary)
    return images


def coset_well_defined(ball: TreeBall, v: Vertex) -> bool:
    """Representatives g and g*h (h in the factor) must give one image set."""
    if v.kind != 1:
        raise ValueError("well-definedness is about type-1 vertices")
    f = ball.factors[v.factor]
    m = word_matrix(ball.prefixes[v])
    base = frozenset(act(m, s) for s in f.boundary)
    for h in f.elements():
        mh = m.mul(h)
        if frozenset(act(mh, s) for s in f.boundary) != base:
            return False
    return True


@dataclass
class QiReport:
    pairs: list                   # (d_T, d_S) per type-1 pair
    min_ratio: Fraction | None
    kappa_witness: int | None     # least integer k with d_S >= d_T/k - k on all pairs
    benchmark_ok: bool            # d_S >= d_T/2 - 4 on all pairs
    kappa_given: int | None = None
    kappa_given_ok: bool | None = None
    lower_envelope: dict = field(default_factory=dict)   # d_T -> min d_S
    fit: tuple | None = None      # least-squares (slope, intercept) on the envelope


def qi_certificate(ball: TreeBall, images: dict, kappa: int | None = None) -> QiReport:
    """Scan all type-1 pairs of the labeled ball (`qi_pairs`) against the
    affine lower bound d_S >= d_T / kappa - kappa and the benchmark
    d_S >= d_T/2 - 4 that displacing families achieve (`qi_report`)."""
    return qi_report(qi_pairs(ball, images), kappa)


def qi_pairs(ball: TreeBall, images: dict) -> list:
    """(d_T, d_S) for every type-1 pair of the labeled ball, in
    `type1_pairs` order, from one breadth-first walk per source vertex over
    integer vertex ids.

    d_T is the depth of the walk, exact because the ball is a connected
    subtree of the Bass-Serre tree.  For a source with one image slope alpha,
    d_S is the distance from 1/0 after `conjugator_to_infinity(alpha)`,
    resumed from the previous type-1 vertex u on the tree path: u keeps the
    convergent matrix T of its image's partial quotients before the last one
    and the distance state after them (`farey.distance_state`), as
    R = adj(T) C with C the conjugator.  A child's image beta has the
    complete quotient x = R.beta; when x > 1, its continued fraction is T's
    followed by x's, so only x is expanded (`farey.distance_tail`), memoised
    on the exact key (x, state).  Otherwise the child takes the full kernel.
    A pair with an image of more than one slope takes
    `farey.slope_set_distance`.  Resume points live for one source.
    """
    # type-2 leaves lie on no path between type-1 vertices, so no walk needs them
    verts = [v for v, fan in ball.adjacency.items() if v.kind == 1 or len(fan) > 1]
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[w] for w in ball.adjacency[v] if w in index] for v in verts]
    t1 = [index[v] for v in ball.vertices(1)]
    rank = [-1] * len(verts)
    for k, i in enumerate(t1):
        rank[i] = k
    slope = [None] * len(verts)          # the image slope, when there is one
    for i in t1:
        if len(images[verts[i]]) == 1:
            (slope[i],) = images[verts[i]]
    # bounded, so a family whose tails do not repeat cannot grow it unchecked
    tail = lru_cache(maxsize=4096)(farey.distance_tail)

    pairs = []
    for k, src in enumerate(t1):
        conj = None if slope[src] is None else conjugator_to_infinity(slope[src])
        parent = {}
        resume = {src: None}             # type-1 id -> (R, d, up) or None
        row = [None] * (len(t1) - k - 1)
        for v, u, d in hypgraph.bfs([src], adj.__getitem__):
            parent[v] = u
            if rank[v] <= k:
                continue
            # v, then the type-1 vertices above it not yet settled (lower ranks)
            path = [v]
            while parent[parent[path[-1]]] not in resume:
                path.append(parent[parent[path[-1]]])
            for w in reversed(path):     # ends with v, whose d_S is left in ds
                if conj is None or slope[w] is None:
                    resume[w] = None
                else:
                    ds, resume[w] = _resumed_distance(resume[parent[parent[w]]],
                                                      slope[w], conj, tail)
            if conj is None or slope[v] is None:
                ds = farey.slope_set_distance(images[verts[src]], images[verts[v]])
            row[rank[v] - k - 1] = (d, ds)
        pairs += row
    return pairs


def _resumed_distance(point, beta: Slope, conj: MappingClass, tail) -> tuple:
    """(distance from 1/0 to conj.beta, resume point of beta), given the
    resume point (R, d, up) of the previous type-1 vertex on the path, or
    None; `tail` is the memoised `farey.distance_tail`.  See `qi_pairs`."""
    if point is not None:
        (r0, r1, r2, r3), d, up = point
        x, y = r0 * beta.p + r1 * beta.q, r2 * beta.p + r3 * beta.q
        if y < 0:
            x, y = -x, -y
        if x > y > 0:
            added, before, up, (a, b, c, e) = tail(x, y, up)
            return d + added, ((e * r0 - b * r2, e * r1 - b * r3,
                                a * r2 - c * r0, a * r3 - c * r1), d + before, up)
    s = act(conj, beta)
    dist, point = farey.distance_state(s.p, s.q)
    if point is None:
        return dist, None
    (a, b, c, e), d, up = point
    return dist, ((e * conj.a - b * conj.c, e * conj.b - b * conj.d,
                   a * conj.c - c * conj.a, a * conj.d - c * conj.b), d, up)


def qi_report(pairs: list, kappa: int | None = None) -> QiReport:
    """The certificate of a pair table: the least integer kappa with
    d_S >= d_T / kappa - kappa on every pair, whether a given kappa holds,
    the benchmark d_S >= d_T/2 - 4, and the lower envelope with its fit.

    Both bounds are checked in integers, multiplied through: for k >= 1,
    d_S >= d_T/k - k holds iff k * (d_S + k) >= d_T, and the benchmark
    holds iff 2 * d_S >= d_T - 8.  So `kappa` must be at least 1.  Every
    bound, and the least ratio d_S/d_T, is monotone in d_S, so each is read
    off the envelope d_T -> min d_S.
    """
    if kappa is not None and kappa < 1:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    envelope = {}
    for dt, ds in pairs:
        if dt not in envelope or ds < envelope[dt]:
            envelope[dt] = ds

    def holds(k):
        return all(k * (ds + k) >= dt for dt, ds in envelope.items())

    least = None                  # (d_T, d_S) of the least ratio, cross-multiplied
    for dt, ds in envelope.items():
        if dt > 0 and (least is None or ds * least[0] < least[1] * dt):
            least = (dt, ds)
    min_ratio = None if least is None else Fraction(least[1], least[0])
    bench = all(2 * ds >= dt - 8 for dt, ds in envelope.items())
    kappa_witness = None
    if pairs:
        kappa_witness = 1
        while not holds(kappa_witness):
            kappa_witness += 1
    given_ok = None if kappa is None else holds(kappa)

    fit = None
    if len(envelope) >= 2:
        xs = sorted(envelope)
        n = len(xs)
        sx = sum(xs)
        sy = sum(envelope[x] for x in xs)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * envelope[x] for x in xs)
        den = n * sxx - sx * sx
        if den:
            slope = Fraction(n * sxy - sx * sy, den)
            fit = (slope, Fraction(sy, n) - slope * Fraction(sx, n))

    return QiReport(pairs, min_ratio, kappa_witness, bench, kappa, given_ok,
                    envelope, fit)


# ---------------------------------------------------------------------------
# Relation search and loxodromic scans.


@dataclass
class PingPongReport:
    certified: bool
    windows: list                 # per factor, closed (lo, hi) in its link coordinate
    failing_pair: tuple | None    # (i, j): W_j's complement does not map into W_i
    reason: str | None = None


def _mobius(m: MappingClass, x: Fraction) -> Fraction | None:
    """m acting on a finite link coordinate x; None when the image is 1/0."""
    den = m.c * x.numerator + m.d * x.denominator
    return Fraction(m.a * x.numerator + m.b * x.denominator, den) if den else None


def pingpong_certificate(factors: list) -> PingPongReport:
    """Klein's ping-pong for factors that act on slopes as cyclic parabolic
    groups (`FactorSpec.parabolic`); exact rational arithmetic throughout.

    Factor i, with fixed slope alpha_i and translation n_i, gets the closed
    window W_i of length n_i in alpha_i's link coordinate (alpha_i at 1/0),
    centred on the midpoint of the least and greatest coordinates of the
    other fixed slopes.  Let X_i be the open arc outside W_i; it contains
    alpha_i.  Every x -> x + kn_i with k != 0 maps W_i into X_i, so if each
    X_j (j != i) lies in W_i, every nontrivial element of factor i maps X_j
    into X_i, and the factors generate their free product.  X_j lies in W_i
    when C_i C_j^-1 (C the conjugators) sends the endpoints of W_j and alpha_j
    to finite points, the endpoints lie in W_i and alpha_j lies strictly
    between them.  A failure disproves nothing: the windows may be badly
    placed, or the factors may not be free.
    """
    if len(factors) < 2:
        return PingPongReport(False, [], None, "fewer than two factors")
    for i, f in enumerate(factors):
        if f.parabolic is None:
            return PingPongReport(False, [], None, f"factor {i} is not parabolic")
    slopes = [f.parabolic[0] for f in factors]
    for i, j in combinations(range(len(factors)), 2):
        if slopes[i] == slopes[j]:
            return PingPongReport(False, [], (i, j),
                                  f"factors {i} and {j} share the fixed slope {slopes[i]}")
    conj = [conjugator_to_infinity(s) for s in slopes]

    def coordinate(i, j):
        # alpha_j in alpha_i's link coordinate, finite since alpha_j != alpha_i
        s = act(conj[i], slopes[j])
        return Fraction(s.p, s.q)

    windows = []
    for i, f in enumerate(factors):
        others = [coordinate(i, j) for j in range(len(factors)) if j != i]
        centre = (min(others) + max(others)) / 2
        half = Fraction(f.parabolic[1], 2)
        windows.append((centre - half, centre + half))
    for i, (lo, hi) in enumerate(windows):
        for j in range(len(factors)):
            if j == i:
                continue
            m = conj[i].mul(conj[j].inv())
            ends = [_mobius(m, x) for x in windows[j]]
            if None in ends or not all(lo <= e <= hi for e in ends) \
                    or not min(ends) < coordinate(i, j) < max(ends):
                return PingPongReport(False, windows, (i, j),
                                      f"the arc outside window {j} does not map into window {i}")
    return PingPongReport(True, windows, None)


@dataclass
class FreeProductReport:
    no_relation: bool
    witness: tuple | None         # alternating word mapping to +-identity
    budget: int
    words_checked: int


def free_product_check(factors: list, budget: int = 8) -> FreeProductReport:
    """Search alternating normal-form words up to a syllable budget for one
    that maps to the (projective) identity.

    When `pingpong_certificate` proves that the factors generate their free
    product, no word of any length is a relation, so the search is skipped:
    the report is the one the search would give, with `words_checked` the
    number of words it would check (`_search_size`), which the verdict
    covers.  Otherwise `_relation_search` runs.
    """
    if pingpong_certificate(factors).certified:
        return FreeProductReport(True, None, budget, _search_size(factors, budget))
    return _relation_search(factors, budget)


def _search_size(factors: list, budget: int) -> int:
    """The words `_relation_search` checks when it finds no relation: one per
    first-half word of ceil(total/2) syllables, for each total in 2..budget.

    With e_i elements in factor i, ends[k-1][i] alternating words of k
    syllables end in factor i: ends_1[i] = e_i and
    ends_k[i] = e_i * (sum(ends_{k-1}) - ends_{k-1}[i]).
    """
    sizes = [len(f.elements()) for f in factors]
    ends = [sizes]
    total = 0
    for t in range(2, budget + 1):
        a = (t + 1) // 2
        while len(ends) < a:
            s = sum(ends[-1])
            ends.append([e * (s - last) for e, last in zip(sizes, ends[-1])])
        total += sum(ends[a - 1])
    return total


def _relation_search(factors: list, budget: int) -> FreeProductReport:
    """Meet-in-the-middle search on matrices for a relation of at most
    `budget` syllables; the code path of `free_product_check` when ping-pong
    does not decide, and its slow twin when it does.

    A word of `total` syllables splits as a first half of a = ceil(total/2)
    and a second of b = total - a >= 1 syllables.  The layer of a-syllable
    words and the index of b-syllable words by projective key are built
    lazily, the first time a total needs them, so a relation found early
    never pays for the longer layers.  Returns the shortest witness found,
    if any.
    """
    if len(factors) < 2:
        return FreeProductReport(True, None, budget, 0)
    elements = [f.elements() for f in factors]

    # layers[k]: (word, matrix) for the alternating words of k syllables;
    # index[k]: projective key of the matrix -> the words of layers[k]
    layers = [[((), MappingClass.identity())]]
    index = {}
    checked = 0
    for total in range(2, budget + 1):
        a = (total + 1) // 2
        b = total - a
        while len(layers) <= a:
            layer = []
            for word, m in layers[-1]:
                last = word[-1][0] if word else -1
                for i in range(len(factors)):
                    if i == last:
                        continue
                    for h in elements[i]:
                        layer.append((word + ((i, h),), m.mul(h)))
            layers.append(layer)
        if b not in index:
            index[b] = {}
            for word, m in layers[b]:
                index[b].setdefault(m.projective_key(), []).append(word)
        for word, m in layers[a]:
            checked += 1
            for cand in index[b].get(m.inv().projective_key(), ()):
                if cand[0][0] != word[-1][0]:
                    return FreeProductReport(False, word + cand, budget, checked)
    return FreeProductReport(True, None, budget, checked)


def cyclically_reduce(word: tuple) -> tuple:
    """Conjugate an alternating normal form until first and last factors differ."""
    w = tuple(word)
    while len(w) >= 2 and w[0][0] == w[-1][0]:
        i = w[0][0]
        merged = w[-1][1].mul(w[0][1])
        w = w[1:-1]
        if not merged.is_identity():
            w = ((i, merged),) + w
    return w


@dataclass
class LoxodromicReport:
    checked: int
    all_loxodromic: bool
    traces: list
    skipped: int                 # words conjugate into a factor
    failures: list = field(default_factory=list)


def loxodromic_scan(words: list) -> LoxodromicReport:
    """Every cyclically reduced word of syllable length >= 2 must act as a
    pseudo-Anosov on the torus: |trace| > 2."""
    traces = []
    failures = []
    skipped = 0
    for w in words:
        red = cyclically_reduce(w)
        if len(red) < 2:
            skipped += 1
            continue
        t = word_matrix(red).trace
        traces.append(t)
        if abs(t) <= 2:
            failures.append((red, t))
    return LoxodromicReport(len(traces), not failures, traces, skipped, failures)


def random_alternating_word(factors: list, rng) -> tuple:
    """An alternating word of 2 to 6 syllables, each a random nontrivial
    element of a factor other than the previous syllable's."""
    elements = [f.elements() for f in factors]
    n = rng.randrange(2, 7)
    word = ()
    last = -1
    for _ in range(n):
        choices = [i for i in range(len(factors)) if i != last]
        i = choices[rng.randrange(len(choices))]
        h = elements[i][rng.randrange(len(elements[i]))]
        word += ((i, h),)
        last = i
    return word
