"""Bass-Serre trees of free products, the equivariant orbit map into the
Farey graph, embedding certificates, and free-product injectivity search.

Elements of the abstract free product are alternating normal forms: tuples
of syllables (factor index, element) with consecutive factors distinct and
every element nontrivial in its factor.  Type-2 vertices are labeled by
normal forms, type-1 vertices by cosets (prefix, factor); the vertex for
gH_i drops a trailing i-syllable from g, which makes the label canonical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count
from math import gcd

from . import farey, hypgraph
from .farey import MappingClass, Slope, act, conjugator_to_infinity
from .subgroups import MatrixGroup, canonical_reducing_system, enumerate_ball, group_is_finite


@dataclass(frozen=True)
class FactorSpec:
    """One free-product factor: a torus matrix group, named, with a budget.

    `budget` bounds the factor elements enumerated when building coset fans
    and relation searches: word length in the group's generators.  The
    factor's reducing system, `boundary`, is derived from the generators.
    """

    name: str
    group: MatrixGroup
    budget: int = 2

    @staticmethod
    def twist(name: str, alpha: Slope, power: int = 1, budget: int = 2) -> "FactorSpec":
        return FactorSpec(name, MatrixGroup.of(farey.twist_about(alpha, power)), budget)

    # cached properties live in the instance __dict__, outside the dataclass
    # fields, so `==`, `hash` and `repr` do not see them
    @cached_property
    def boundary(self) -> Slope | None:
        """The canonical reducing system of the group: one slope, or None for
        a group with no reducing curve."""
        return canonical_reducing_system(self.group)

    @cached_property
    def elements(self) -> tuple:
        """Nontrivial elements (projectively deduped), deterministic order;
        enumerated once per factor."""
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
        alpha = self.boundary
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


@dataclass
class TreeBall:
    """Radius-r ball about v(1) in the Bass-Serre tree, over integer vertex
    ids: 0 is the center v(1), and ids follow breadth-first discovery order.

    Vertex v is an element (kind 2, factor -1) whose label is its normal
    form, or a coset gH_i (kind 1, factor i) whose label is the canonical
    prefix g.  `adjacency[v]` lists v's parent first, then its children.
    Coset fans are enumerated only up to the per-factor budget; `truncated`
    holds the ids whose fan was cut, never silently.
    """

    factors: list
    kind: list
    factor: list
    label: list
    distance: list                 # from the center v(1)
    adjacency: list
    truncated: set

    def vertices(self, kind: int | None = None):
        if kind is None:
            return list(range(len(self.kind)))
        return [v for v, k in enumerate(self.kind) if k == kind]


def build_ball(factors: list, radius: int) -> TreeBall:
    """Breadth-first ball construction; deterministic for fixed budgets.

    The ball is a tree, so a fan is its vertex's parent plus new children:
    an element g gets the cosets gH_j for each j other than g's last
    factor, and a coset gH_i the elements g.(i, h), one per enumerated h.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    elements = [f.elements for f in factors]
    infinite = [not group_is_finite(f.group, f.budget)[0] for f in factors]
    ball = TreeBall(list(factors), [2], [-1], [()], [], [[]], set())

    def children(u):
        """Number the children of u, recording their labels and edges."""
        g = ball.label[u]
        if ball.kind[u] == 2:
            last = g[-1][0] if g else -1
            fan = [(1, j, g) for j in range(len(factors)) if j != last]
        else:
            i = ball.factor[u]
            fan = [(2, -1, g + ((i, h),)) for h in elements[i]]
        new = range(len(ball.kind), len(ball.kind) + len(fan))
        for kind, j, label in fan:
            ball.kind.append(kind)
            ball.factor.append(j)
            ball.label.append(label)
            ball.adjacency.append([u])
        ball.adjacency[u] += new
        return new

    for v, d in hypgraph.bfs(0, children, radius):
        ball.distance.append(d)
        if ball.kind[v] == 1 and infinite[ball.factor[v]]:
            ball.truncated.add(v)
    return ball


def tree_distance(ball: TreeBall, v: int, w: int) -> int:
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
    c = syllables_mul(syllables_inv(ball.label[v]), ball.label[w])
    if ball.kind[v] == 2 and ball.kind[w] == 2:
        return 2 * len(c)
    # an element's factor is -1, which no syllable has, so it drops nothing
    drop_front = 1 if c and c[0][0] == ball.factor[v] else 0
    drop_back = 1 if c and c[-1][0] == ball.factor[w] else 0
    if ball.kind[v] == 2 or ball.kind[w] == 2:
        return 1 + 2 * (len(c) - drop_front - drop_back)
    if len(c) == 1 and drop_front and drop_back:
        raise AssertionError("distinct cosets cannot share a canonical label")
    return 2 + 2 * (len(c) - drop_front - drop_back)


# ---------------------------------------------------------------------------
# The orbit map into the Farey graph.


def phi(ball: TreeBall, base: Slope) -> list:
    """The equivariant orbit map: vertex labels in the curve graph, indexed
    by vertex id, one slope each: v(gH_i) -> g . boundary(H_i) and
    v(g) -> g . base.  Every factor needs a boundary slope.

    The certificates read only the type-1 images, which do not depend on
    `base`; `qi_pairs` computes them from no ball, and this map serves its twins."""
    return [act(word_matrix(g), base if kind == 2 else ball.factors[i].boundary)
            for kind, i, g in zip(ball.kind, ball.factor, ball.label)]


@dataclass
class QiReport:
    pairs: PairCounts             # (d_T, d_S) -> number of type-1 pairs
    min_ratio: Fraction | None
    kappa_witness: int | None     # least integer k with d_S >= d_T/k - k on all pairs
    benchmark_ok: bool            # d_S >= d_T/2 - 4 on all pairs
    kappa_given_ok: bool | None = None
    lower_envelope: dict = field(default_factory=dict)   # d_T -> min d_S
    fit: tuple | None = None      # least-squares (slope, intercept) on the envelope


def qi_certificate(factors: list, radius: int, kappa: int | None = None) -> QiReport:
    """Scan all type-1 pairs within `radius` of v(1) (`qi_pairs`) against the
    affine lower bound d_S >= d_T / kappa - kappa and the benchmark
    d_S >= d_T/2 - 4 that displacing families achieve (`qi_report`).  It
    reads each factor's elements and reducing system, and no base curve."""
    return qi_report(qi_pairs(factors, radius), kappa)


def _mat_mul(m: tuple, n: tuple) -> tuple:
    """Product of 2x2 integer matrices as (a, b, c, d) tuples, of either
    determinant sign (a state's matrix adj(L) M has determinant -1 or 1)."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _shear_key(m: tuple) -> tuple:
    """The one representative of +-P m over all shears P: x -> x + n, which
    fixes 1/0: the sign that makes c > 0, or d > 0 when c = 0, then a
    reduced mod c, or b mod d when c = 0.  P m is (a + nc, b + nd, c, d)."""
    a, b, c, d = m
    if c < 0 or (not c and d < 0):
        a, b, c, d = -a, -b, -c, -d
    n = a // c if c else b // d
    return a - n * c, b - n * d, c, d


class ResumeTable:
    """The Farey distances of `qi_pairs` as a finite transducer: interned
    states and steps, and transitions filled on first use.  One table serves
    one scan, and `advance` is the one place a Farey distance is resumed.
    Its `distance_tail` calls share the memo `tails`, since their complete
    quotients recur: theorem-b at radius 6 runs 364 Euclid steps, not 26,970.

    A state is (M, up) for a type-1 vertex v, seen from a source vertex.
    With C the `conjugator_to_infinity` of the source's slope, W_v the
    `word_matrix` of v's label and b_i the boundary slope of v's factor,
    C W_v b_i is v's image with the source's at 1/0.  Its continued fraction
    starts with a prefix of convergent matrix T, and M = adj(T) C W_v up to
    sign, so M b_i is the complete quotient after the prefix; up is the
    `distance_tail` flag after the prefix, and None when the prefix is
    empty.  Each vertex also carries its additive d, the distance of the
    prefix's convergent.  A step from v to a type-1 vertex w across a fan is
    (S, j), S = W_v^-1 W_w and j the factor of w: S is h going down through
    the child fan v.h, I to a sibling, and h^-1 going up.  w's image is
    W_v S b_j, so `advance(M S, b_j, up)` reads w's distance and state off
    v's, and the entry `trans[state][step]` is a function of (state, step)
    alone.

    A step from a prefix with a complete quotient x <= 1 is the entry
    `FALLBACK`, never cached: w's distance needs `advance(C W_w, b_j, None)`,
    a function of the path from the source, as C W_w = +-P R S_1 ... S_m
    with R the source factor's root matrix and S_i the steps taken (below).

    The first ring, and every empty prefix.  Let P be a shear x -> x + n,
    which fixes 1/0; then `advance(P m, b, None)` returns the entry of
    `advance(m, b, None)`, up to a shear of the next state's matrix.  P
    changes only the quotient a_0 of x = m.b, to a_0 + n, and the tail with
    up False adds one for a_0 whatever its value, so added, before and up
    are those of x.  With T_a = [[a, 1], [1, 0]], adj(T_{a+n}) P = adj(T_a),
    and L starts with T_{a_0} (T_{a_0+n} for P x), so the next state
    adj(L) P m is adj(L) m; when x is 1/0 or an integer the prefix stays
    empty and the next matrix is P m, which the next step absorbs in the
    same way.  The root of a source gH_i, with W = W_g, is the state
    (C(b_i), None) with additive d 0, whatever g is: C(W b_i) W and C(b_i)
    both send b_i to 1/0, so C(W b_i) W C(b_i)^-1 fixes 1/0 and is +-P, and
    the source's own empty prefix gives `advance(C(W b_i) W S, b_j, None)`,
    the entry from C(b_i) up to sign and a shear.  So one tail per (factor,
    step) serves the whole scan.  For the same reason `state` interns an
    empty-prefix state (m, None) up to sign and a shear of m
    (`_shear_key`): from P m and from m every step gives the same added,
    before and up, and next states equal up to sign or a shear, so the two
    share one row.
    """

    FALLBACK = object()

    def __init__(self, boundary: list):
        self.boundary = boundary        # per factor: its boundary slope
        self.step_ids = {}              # (projective key of S, j) -> step id
        self.steps = []                 # step id -> (S, j)
        self.state_ids = {}             # (M up to sign, up) -> state id
        self.matrix = []                # state id -> M
        self.up = []
        self.trans = []
        self.tails = {}                 # the memo of `farey.distance_tail`
        self.root = [self.state(conjugator_to_infinity(b), None) for b in boundary]

    def step(self, s: MappingClass, j: int) -> int:
        key = (s.projective_key(), j)
        sid = self.step_ids.get(key)
        if sid is None:
            sid = self.step_ids[key] = len(self.steps)
            self.steps.append((s, j))
        return sid

    def state(self, m: tuple, up: bool | None) -> int:
        """The id of state (m, up), interned up to sign, and with an empty
        prefix also up to a shear of m (see the class docstring)."""
        key = (MappingClass.projective_key(m) if up is not None else _shear_key(m), up)
        sid = self.state_ids.get(key)
        if sid is None:
            sid = self.state_ids[key] = len(self.matrix)
            self.matrix.append(key[0])
            self.up.append(up)
            self.trans.append({})
        return sid

    def entry(self, state: int, step: int):
        """trans[state][step], computed on first use."""
        row = self.trans[state]
        t = row.get(step)
        if t is None:
            s, j = self.steps[step]
            t = row[step] = self.advance(_mat_mul(self.matrix[state], s), self.boundary[j],
                                         self.up[state])
        return t

    def advance(self, m: tuple, b: Slope, up: bool | None):
        """(added, before, next state) of the vertex with complete quotient
        x = m.b after the prefix of a state with flag `up`, or `FALLBACK`.

        After a prefix x must be greater than 1, for the prefix's continued
        fraction to go on with x's; then `distance_tail(x, up)` gives
        (added, before, up', L), and adj(L) strips x's quotients before the
        last, so the next state is (adj(L) m, up').  An empty prefix (up
        None) takes any x: 1/0 adds nothing and an integer one, leaving the
        prefix empty and the state (m, None), interned up to a shear, and
        any other x runs the tail with up False.  Signs cancel, since x is
        sign-normalised and adj(L) (-m) = -(adj(L) m).
        """
        x, y = m[0] * b.p + m[1] * b.q, m[2] * b.p + m[3] * b.q
        if y < 0:
            x, y = -x, -y
        if up is None:
            if not y:
                return 0, 0, self.state(m, None)
            if not x % y:
                return 1, 0, self.state(m, None)
            up = False
        elif not x > y > 0:
            return self.FALLBACK
        added, before, up, (a, lb, c, d) = farey.distance_tail(x, y, up, self.tails)
        return added, before, self.state(_mat_mul((d, -lb, -c, a), m), up)


class PairCounts(Counter):
    """(d_T, d_S) -> the number of unordered type-1 pairs; its length is their
    number, and `total()` is the same number past 2**63, where `len` raises."""

    def __len__(self):
        return self.total()

    def __bool__(self):
        return self.total() != 0


class _Fallback(Exception):
    """A group walked with no source path met a fallback entry."""


def qi_pairs(factors: list, radius: int) -> PairCounts:
    """The count of each (d_T, d_S) over the unordered pairs of type-1
    vertices within `radius` of v(1), d_S between the images g . boundary(H_i)
    of `phi`; it reads each factor's elements and reducing system, no ball.

    Ordered pairs are counted, then halved.  A coset is walked by its type
    (depth, factor, up step of its parent fan); a factor's `fans` hold
    (child factor, step down, step up).  The sources are a depth-first stack
    of types, each with its ancestors, which the walk climbs, adding what
    lies `below` the source and each ancestor's `level`: its siblings, its
    parent and the parent's other child fans, each with all below.  `group`
    memoises the histogram of (d_T, d_S - d) of a below or a level on its
    `ResumeTable` state and type, and defers it, shifted, in `terms`
    (histogram 0 is one pair).  A group that meets a fallback entry is
    walked per source along its `path`: the source's factor, then the step
    ids taken.
    """
    table = ResumeTable([f.boundary for f in factors])
    n = len(factors)
    sibling = [table.step(MappingClass.identity(), j) for j in range(n)]
    fans = [[(j, table.step(h, j), table.step(h.inv(), i)) for h in f.elements
             for j in range(n) if j != i] for i, f in enumerate(factors)]
    hists, memo, terms = [{(0, 0): 1}], {}, Counter()

    def move(state, sid, d, path):
        """(d_S, additive d, state, path) one step `sid` on from `state`."""
        path = path and path + (sid,)
        t = table.entry(state, sid)
        if t is not table.FALLBACK:
            return d + t[0], d + t[1], t[2], path
        if path is None:
            raise _Fallback
        m = table.matrix[table.root[path[0]]]
        for s in path[1:]:
            m = _mat_mul(m, table.steps[s][0])
        return (*table.advance(m, table.boundary[table.steps[sid][1]], None), path)

    def visit(terms, steps, state, dt, d, path):
        for node, sid in steps:
            ds, nd, nxt, into = move(state, sid, d, path)
            terms[0, dt, ds] += 1
            group(terms, below, node, nxt, dt, nd, into)

    def below(terms, node, state, dt, d, path, skip=None):
        k, i, _ = node
        visit(terms, [((k + 2, j, up), down) for j, down, up in fans[i]
                      if up != skip and k + 2 <= radius], state, dt + 2, d, path)

    def level(terms, node, state, dt, d, path):
        k, i, up = node
        parent = None if up is None else table.steps[up][1]
        visit(terms, [((k, j, up), sibling[j]) for j in range(n) if j not in (i, parent)],
              state, dt + 2, d, path)
        if up is not None:
            ds, nd, nxt, into = move(state, up, d, path)
            terms[0, dt + 2, ds] += 1
            below(terms, (k - 2, parent, None), nxt, dt + 2, nd, into, skip=up)

    def group(terms, f, node, state, dt, d, path):
        key = (f, state, *node[:2], node[2] if f is level else None)
        if key not in memo:
            try:
                local = Counter()
                f(local, node, state, 0, 0, None)
                memo[key] = len(hists)
                hists.append(flat(local))
            except _Fallback:
                memo[key] = None
        if memo[key] is None:
            f(terms, node, state, dt, d, path)
        else:
            terms[memo[key], dt, d] += 1

    def flat(terms):
        out = Counter()
        for (h, dt, d), m in terms.items():
            for (a, b), n in hists[h].items():
                out[a + dt, b + d] += m * n
        return out

    stack = [((1, i, None),) for i in range(n) if radius > 0]    # a source, then its ancestors
    while stack:
        chain = stack.pop()
        k, i, _ = chain[0]
        state, d, path = table.root[i], 0, (i,)
        group(terms, below, chain[0], state, 0, 0, path)
        for climb, node in enumerate(chain):
            group(terms, level, node, state, 2 * climb, d, path)
            if node[2] is not None:
                _, d, state, path = move(state, node[2], d, path)
        stack += [((k + 2, j, up),) + chain for j, _, up in fans[i] if k + 2 <= radius]
    ordered = flat(terms)
    if any(n % 2 for n in ordered.values()):
        raise AssertionError("an odd count of ordered pairs: d_T or d_S is not symmetric")
    return PairCounts({pair: n // 2 for pair, n in ordered.items()})


def qi_report(pairs: PairCounts, kappa: int | None = None) -> QiReport:
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

    min_ratio = min((Fraction(ds, dt) for dt, ds in envelope.items() if dt > 0), default=None)
    bench = all(2 * ds >= dt - 8 for dt, ds in envelope.items())
    kappa_witness = next(k for k in count(1) if holds(k)) if pairs else None
    given_ok = None if kappa is None else holds(kappa)

    fit = None
    if len(envelope) >= 2:
        n, sx, sy = len(envelope), sum(envelope), sum(envelope.values())
        sxx, sxy = sum(x * x for x in envelope), sum(x * y for x, y in envelope.items())
        den = n * sxx - sx * sx
        if den:
            slope = Fraction(n * sxy - sx * sy, den)
            fit = (slope, Fraction(sy, n) - slope * Fraction(sx, n))

    return QiReport(pairs, min_ratio, kappa_witness, bench, given_ok, envelope, fit)


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
        return FreeProductReport(True, None, _search_size(factors, budget))
    return _relation_search(factors, budget)


def _search_size(factors: list, budget: int) -> int:
    """The words `_relation_search` checks when it finds no relation: one per
    first-half word of ceil(total/2) syllables, for each total in 2..budget.

    With e_i elements in factor i, ends[k-1][i] alternating words of k
    syllables end in factor i: ends_1[i] = e_i and
    ends_k[i] = e_i * (sum(ends_{k-1}) - ends_{k-1}[i]).
    """
    sizes = [len(f.elements) for f in factors]
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
        return FreeProductReport(True, None, 0)
    elements = [f.elements for f in factors]

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
                    return FreeProductReport(False, word + cand, checked)
    return FreeProductReport(True, None, checked)


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
    skipped: int                 # words conjugate into a factor


def loxodromic_scan(words: list) -> LoxodromicReport:
    """Every cyclically reduced word of syllable length >= 2 must act as a
    pseudo-Anosov on the torus: |trace| > 2."""
    all_loxodromic = True
    skipped = 0
    for w in words:
        red = cyclically_reduce(w)
        if len(red) < 2:
            skipped += 1
        elif abs(word_matrix(red).trace) <= 2:
            all_loxodromic = False
    return LoxodromicReport(len(words) - skipped, all_loxodromic, skipped)


def random_alternating_word(factors: list, rng) -> tuple:
    """An alternating word of 2 to 6 syllables, each a random nontrivial
    element of a factor other than the previous syllable's."""
    elements = [f.elements for f in factors]
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
