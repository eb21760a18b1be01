"""Definitions only the tests call: reference twins of package kernels, small
graph models, and RAAG word builders with the confluent rewriting system that
checks `raag.normal_form`."""

import random
from itertools import chain, combinations

from rgflab.bassserre import ResumeTable, TreeBall, _mat_mul, word_matrix
from rgflab.farey import MappingClass, Slope, act, conjugator_to_infinity
from rgflab.hypgraph import GraphOracle, bfs
from rgflab.raag import PresentationGraph, Word


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


def ball_bfs_distance(ball: TreeBall, v: int, w: int) -> int:
    """Path-walk oracle for `tree_distance`: BFS in the constructed ball."""
    for x, _, d in bfs([v], ball.adjacency.__getitem__):
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


def word(*syllables) -> Word:
    return tuple((int(g), int(e)) for g, e in syllables)


def inverse_word(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def concat(*words) -> Word:
    return tuple(chain(*words))


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
                if all(graph.commute(gi, w[k][0]) for k in range(i + 1, j)):
                    moves.append(w[:i] + ((gi, ei + ej),) + w[i + 1:j] + w[j + 1:])
                break
            if not graph.commute(gi, gj):
                break
    for j in range(n):
        # move w[j] left past any block it commutes with, landing before a
        # larger generator; every such move is strictly shortlex-decreasing
        gj, ej = w[j]
        i = j - 1
        while i >= 0:
            gi = w[i][0]
            if gi == gj or not graph.commute(gi, gj):
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
