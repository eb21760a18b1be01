"""Definitions only the tests call: reference twins of package kernels, small
graph models, and RAAG word builders with the confluent rewriting system that
checks `raag.normal_form`."""

import random
from itertools import chain, combinations

from rgflab.bassserre import TreeBall, word_matrix
from rgflab.farey import MappingClass, Slope, act, conjugator_to_infinity
from rgflab.hypgraph import GraphOracle, bfs
from rgflab.raag import PresentationGraph, Word


def type1_pairs(ball: TreeBall):
    """The type-1 vertex pairs (t[i], t[j]), i < j, of t = `ball.vertices(1)`,
    in lexicographic order of (i, j): the order of `qi_pairs`."""
    return combinations(ball.vertices(1), 2)


def ball_bfs_distance(ball: TreeBall, v: int, w: int) -> int:
    """Path-walk oracle for `tree_distance`: BFS in the constructed ball."""
    for x, _, d in bfs([v], ball.adjacency.__getitem__):
        if x == w:
            return d
    raise KeyError("vertex not reachable inside the ball")


def coset_well_defined(ball: TreeBall, v: int) -> bool:
    """Representatives g and g*h (h in the factor) must give one image set."""
    if ball.kind[v] != 1:
        raise ValueError("well-definedness is about type-1 vertices")
    f = ball.factors[ball.factor[v]]
    m = word_matrix(ball.label[v])
    base = frozenset(act(m, s) for s in f.boundary)
    return all(frozenset(act(m.mul(h), s) for s in f.boundary) == base for h in f.elements)


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
    """Union of annular projections of a set of curves (components equal to
    alpha contribute nothing); the set form of `link_span`."""
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
