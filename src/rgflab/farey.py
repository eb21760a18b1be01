"""Exact model of the curve graph of the once-punctured torus.

Vertices are slopes p/q (reduced fractions plus 1/0 for infinity), edges join
slopes with |ps - rq| = 1, and SL(2,Z) acts projectively.  Distances and
geodesics are computed exactly from continued fractions; a denominator-bounded
BFS serves as the independent oracle.  Annular subsurface projections are
modelled on the link of a vertex, which is a bi-infinite line: the projection
of a slope is the floor/ceiling pair of its image under a canonical matrix
sending the site to infinity.

`Slope` and `MappingClass` are immutable tuples: a slope equals and hashes as
(p, q), a matrix as (a, b, c, d), the hashes of the frozen dataclasses they
replaced, so set orders and report bytes are unchanged.  Constructors
validate; `Slope._reduced` and the arithmetic here build through
`tuple.__new__` without the re-check.  A curve system on the punctured
torus is a single slope, since any two distinct curves meet, so every entry
point takes slopes; only `link_span` takes an iterable of them, a path.
`entries()` stays beside `tuple(m)`: the benchmark's tracer keys enumerated
balls on it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_new = tuple.__new__


class Slope(NamedTuple("_Slope", [("p", int), ("q", int)])):
    """A slope p/q in lowest terms with q >= 0; the slope 1/0 is infinity."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if q < 0 or (q == 0 and p != 1):
            raise ValueError(f"slope not in canonical form: {p}/{q}")
        if math.gcd(abs(p), q) != 1:
            raise ValueError(f"slope not reduced: {p}/{q}")
        return _new(cls, (p, q))

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        """Canonical slope for an arbitrary nonzero integer vector (p, q)."""
        if p == 0 and q == 0:
            raise ValueError("zero vector is not a slope")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        g = math.gcd(p, q)
        return _new(Slope, (p // g, q // g))

    @staticmethod
    def _reduced(p: int, q: int) -> "Slope":
        """Slope from a canonical pair known to be in lowest terms (such as
        images under `act`), without the constructor's validation."""
        return _new(Slope, (p, q))

    @staticmethod
    def parse(text: str) -> "Slope":
        if "/" in text:
            a, b = text.split("/")
            return Slope.of(int(a), int(b))
        return Slope.of(int(text), 1)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}/{self.q})"


INFINITY = Slope(1, 0)


class MappingClass(NamedTuple("_MappingClass", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """An integer matrix [[a, b], [c, d]] with determinant one.

    Entries are arbitrary precision; words in twist generators blow up
    exponentially.  The action on slopes is projective, so M and -M act
    identically.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1")
        return _new(cls, (a, b, c, d))

    @staticmethod
    def identity() -> "MappingClass":
        return _new(MappingClass, (1, 0, 0, 1))

    def mul(self, other: "MappingClass") -> "MappingClass":
        a, b, c, d = self
        e, f, g, h = other
        return _new(MappingClass, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def inv(self) -> "MappingClass":
        a, b, c, d = self
        return _new(MappingClass, (d, -b, -c, a))

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_identity(self) -> bool:
        """Identity up to sign, the identity of the projective action."""
        return self in ((1, 0, 0, 1), (-1, 0, 0, -1))

    def projective_key(self) -> tuple:
        """Canonical key identifying M with -M: the sign that makes the first
        nonzero entry positive, which is a, or b when a = 0 (as ad - bc = 1).
        It serves any integer 4-tuple with ad - bc = -1 too."""
        a, b, c, d = self
        return tuple(self) if a > 0 or (not a and b > 0) else (-a, -b, -c, -d)

    def entries(self) -> tuple:
        return tuple(self)

    @staticmethod
    def from_entries(entries) -> "MappingClass":
        # int() would truncate 1.9 to 1, and JSON true would pass as 1
        if len(entries) != 4 or any(type(x) is not int for x in entries):
            raise ValueError(f"matrix entries must be four integers, got {entries!r}")
        return MappingClass(*entries)


def act(m: MappingClass, s: Slope) -> Slope:
    """Projective action on slopes: an isometry of the Farey graph.

    A determinant-one matrix maps primitive vectors to primitive vectors, so
    the image needs a sign fix but no gcd.
    """
    a, b, c, d = m
    x, y = s
    p = a * x + b * y
    q = c * x + d * y
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _new(Slope, (p, q))


def adjacent(a: Slope, b: Slope) -> bool:
    """Edge rule for the punctured torus: representatives intersecting once."""
    return abs(a.p * b.q - b.p * a.q) == 1


def _xgcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    return old_r, old_x, old_y


def conjugator_to_infinity(alpha: Slope) -> MappingClass:
    """The canonical determinant-one matrix sending alpha to 1/0.

    For alpha = p/q with q >= 1 we take [[a, b], [-q, p]] where a*p + b*q = 1
    and 0 <= a < q.  Any two choices differ by an integer shear at infinity,
    so link coordinates shift uniformly and projection diameters do not
    depend on the convention.
    """
    p, q = alpha
    if not q:
        return MappingClass.identity()
    a = pow(p, -1, q)          # the unique inverse in [0, q); 0 when q = 1
    b = (1 - a * p) // q
    return _new(MappingClass, (a, b, -q, p))


def _distance_to_infinity(s: Slope) -> int:
    """Farey distance from 1/0 to s in one pass of Euclid's algorithm.

    Let D_k be the distance from 1/0 to the k-th convergent of s = [a_0; a_1,
    ..., a_n], with D_{-1} = 0 and D_0 = 1.  Every geodesic leaving a
    convergent first steps to one of its two mediant parents in the
    Stern-Brocot tree, and the fans of intermediate fractions collapse to
      D_{k+1} = min(1 + D_k, a_{k+1} + min(D_k, D_{k-1})),
    whose list form is the test oracle of this loop.  By induction on k,
    0 <= D_k - D_{k-1} <= 1: it holds for D_0 - D_{-1} = 1, and if it holds
    at k then, after a rise (D_k = D_{k-1} + 1), the recursion gives
    D_{k+1} = min(D_k + 1, D_k + a_{k+1} - 1), and after a flat step
    (D_k = D_{k-1}) it gives D_k + 1 because a_{k+1} >= 1.  So every step
    rises by one, except that a partial quotient a_{k+1} = 1 right after a
    rise leaves the distance flat.  The loop skips a_0 and keeps only the
    distance `d` and whether the last step rose; a quotient of 1 is
    recognised by p - q < q, which saves the division for it.
    """
    p, q = s
    if not q:
        return 0
    p, q = q, p % q
    d, up = 1, True
    while q:
        r = p - q
        if r < q:  # a_{k+1} = 1
            p, q = q, r
            if up:
                up = False
                continue
        else:
            p, q = q, r % q
        d += 1
        up = True
    return d


def distance_tail(p: int, q: int, up: bool) -> tuple:
    """The loop of `_distance_to_infinity` resumed on a complete quotient
    x = p/q, from a state whose last step rose iff `up`.  It keeps no memo:
    `bassserre.ResumeTable` caches its results per pair scan.

    A slope T.x, with T the convergent matrix of a prefix [a_0; a_1, ..., a_j]
    and x > 1, has the continued fraction of that prefix followed by the one
    of x, so its distance is the distance d of the prefix's convergent plus
    the `added` this returns.  With `up` False the prefix may also be empty,
    and then x is any p/q with q > 0: its first quotient a_0 is any integer
    and adds one, as in `_distance_to_infinity`, so `added` is the distance
    from 1/0 to p/q.  Returns (added, before, up_before, L): `before` of
    `added` comes before x's last partial quotient, `up_before` is whether
    the step before that one rose, and L = (a, b, c, d) is the convergent
    matrix of x's quotients before the last, so T.L is the next convergent
    matrix to resume from, with state (d + before, up_before).  The last
    quotient adds one: after a prefix it is at least 2, as x > 1, and from
    an empty prefix an integer's only quotient is a_0.
    """
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


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact Farey graph distance; an edge (|ps - rq| = 1) needs no Euclid."""
    if a == b:
        return 0
    (p, q), (r, s) = a, b
    if p * s - r * q in (1, -1):
        return 1
    if not q:
        return _distance_to_infinity(b)
    return _distance_to_infinity(act(conjugator_to_infinity(a), b))


def farey_geodesic(a: Slope, b: Slope) -> list:
    """A geodesic [a, ..., b]; endpoints included, length farey_distance(a, b).

    One pass of Euclid's algorithm on s = C.b = [a_0; a_1, ..., a_n], with
    C = `conjugator_to_infinity(a)`, through convergents of s mapped back by
    C^-1 = adj(C).  The mapped convergents v_k = C^-1 (p_k, q_k) follow the
    recurrence of the convergents, v_k = a_k v_{k-1} + v_{k-2}, from the two
    columns of C^-1: v_{-1} = C^-1 (1, 0), which is a, and
    v_{-2} = C^-1 (0, 1).  They are primitive, so each needs a sign fix only.

    The path is the walk back from s that steps from convergent k to k - 1
    (always adjacent) or skips to k - 2 (adjacent when a_k = 1) when the
    distance D_k from 1/0 is flat at k, D_k = D_{k-1}: that is, when a_k = 1
    and step k - 1 rose (see `_distance_to_infinity`; step 0 rises).  Skipping
    saves a step exactly then, since the steps of D are 0 or 1.  A flat step
    is never followed by another, as the step after a flat one rises.  So the
    walk visits k + 1 whenever step k + 1 is flat, and convergent k is on the
    path exactly when step k + 1 rises; s itself is always on it.  The loop
    therefore emits v_k as soon as a_{k+1} is known, from 1/0's image a
    forward, with no list of convergents and no walk back.
    """
    if a == b:
        return [a]
    m = conjugator_to_infinity(a)
    p, q = act(m, b)
    e, f, g, h = m
    v, w = (h, -g), (-f, e)         # v_{k-1} and v_{k-2}, from k = 0
    path = []
    up = False                      # step 0 always rises: a_0 never skips 1/0
    while True:
        k, r = divmod(p, q)
        if k == 1 and up:
            up = False
        else:
            x, y = v
            path.append(_new(Slope, (x, y) if y > 0 or (not y and x > 0) else (-x, -y)))
            up = True
        if not r:
            path.append(b)
            return path
        v, w = (k * v[0] + w[0], k * v[1] + w[1]), v
        p, q = q, r


def is_geodesic(path: list) -> bool:
    if not path:
        return False
    if any(not adjacent(u, v) for u, v in zip(path, path[1:])):
        return False
    return len(path) - 1 == farey_distance(path[0], path[-1])


def twist_about(alpha: Slope, n: int) -> MappingClass:
    """The n-th power of the Dehn twist about alpha = p/q.

    The conjugate C^-1 [[1, n], [0, 1]] C of the shear by the canonical matrix
    C = `conjugator_to_infinity(alpha)`, in closed form; it fixes alpha, and
    is parabolic for n != 0.  With e_1 and e_2 the standard basis, the shear
    is I + n e_1 e_2^T, so the conjugate is I + n (C^-1 e_1)(e_2^T C).  For
    q >= 1, C = [[a, b], [-q, p]] with determinant one, so C^-1 = adj(C) =
    [[p, -b], [q, a]]: C^-1 e_1 = (p, q) and e_2^T C = (-q, p), whatever a
    and b are.  So the twist is
      I + n (p, q)^T (-q, p) = [[1 - npq, np^2], [-nq^2, 1 + npq]],
    the same integer matrix as the product, not only up to sign.  At 1/0,
    C = I and (p, q) = (1, 0) give the shear itself.  No modular inverse is
    needed.
    """
    p, q = alpha
    npq = n * p * q
    return _new(MappingClass, (1 - npq, n * p * p, -n * q * q, 1 + npq))


class EmptyProjectionError(ValueError):
    pass


def link_span(alpha: Slope, path):
    """(lo, hi): the extreme positions, in the link of alpha, of the annular
    projections of an iterable of slopes; None when nothing projects.  The
    projection diameter is hi - lo.

    The floor and ceiling of a slope's image (a*p + b*q)/(c*p + d*q) under
    the conjugator [[a, b], [c, d]] of alpha need neither a reduced fraction
    nor a sign fix: one divmod rounds down for either sign of the
    denominator, and the ceiling is one more unless the remainder is zero.
    The denominator vanishes exactly on alpha, which is skipped.
    """
    a, b, c, d = conjugator_to_infinity(alpha)
    lo = hi = None
    for p, q in path:
        den = c * p + d * q
        if not den:
            continue
        fl, r = divmod(a * p + b * q, den)
        if lo is None or fl < lo:
            lo = fl
        if r:
            fl += 1
        if hi is None or fl > hi:
            hi = fl
    return None if lo is None else (lo, hi)


def annular_distance(alpha: Slope, beta: Slope, gamma: Slope) -> int:
    """Diameter in Z of the union of the projections of beta and gamma to the
    annulus about alpha; `EmptyProjectionError` when either is alpha.

    One pass reads the entries of `conjugator_to_infinity(alpha)` in place,
    with no matrix built: for alpha = p/q with q >= 1 the conjugator is
    [[a, b], [-q, p]] with a = p^-1 mod q and b = (1 - ap)/q, and at 1/0 it
    is the identity, so each slope is its own image.  Any matrix sending
    alpha to 1/0 gives the same diameter.
    """
    if beta == alpha or gamma == alpha:
        if beta == gamma:
            raise EmptyProjectionError(f"nothing projects to the annulus about {alpha}")
        raise EmptyProjectionError(f"one side does not project to {alpha}")
    (bp, bq), (gp, gq) = beta, gamma
    p, q = alpha
    if q:
        a = pow(p, -1, q)
        b = (1 - a * p) // q
        bp, bq = a * bp + b * bq, p * bq - q * bp
        gp, gq = a * gp + b * gq, p * gq - q * gp
    lo_b, r_b = divmod(bp, bq)
    lo_g, r_g = divmod(gp, gq)
    hi_b, hi_g = (lo_b + 1 if r_b else lo_b), (lo_g + 1 if r_g else lo_g)
    return (hi_b if hi_b > hi_g else hi_g) - (lo_b if lo_b < lo_g else lo_g)


def slope_set_distance(a: Slope, b: Slope) -> int:
    """Farey distance between two single-slope curve systems (reducing
    systems, displacing curves or orbit-map images), with no call to
    `farey_distance` when they are equal.  The name stays, as
    `perfbench/tracer.py` traces it."""
    return 0 if a == b else farey_distance(a, b)


# ---------------------------------------------------------------------------
# Denominator-bounded BFS oracle.


def bounded_vertices(bound: int) -> list:
    """All slopes with |p| <= bound and 1 <= q <= bound, plus infinity."""
    verts = [INFINITY]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                verts.append(Slope(p, q))
    return verts


def bounded_neighbors(s: Slope, bound: int) -> list:
    """Neighbors of s in the subgraph of slopes with |p|, |q| <= bound."""
    out = set()
    if s.is_infinity:
        return [Slope(n, 1) for n in range(-bound, bound + 1)]
    p, q = s.p, s.q
    _, x, y = _xgcd(p, q)
    # p*(-y) - q*(-x) = ... solve p*s0 - q*r0 = +-1 with base (r0, s0)
    for r0, s0 in ((-y, x), (y, -x)):
        # family (r0 + t p, s0 + t q); q >= 1, since 1/0 returned above
        lo = -(bound + s0) // q - 2
        hi = (bound - s0) // q + 2
        for t in range(lo, hi + 1):
            r, sden = r0 + t * p, s0 + t * q
            if abs(r) <= bound and abs(sden) <= bound and (r, sden) != (0, 0):
                out.add(Slope.of(r, sden))
    out.discard(s)
    return sorted(out, key=lambda v: (v.q, v.p))


class BfsOracle:
    """Graph-distance oracle on the denominator-bounded Farey subgraph.

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


def stabilized_bfs_distance(a: Slope, b: Slope, bound: int):
    """BFS distance accepted only if identical at bounds `bound` and `2*bound`.

    Returns (value_or_None, stabilized_flag).
    """
    d1 = BfsOracle(bound).distance(a, b)
    d2 = BfsOracle(2 * bound).distance(a, b)
    return (d2, d1 is not None and d1 == d2)
