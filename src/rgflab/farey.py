"""Exact model of the curve graph of the once-punctured torus.

Vertices are slopes p/q (reduced fractions plus 1/0 for infinity), edges join
slopes with |ps - rq| = 1, and SL(2,Z) acts projectively.  Distances and
geodesics are computed exactly from continued fractions, as the docstrings of
`_distance_to_infinity` and `geodesic_vectors` prove, so no command re-checks
them; the tests keep a denominator-bounded BFS as the independent oracle.
Annular subsurface projections are modelled on the link of a vertex, which is
a bi-infinite line: the projection of a slope is the floor/ceiling pair of its
image under a canonical matrix sending the site to infinity.

`Slope` and `MappingClass` are immutable tuples: a slope equals and hashes as
(p, q), a matrix as (a, b, c, d), the hashes of the frozen dataclasses they
replaced, so set orders and report bytes are unchanged.  Constructors
validate; `Slope._reduced` and the arithmetic here build through
`tuple.__new__` without the re-check.  A curve system on the punctured
torus is a single slope, since any two distinct curves meet, so every entry
point takes slopes.  `entries()` stays beside `tuple(m)`: the benchmark's
tracer keys enumerated balls on it.
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


def distance_tail(p: int, q: int, up: bool, memo: dict) -> tuple:
    """The loop of `_distance_to_infinity` resumed on a complete quotient
    x = p/q, from a state whose last step rose iff `up`, with a memo that the
    caller owns (`bassserre.ResumeTable` keeps one per pair scan).

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

    The memo maps (p, q, up) to this value at every complete quotient the
    Euclid loop passes.  A call stops at the first key already there, and on
    the way back fills its own path: a step of quotient k adds its increment
    (0 when k = 1 after a rise, else 1) to `added` and `before`, keeps
    `up_before`, and gives L = T_k L' with T_k = [[k, 1], [1, 0]].
    """
    path = []
    while (p, q, up) not in memo:
        k, r = divmod(p, q)
        if not r:
            memo[p, q, up] = (1, 0, up, (1, 0, 0, 1))
            break
        path.append((p, q, up, k))
        up = k != 1 or not up
        p, q = q, r
    added, before, up_before, (a, b, c, d) = t = memo[p, q, up]
    for p, q, up, k in reversed(path):
        inc = k != 1 or not up
        added, before, a, b, c, d = added + inc, before + inc, k * a + c, k * b + d, a, b
        t = memo[p, q, up] = (added, before, up_before, (a, b, c, d))
    return t


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


def geodesic_vectors(a: Slope, b: Slope):
    """The vectors of the path `farey_geodesic` lists, with no sign fix:
    a and b as given, and ±v for each slope v between; just a when a == b.

    One pass of Euclid's algorithm on s = C.b = [a_0; a_1, ..., a_n], with
    C = `conjugator_to_infinity(a)`, through convergents of s mapped back by
    C^-1 = adj(C).  The mapped convergents v_k = C^-1 (p_k, q_k) follow the
    recurrence of the convergents, v_k = a_k v_{k-1} + v_{k-2}, from the two
    columns of C^-1: v_{-1} = C^-1 (1, 0), which is a, and
    v_{-2} = C^-1 (0, 1).  They are primitive, so each is a slope up to sign.

    The path is the walk back from s that steps from convergent k to k - 1
    (always adjacent) or skips to k - 2 (adjacent when a_k = 1) when the
    distance D_k from 1/0 is flat at k, D_k = D_{k-1}: that is, when a_k = 1
    and step k - 1 rose (see `_distance_to_infinity`; step 0 rises).  Skipping
    saves a step exactly then, since the steps of D are 0 or 1.  A flat step
    is never followed by another, as the step after a flat one rises.  So the
    walk visits k + 1 whenever step k + 1 is flat, and convergent k is on the
    path exactly when step k + 1 rises; s itself is always on it.  The loop
    therefore yields v_k as soon as a_{k+1} is known, from 1/0's image a
    forward, with no list of convergents and no walk back.
    """
    if a == b:
        yield a
        return
    m = conjugator_to_infinity(a)
    p, q = act(m, b)
    e, f, g, h = m
    v, w = (h, -g), (-f, e)         # v_{k-1} and v_{k-2}, from k = 0
    up = False                      # step 0 always rises: a_0 never skips 1/0
    while True:
        k, r = divmod(p, q)
        if k == 1 and up:
            up = False
        else:
            yield v
            up = True
        if not r:
            yield b
            return
        v, w = (k * v[0] + w[0], k * v[1] + w[1]), v
        p, q = q, r


def farey_geodesic(a: Slope, b: Slope) -> list:
    """A geodesic [a, ..., b]; endpoints included, length farey_distance(a, b):
    the slopes of `geodesic_vectors`, each vector's sign fixed."""
    return [_new(Slope, (x, y) if y > 0 or (not y and x > 0) else (-x, -y))
            for x, y in geodesic_vectors(a, b)]


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


def annular_distance(alpha: Slope, beta: Slope, gamma: Slope) -> int:
    """Diameter in Z of the union of the projections of beta and gamma to the
    annulus about alpha, as 1 + the number of link vertices between them;
    `EmptyProjectionError` when either is alpha.

    For alpha = p/q, q >= 1, with conjugator C = [[a, b], [-q, p]] and
    a = p^-1 mod q, write v = p s - q r = det(alpha, beta) for beta = (r, s):
    v = 0 exactly when beta = alpha.  As b q = 1 - a p, C.beta =
    (a r + b s)/v = s/(q v) - a/q, so q (C.beta) + a = s/v.  The link vertex
    n is C^-1 (n, 1) = (p n - b, q n + a), of denominator m = q n + a, so n is
    strictly between C.beta and C.gamma exactly when m is strictly between
    s/v and s'/t, t = det(alpha, gamma).  Since ceil(max) - floor(min) = 1 +
    #(integers strictly between) for the distinct images of distinct slopes,
      d_alpha(beta, gamma) = 1 + #{m strictly between s/v and s'/t : q | p m - 1}.
    Equal floors of s/v and s'/t give 1, one candidate m is tested by
    (p m - 1) % q, and only two or more take a = pow(p, -1, q) to count the
    m in (lo, hi] as (hi - a)//q - (lo - a)//q.  The one image of beta = gamma
    has diameter 0 when |v| = 1 and 1 otherwise (s/v may be an integer with
    |v| > 1).  At 1/0, C is the identity: v = s, the images are r/s, and
    every integer is a link vertex.
    """
    (r, s), (r2, s2) = beta, gamma
    p, q = alpha
    v, t = p * s - q * r, p * s2 - q * r2
    if not (v and t):
        raise EmptyProjectionError(f"one side does not project to {alpha}" if v or t
                                   else f"nothing projects to the annulus about {alpha}")
    lo, m = divmod(s if q else r, v)
    hi, n = divmod(s2 if q else r2, t)
    if lo == hi:
        return 0 if v in (1, -1) and beta == gamma else 1
    if lo > hi:
        lo, hi, n = hi, lo, m
    if not n:
        hi -= 1                         # an integer end is not strictly between
    if not q:
        return 1 + hi - lo
    if hi - lo < 2:
        return 1 + (hi > lo and not (p * hi - 1) % q)
    a = pow(p, -1, q)
    return 1 + (hi - a) // q - (lo - a) // q


def slope_set_distance(a: Slope, b: Slope) -> int:
    """Farey distance between two single-slope curve systems (reducing
    systems, displacing curves or orbit-map images), with no call to
    `farey_distance` when they are equal.  The name stays, as
    `perfbench/tracer.py` traces it."""
    return 0 if a == b else farey_distance(a, b)


def bounded_vertices(bound: int) -> list:
    """All slopes with |p| <= bound and 1 <= q <= bound, plus infinity."""
    verts = [INFINITY]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                verts.append(Slope(p, q))
    return verts
