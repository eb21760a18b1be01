"""Exact model of the curve graph of the once-punctured torus.

Vertices are slopes p/q (reduced fractions plus 1/0 for infinity), edges join
slopes with |ps - rq| = 1, and SL(2,Z) acts projectively.  Distances and
geodesics are computed exactly from continued fractions; a denominator-bounded
BFS serves as the independent oracle.  Annular subsurface projections are
modelled on the link of a vertex, which is a bi-infinite line: the projection
of a slope is the floor/ceiling pair of its image under a canonical matrix
sending the site to infinity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Slope:
    """A slope p/q in lowest terms with q >= 0; the slope 1/0 is infinity."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise ValueError(f"slope not in canonical form: {self.p}/{self.q}")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"slope not reduced: {self.p}/{self.q}")

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        """Canonical slope for an arbitrary nonzero integer vector (p, q)."""
        if p == 0 and q == 0:
            raise ValueError("zero vector is not a slope")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        return Slope(p // g, q // g)

    @staticmethod
    def _reduced(p: int, q: int) -> "Slope":
        """Slope from a canonical pair already known to be in lowest terms.

        Skips the validation of `__post_init__`; only for values that are
        reduced by construction, such as images under `act`.
        """
        s = object.__new__(Slope)
        object.__setattr__(s, "p", p)
        object.__setattr__(s, "q", q)
        return s

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


@dataclass(frozen=True)
class MappingClass:
    """An integer matrix [[a, b], [c, d]] with determinant one.

    Entries are arbitrary precision; words in twist generators blow up
    exponentially.  The action on slopes is projective, so M and -M act
    identically.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @staticmethod
    def identity() -> "MappingClass":
        return MappingClass(1, 0, 0, 1)

    def mul(self, other: "MappingClass") -> "MappingClass":
        return MappingClass(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "MappingClass":
        return MappingClass(self.d, -self.b, -self.c, self.a)

    def pow(self, n: int) -> "MappingClass":
        base = self if n >= 0 else self.inv()
        out = MappingClass.identity()
        for _ in range(abs(n)):
            out = out.mul(base)
        return out

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_identity(self) -> bool:
        """Identity up to sign, the identity of the projective action."""
        return (self.a, self.b, self.c, self.d) in ((1, 0, 0, 1), (-1, 0, 0, -1))

    def projective_key(self) -> tuple:
        """Canonical key identifying M with -M."""
        t = (self.a, self.b, self.c, self.d)
        for x in t:
            if x > 0:
                return t
            if x < 0:
                return (-t[0], -t[1], -t[2], -t[3])
        return t

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def from_entries(entries) -> "MappingClass":
        a, b, c, d = entries
        return MappingClass(int(a), int(b), int(c), int(d))


def act(m: MappingClass, s: Slope) -> Slope:
    """Projective action on slopes: an isometry of the Farey graph.

    A determinant-one matrix maps primitive vectors to primitive vectors, so
    the image needs a sign fix but no gcd.
    """
    p = m.a * s.p + m.b * s.q
    q = m.c * s.p + m.d * s.q
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Slope._reduced(p, q)


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


@lru_cache(maxsize=65536)
def conjugator_to_infinity(alpha: Slope) -> MappingClass:
    """The canonical determinant-one matrix sending alpha to 1/0.

    For alpha = p/q with q >= 1 we take [[a, b], [-q, p]] where a*p + b*q = 1
    and 0 <= a < q.  Any two choices differ by an integer shear at infinity,
    so link coordinates shift uniformly and projection diameters do not
    depend on the convention.
    """
    if alpha.is_infinity:
        return MappingClass.identity()
    p, q = alpha.p, alpha.q
    if q == 1:
        a, b = 0, 1
    else:
        a = pow(p, -1, q)          # the unique inverse in [0, q)
        b = (1 - a * p) // q
    return MappingClass(a, b, -q, p)


def _continued_fraction(p: int, q: int) -> list:
    """Floor continued fraction [a0; a1, ..., an] of p/q with q >= 1.

    For non-integers the expansion ends with an >= 2.
    """
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def _distance_profile(p: int, q: int) -> list:
    """Graph distances from infinity to the convergents of p/q.

    Returns [D_{-1}, D_0, ..., D_n] where D_k is the Farey distance from 1/0
    to the k-th convergent.  Follows the parent recursion in the Stern-Brocot
    tree: every geodesic leaving p/q first steps to one of its two mediant
    parents, and fans of intermediate fractions collapse to the closed form
      D_{k+1} = min(1 + D_k, a_{k+1} + min(D_k, D_{k-1})).
    The whole profile is what `_geodesic_from_infinity` walks back along; its
    last entry is the test oracle for the one-pass `_distance_to_infinity`.
    """
    cf = _continued_fraction(p, q)
    dists = [0, 1]
    for ak in cf[1:]:
        dists.append(min(1 + dists[-1], ak + min(dists[-1], dists[-2])))
    return dists


def _distance_to_infinity(s: Slope) -> int:
    """Farey distance from 1/0 to s in one pass of Euclid's algorithm.

    Solves the recursion of `_distance_profile` exactly.  By induction on k,
    0 <= D_k - D_{k-1} <= 1: it holds for D_0 - D_{-1} = 1, and if it holds
    at k then, after a rise (D_k = D_{k-1} + 1), the recursion gives
    D_{k+1} = min(D_k + 1, D_k + a_{k+1} - 1), and after a flat step
    (D_k = D_{k-1}) it gives D_k + 1 because a_{k+1} >= 1.  So every step
    rises by one, except that a partial quotient a_{k+1} = 1 right after a
    rise leaves the distance flat.  The loop skips a_0 and keeps only the
    distance `d` and whether the last step rose; a quotient of 1 is
    recognised by p - q < q, which saves the division for it.
    """
    if s.is_infinity:
        return 0
    p, q = s.q, s.p % s.q
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
    x = p/q > 1, from a state whose last step rose iff `up`.

    A slope T.x, with T the convergent matrix of a prefix [a_0; a_1, ..., a_j]
    and x > 1, has the continued fraction of that prefix followed by the one
    of x, so its distance is the distance d of the prefix's convergent plus
    the `added` this returns.  Returns (added, before, up_before, L):
    `before` of `added` comes before x's last partial quotient, `up_before`
    is whether the step before that one rose, and L = (a, b, c, d) is the
    convergent matrix of x's quotients before the last, so T.L is the next
    resume point, with state (d + before, up_before).  The last quotient of
    x is at least 2, so it always adds one.
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


def distance_state(p: int, q: int) -> tuple:
    """(distance from 1/0 to p/q, resume point) for a canonical pair (q >= 0).

    The resume point is (T, d, up): T = (a, b, c, d) the convergent matrix of
    the partial quotients before the last one, and (d, up) the state of the
    loop of `_distance_to_infinity` after them, which `distance_tail`
    continues from.  It is None for 1/0 and the integers, which have no
    quotient after a_0 to resume before.
    """
    if not q:
        return 0, None
    a0, r = divmod(p, q)
    if not r:
        return 1, None
    added, before, up, (a, b, c, d) = distance_tail(q, r, True)
    return 1 + added, ((a0 * a + c, a0 * b + d, a, b), 1 + before, up)


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact Farey graph distance."""
    if a == b:
        return 0
    if a.is_infinity:
        return _distance_to_infinity(b)
    return _distance_to_infinity(act(conjugator_to_infinity(a), b))


def _geodesic_from_infinity(s: Slope) -> list:
    """One geodesic from 1/0 to s through convergents of s, walked back from
    s in one loop over the convergent index k.

    From convergent k the walk steps to convergent k - 1 (always adjacent),
    or skips to k - 2 (adjacent when a_k = 1) when that saves a step: exactly
    when a_k = 1 and the distance rose from convergent k - 2 to k - 1.  The
    steps of `_distance_profile` are 0 or 1, so that is the whole choice.
    """
    if s.is_infinity:
        return [INFINITY]
    if s.q == 1:
        return [INFINITY, s]
    cf = _continued_fraction(s.p, s.q)
    dists = _distance_profile(s.p, s.q)   # dists[k + 1] is D of convergent k
    # convergents with their (p, q) vectors; conv[k + 1] is convergent k >= -1
    conv = [(1, 0), (cf[0], 1)]
    for ak in cf[1:]:
        conv.append((ak * conv[-1][0] + conv[-2][0], ak * conv[-1][1] + conv[-2][1]))
    path = []  # from s back toward infinity
    k = len(cf) - 1
    while k > 0:
        path.append(conv[k + 1])
        k -= 2 if cf[k] == 1 and dists[k] > dists[k - 1] else 1
    if k == 0:
        path.append(conv[1])
    path.append((1, 0))
    path.reverse()
    return [Slope.of(p, q) for p, q in path]


def farey_geodesic(a: Slope, b: Slope) -> list:
    """A geodesic [a, ..., b]; endpoints included, length farey_distance(a, b)."""
    if a == b:
        return [a]
    if a.is_infinity:
        return _geodesic_from_infinity(b)
    m = conjugator_to_infinity(a)
    minv = m.inv()
    return [act(minv, v) for v in _geodesic_from_infinity(act(m, b))]


def is_geodesic(path: list) -> bool:
    if not path:
        return False
    if any(not adjacent(u, v) for u, v in zip(path, path[1:])):
        return False
    return len(path) - 1 == farey_distance(path[0], path[-1])


def twist_about(alpha: Slope, n: int) -> MappingClass:
    """The n-th power of the Dehn twist about alpha.

    Conjugate of the shear [[1, n], [0, 1]] by the canonical matrix sending
    alpha to infinity; fixes alpha, and is parabolic for n != 0.
    """
    m = conjugator_to_infinity(alpha)
    return m.inv().mul(MappingClass(1, n, 0, 1)).mul(m)


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


class EmptyProjectionError(ValueError):
    pass


def annular_projection_set(alpha: Slope, curves) -> frozenset:
    """Union of annular projections of a set of curves (components equal to
    alpha contribute nothing); the set form of `link_span`."""
    out = set()
    for beta in curves:
        out |= annular_projection(alpha, beta)
    return frozenset(out)


def _span(m: MappingClass, curves):
    """(least floor, greatest ceiling) of the images of `curves` under the
    conjugator m of a site, or None when every curve is the site itself.

    `curves` is a slope or an iterable of slopes.  The floor and ceiling of
    the image (a*p + b*q)/(c*p + d*q) need neither a reduced fraction nor a
    sign fix: one divmod rounds down for either sign of the denominator, and
    the ceiling is one more unless the remainder is zero.  The denominator
    vanishes exactly on the site.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if isinstance(curves, Slope):
        den = c * curves.p + d * curves.q
        if not den:
            return None
        lo, r = divmod(a * curves.p + b * curves.q, den)
        return (lo, lo + 1) if r else (lo, lo)
    lo = hi = None
    for s in curves:
        den = c * s.p + d * s.q
        if not den:
            continue
        fl, r = divmod(a * s.p + b * s.q, den)
        if lo is None or fl < lo:
            lo = fl
        if r:
            fl += 1
        if hi is None or fl > hi:
            hi = fl
    return None if lo is None else (lo, hi)


def link_span(alpha: Slope, curves):
    """(lo, hi): the extreme positions, in the link of alpha, of the annular
    projections of a slope or an iterable of slopes; None when nothing
    projects.  The projection diameter is hi - lo."""
    return _span(conjugator_to_infinity(alpha), curves)


def annular_distance(alpha: Slope, beta, gamma) -> int:
    """Diameter in Z of the union of the projections of beta and gamma.

    Either argument may be a slope or an iterable of slopes; components equal
    to alpha are skipped.
    """
    m = conjugator_to_infinity(alpha)
    sb = _span(m, beta)
    sg = _span(m, gamma)
    if sb is None or sg is None:
        if sb is None and sg is None:
            raise EmptyProjectionError(f"nothing projects to the annulus about {alpha}")
        raise EmptyProjectionError(f"one side does not project to {alpha}")
    return max(sb[1], sg[1]) - min(sb[0], sg[0])


def slope_set_distance(A, B) -> int:
    """Distance between slope sets as the diameter of their union."""
    aset = {A} if isinstance(A, Slope) else set(A)
    bset = {B} if isinstance(B, Slope) else set(B)
    pts = list(aset | bset)
    best = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = farey_distance(pts[i], pts[j])
            if d > best:
                best = d
    return best


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
        # family (r0 + t p, s0 + t q)
        if q:
            lo = -(bound + s0) // q - 2
            hi = (bound - s0) // q + 2
        else:
            lo, hi = -2 * bound, 2 * bound
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
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._adj = {}
        self._dist_cache = {}

    def _neighbors(self, s: Slope):
        if s not in self._adj:
            self._adj[s] = bounded_neighbors(s, self.bound)
        return self._adj[s]

    def distances_from(self, src: Slope) -> dict:
        if src in self._dist_cache:
            return self._dist_cache[src]
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self._neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        self._dist_cache[src] = dist
        return dist

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
