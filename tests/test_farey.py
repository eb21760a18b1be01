import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from rgflab.farey import (INFINITY, BfsOracle, EmptyProjectionError, MappingClass,
                          Slope, _distance_to_infinity, act,
                          adjacent, annular_distance, bounded_neighbors,
                          bounded_vertices, conjugator_to_infinity,
                          distance_tail, farey_distance, farey_geodesic,
                          is_geodesic, link_span, slope_set_distance,
                          stabilized_bfs_distance, twist_about)
from rgflab import farey
from rgflab.projections import TorusAnnuli, random_slope
from oracles import annular_projection, annular_projection_set, matrix_power


def slopes_strategy(qmax=30):
    return st.builds(
        lambda p, q: Slope.of(p, q) if (p, q) != (0, 0) else INFINITY,
        st.integers(-qmax, qmax), st.integers(0, qmax))


class TestSlope:
    def test_canonical_forms(self):
        assert Slope.of(2, 4) == Slope(1, 2)
        assert Slope.of(-3, -6) == Slope(1, 2)
        assert Slope.of(3, -6) == Slope(-1, 2)
        assert Slope.of(-5, 0) == INFINITY
        assert str(Slope.of(7, -3)) == "-7/3"

    def test_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            Slope.of(0, 0)

    def test_parse_round_trip(self):
        for text in ("1/0", "0/1", "-5/8", "3"):
            assert str(Slope.parse(text)) in (text, text + "/1")


class TestValueTypes:
    """The contract of the tuple-backed `Slope` and `MappingClass`."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Slope(2, 4), "slope not reduced: 2/4"),
        (lambda: Slope(0, 0), "slope not in canonical form: 0/0"),
        (lambda: Slope(1, -2), "slope not in canonical form: 1/-2"),
        (lambda: Slope(-1, 0), "slope not in canonical form: -1/0"),
        (lambda: Slope.of(0, 0), "zero vector is not a slope"),
        (lambda: MappingClass(1, 1, 1, 1), "determinant must be 1"),
        (lambda: MappingClass.from_entries([1, 1.9, 0, 1]),
         "matrix entries must be four integers, got [1, 1.9, 0, 1]"),
    ])
    def test_constructor_errors(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_immutable(self):
        s, m = Slope(1, 2), MappingClass(1, 2, 0, 1)
        for obj, name in ((s, "p"), (s, "q"), (s, "r"), (m, "a"), (m, "d"), (m, "e")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 3)
        assert s == Slope(1, 2) and m == MappingClass(1, 2, 0, 1)

    def test_hashes_are_the_dataclass_hashes(self):
        # the frozen dataclasses hashed their fields as a tuple, and set
        # iteration order follows the hash
        rng = random.Random(3)
        for _ in range(300):
            s = random_slope(rng, rng.choice((1, 50, 10 ** 6)))
            assert hash(s) == hash((s.p, s.q))
            m = twist_about(s, rng.randrange(-9, 10))
            assert hash(m) == hash((m.a, m.b, m.c, m.d))
        slopes = [Slope(p, q) for q in range(1, 9) for p in range(-9, 10) if math.gcd(p, q) == 1]
        assert [(s.p, s.q) for s in set(slopes)] == list({(s.p, s.q) for s in slopes})

    def test_reduced_is_the_validated_slope(self):
        for p, q in ((1, 0), (0, 1), (-5, 8), (12345678901234567, 98765432109876543)):
            assert Slope._reduced(p, q) == Slope(p, q)
            assert type(Slope._reduced(p, q)) is Slope

    def test_pickle_copy_str_repr(self):
        s, m = Slope(-5, 8), MappingClass(2, 1, 1, 1)
        for obj in (s, INFINITY, m, MappingClass.identity()):
            for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert twin == obj and type(twin) is type(obj) and hash(twin) == hash(obj)
        assert (str(s), repr(s), str(INFINITY)) == ("-5/8", "Slope(-5/8)", "1/0")
        assert repr(m) == str(m) == "MappingClass(a=2, b=1, c=1, d=1)"
        assert m.entries() == (2, 1, 1, 1) and type(m.entries()) is tuple

    def test_projective_key_makes_the_first_nonzero_entry_positive(self):
        rng = random.Random(5)
        mats = [MappingClass(-1, 0, 0, -1), MappingClass(0, -1, 1, 0), MappingClass(0, 1, -1, 0)]
        mats += [twist_about(random_slope(rng, 50), rng.randrange(-5, 6)).mul(
            matrix_power(MappingClass(0, -1, 1, 0), rng.randrange(4))) for _ in range(200)]
        for m in mats:
            first = next(x for x in m.entries() if x)
            key = m.projective_key()
            assert key == (m.entries() if first > 0 else tuple(-x for x in m.entries()))
            assert type(key) is tuple and key == m.inv().inv().projective_key()

    def test_bare_slope_is_one_curve_not_a_pair(self):
        # a slope is a tuple (p, q); every entry point must read it as one
        # curve, never as the two integers p and q
        torus = TorusAnnuli()
        rng = random.Random(4)
        for _ in range(400):
            site, beta, gamma = (random_slope(rng, rng.choice((3, 100, 10 ** 5)))
                                 for _ in range(3))
            for b, g in ((beta, gamma), (beta, site), (site, site)):
                assert _outcome(annular_distance, site, b, g) \
                    == _outcome(set_annular_distance, site, b, g)
                assert slope_set_distance(b, g) == torus.ambient_dist(b, g) == farey_distance(b, g)
                assert torus.projects(site, b) == (b != site)
                pts = annular_projection(site, b) | annular_projection(site, g)
                assert _outcome(torus.path_diam, site, [b, g]) == (
                    max(pts) - min(pts) if pts else
                    ("EmptyProjectionError", f"nothing projects to the annulus about {site}"))
            pts = annular_projection(site, beta)
            assert link_span(site, [beta]) == ((min(pts), max(pts)) if pts else None)


class TestAdjacency:
    def test_examples(self):
        assert adjacent(Slope(0, 1), INFINITY)
        assert adjacent(Slope(1, 2), Slope(1, 3))
        assert not adjacent(INFINITY, Slope(1, 2))

    def test_symmetric(self):
        rng = random.Random(0)
        verts = bounded_vertices(9)
        for _ in range(200):
            a, b = rng.choice(verts), rng.choice(verts)
            assert adjacent(a, b) == adjacent(b, a)


def dict_bfs_distances(src: Slope, bound: int) -> dict:
    """The BFS over `bounded_neighbors` with a dict of distances that
    `BfsOracle` replaced: its slow twin."""
    dist = {src: 0}
    queue = [src]
    for u in queue:
        for v in bounded_neighbors(u, bound):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestDistance:
    def test_examples(self):
        assert farey_distance(INFINITY, Slope(0, 1)) == 1
        assert farey_distance(INFINITY, Slope(1, 2)) == 2
        assert farey_distance(INFINITY, INFINITY) == 0

    def test_against_bfs_oracle(self):
        verts = bounded_vertices(7)
        o = BfsOracle(14)
        o2 = BfsOracle(28)
        for i, a in enumerate(verts):
            d1, d2 = o.distances_from(a), o2.distances_from(a)
            for b in verts[i + 1:]:
                assert d1[b] == d2[b], "oracle did not stabilize"
                assert farey_distance(a, b) == d1[b]

    @pytest.mark.parametrize("bound", [1, 3, 8])
    def test_indexed_search_matches_dict_search(self, bound):
        """`BfsOracle` against the dict BFS it replaced, item for item and in
        order, from sources inside and outside the bound."""
        oracle = BfsOracle(bound)
        outside = [Slope(bound + 1, 1), Slope(-2 * bound - 1, 2), Slope(1, bound + 1),
                   Slope(3 * bound + 1, 3 * bound + 2)]
        for src in bounded_vertices(bound) + outside:
            assert list(oracle.distances_from(src).items()) \
                == list(dict_bfs_distances(src, bound).items()), src
        assert oracle.distance(outside[0], Slope(bound, 1)) == 1

    def test_stabilized_helper(self):
        value, stable = stabilized_bfs_distance(INFINITY, Slope(5, 8), 16)
        assert stable and value == farey_distance(INFINITY, Slope(5, 8))

    def test_triangle_inequality(self):
        rng = random.Random(1)
        verts = bounded_vertices(12)
        for _ in range(300):
            a, b, c = (rng.choice(verts) for _ in range(3))
            assert farey_distance(a, c) <= farey_distance(a, b) + farey_distance(b, c)


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


def _distance_profile(cf: list) -> list:
    """Graph distances from infinity to the convergents of [a0; a1, ..., an]:
    [D_{-1}, D_0, ..., D_n], from the recursion
      D_{k+1} = min(1 + D_k, a_{k+1} + min(D_k, D_{k-1})).
    The list form of what `_distance_to_infinity` keeps in two variables,
    and its slow twin."""
    dists = [0, 1]
    for ak in cf[1:]:
        dists.append(min(1 + dists[-1], ak + min(dists[-1], dists[-2])))
    return dists


def _from_cf(cf) -> Slope:
    """The slope with floor continued fraction [a0; a1, ..., an]."""
    p, q = cf[-1], 1
    for a in reversed(cf[:-1]):
        p, q = a * p + q, p
    return Slope.of(p, q)


def _tail(rng, kind: str, n: int) -> list:
    """n partial quotients a1..an (n >= 1) of the given shape, ending >= 2."""
    if kind == "ones":
        tail = [1] * n
    elif kind == "large":
        tail = [rng.randint(2, 40) for _ in range(n)]
    else:  # runs of ones broken by larger quotients
        tail = []
        while len(tail) < n:
            tail += [1] * rng.randint(1, 6) + [rng.randint(2, 9)] * rng.randint(0, 2)
        tail = tail[:n]
    tail[-1] = max(tail[-1], 2)
    return tail


class TestDistanceKernel:
    """The one-pass kernel against the full distance profile, its slow twin."""

    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_profile(self, kind, seed):
        rng = random.Random(100 * seed + len(kind))
        lengths = [1, 2, 3, 4, 5, 17, 64, 255, 600] + [rng.randint(1, 600) for _ in range(12)]
        for n in lengths:
            a0 = rng.choice([0, rng.randint(1, 99), -rng.randint(1, 99)])
            cf = [a0] + _tail(rng, kind, n - 1) if n > 1 else [a0]
            s = _from_cf(cf)
            assert _continued_fraction(s.p, s.q) == cf
            assert _distance_to_infinity(s) == _distance_profile(cf)[-1], (kind, n)

    def test_integers_and_infinity(self):
        assert _distance_to_infinity(INFINITY) == 0
        for p in (-7, -1, 0, 1, 12):
            cf = _continued_fraction(p, 1)
            assert _distance_to_infinity(Slope(p, 1)) == 1 == _distance_profile(cf)[-1]

    def test_negative_numerators(self):
        rng = random.Random(9)
        for _ in range(300):
            q = rng.randint(2, 10 ** rng.randint(1, 60))
            p = -rng.randint(1, 10 ** 60)
            s = Slope.of(p, q)
            assert s.p < 0
            cf = _continued_fraction(s.p, s.q)
            assert _distance_to_infinity(s) == _distance_profile(cf)[-1]

    def test_invariant_under_large_conjugators(self):
        rng = random.Random(11)
        verts = bounded_vertices(12)
        for _ in range(40):
            m = MappingClass.identity()
            while max(abs(x) for x in m.entries()).bit_length() < 1000:
                m = m.mul(twist_about(rng.choice(verts), rng.choice([-3, -2, -1, 1, 2, 3])))
            a, b = rng.choice(verts), rng.choice(verts)
            ma, mb = act(m, a), act(m, b)
            assert farey_distance(ma, mb) == farey_distance(a, b)
            if not ma.is_infinity and ma != mb:
                s = act(conjugator_to_infinity(ma), mb)
                cf = _continued_fraction(s.p, s.q)
                assert _distance_to_infinity(s) == _distance_profile(cf)[-1]


def _point(s: Slope) -> tuple:
    """The resume point (adj(L), before, up) of s from the empty prefix:
    `distance_tail(s, False)` and the adj(L) of `bassserre.ResumeTable`."""
    _, before, up, (a, b, c, e) = distance_tail(s.p, s.q, False)
    return (e, -b, -c, a), before, up


def _resume(point, s: Slope) -> tuple:
    """`distance_tail` from a resume point (R, d, up) on the complete
    quotient x = R.s, and the next point (adj(L).R, d + before, up'): the
    resume step of `bassserre.ResumeTable`, for a slope whose quotients
    start with those of the point's prefix."""
    (r0, r1, r2, r3), d, up = point
    x, y = r0 * s.p + r1 * s.q, r2 * s.p + r3 * s.q
    if y < 0:
        x, y = -x, -y
    assert x > y > 0
    added, before, up, (a, b, c, e) = distance_tail(x, y, up)
    return d + added, ((e * r0 - b * r2, e * r1 - b * r3, a * r2 - c * r0, a * r3 - c * r1),
                       d + before, up)


class TestResumableKernel:
    """`distance_tail` resumed after every prefix of a continued fraction,
    and from the empty prefix (up False) in full and through a point that
    ends after every prefix, against `_distance_to_infinity` and the
    profile."""

    @pytest.mark.parametrize("terms", [16, 128, 512])
    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    def test_split_after_every_prefix(self, kind, terms):
        rng = random.Random(terms + len(kind))
        for _ in range(3):
            cf = [rng.randint(-99, 99)] + _tail(rng, kind, terms - 1)
            s = _from_cf(cf)
            want = _distance_to_infinity(s)
            dists = _distance_profile(_continued_fraction(s.p, s.q))  # [k + 1]: D of conv. k
            conv = [(1, 0), (cf[0], 1)]              # conv[k + 1]: convergent k >= -1
            for ak in cf[1:]:
                conv.append((ak * conv[-1][0] + conv[-2][0], ak * conv[-1][1] + conv[-2][1]))
            n = len(cf) - 1
            last = ((conv[n][0], conv[n - 1][0], conv[n][1], conv[n - 1][1]),
                    dists[n], dists[n] > dists[n - 1])
            (t0, t1, t2, t3), d_last, up_last = last
            adj_last = ((t3, -t1, -t2, t0), d_last, up_last)
            assert distance_tail(s.p, s.q, False) == (want, d_last, up_last, last[0])
            for j in range(n):
                # resume after a_0..a_j, from the state of convergent j
                d, up = dists[j + 1], dists[j + 1] > dists[j]
                x = _from_cf(cf[j + 1:])
                added, before, up_before, (a, b, c, e) = distance_tail(x.p, x.q, up)
                assert d + added == want, (j, kind, terms)
                (p1, q1), (p0, q0) = conv[j + 1], conv[j]
                assert ((p1 * a + p0 * c, p1 * b + p0 * e, q1 * a + q0 * c, q1 * b + q0 * e),
                        d + before, up_before) == last, j
                # from the point of a slope whose quotients before the last
                # are a_0..a_j, composed through adj(L)
                assert _resume(_point(_from_cf(cf[:j + 1] + [2])), s) == (want, adj_last), j

    def test_empty_prefix_on_a_grid(self):
        """Every reduced p/q with 1 <= q < 60 and |p| <= 400: a_0 negative,
        zero and positive, integers included."""
        checked = 0
        for q in range(1, 60):
            for p in range(-400, 401):
                if math.gcd(p, q) == 1:
                    assert distance_tail(p, q, False)[0] == _distance_to_infinity(Slope(p, q))
                    checked += 1
        assert checked == 29079

    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    @pytest.mark.parametrize("a0", ["negative", "zero", "positive"])
    def test_empty_prefix_any_a0(self, a0, kind):
        rng = random.Random(f"{a0}-{kind}")
        for _ in range(40):
            head = {"negative": -rng.randint(1, 10 ** 6), "zero": 0,
                    "positive": rng.randint(1, 10 ** 6)}[a0]
            s = _from_cf([head] + _tail(rng, kind, rng.randint(1, 60)))
            assert distance_tail(s.p, s.q, False)[0] == _distance_to_infinity(s), s

    def test_state_of_integers(self):
        """An integer's only quotient is a_0: one step, nothing before it and
        an empty L, so `ResumeTable` keeps the prefix empty."""
        for p in (-10 ** 30, -7, 0, 1, 12, 10 ** 30):
            assert distance_tail(p, 1, False) == (1, 0, False, (1, 0, 0, 1))


class TestGeodesic:
    def test_degenerate(self):
        assert farey_geodesic(Slope(2, 3), Slope(2, 3)) == [Slope(2, 3)]
        assert farey_geodesic(Slope(0, 1), INFINITY) == [Slope(0, 1), INFINITY]

    def test_valid_on_random_pairs(self):
        rng = random.Random(2)
        verts = bounded_vertices(15)
        for _ in range(300):
            a, b = rng.choice(verts), rng.choice(verts)
            path = farey_geodesic(a, b)
            assert path[0] == a and path[-1] == b
            assert all(adjacent(u, v) for u, v in zip(path, path[1:]))
            assert len(path) - 1 == farey_distance(a, b)
            assert is_geodesic(path)

    def test_huge_entries(self):
        a = act(twist_about(Slope(5, 8), 200), Slope(1, 3))
        path = farey_geodesic(INFINITY, a)
        assert is_geodesic(path)


def _geodesic_from_infinity(s: Slope) -> list:
    """One geodesic from 1/0 to s through convergents of s, walked back from
    s over the convergent index k with the whole distance profile: the slow
    twin of `farey_geodesic` from 1/0.

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
    dists = _distance_profile(cf)   # dists[k + 1] is D of convergent k
    # convergents with their (p, q) vectors; conv[k + 1] is convergent k >= -1
    conv = [(1, 0), (cf[0], 1)]
    for ak in cf[1:]:
        conv.append((ak * conv[-1][0] + conv[-2][0], ak * conv[-1][1] + conv[-2][1]))
    path = []  # from s back toward infinity; convergents are in lowest terms
    k = len(cf) - 1
    while k > 0:
        path.append(conv[k + 1])
        k -= 2 if cf[k] == 1 and dists[k] > dists[k - 1] else 1
    if k == 0:
        path.append(conv[1])
    path.append((1, 0))
    path.reverse()
    return [Slope(p, q) for p, q in path]


def two_stage_geodesic(a: Slope, b: Slope) -> list:
    """The `farey_geodesic` that sent a to 1/0, walked back from the image
    of b with `_geodesic_from_infinity`, then mapped each vertex back: the
    slow twin of the one-pass geodesic."""
    if a == b:
        return [a]
    m = conjugator_to_infinity(a)
    return [act(m.inv(), v) for v in _geodesic_from_infinity(act(m, b))]


def recursive_geodesic_from_infinity(s: Slope) -> list:
    """The recursive convergent-fan walk that the loop of
    `_geodesic_from_infinity` replaced, kept as its slow twin: it recurses
    once per partial quotient."""
    if s.is_infinity:
        return [INFINITY]
    if s.q == 1:
        return [INFINITY, s]
    cf = _continued_fraction(s.p, s.q)
    dists = _distance_profile(cf)
    conv = [(1, 0), (cf[0], 1)]
    for ak in cf[1:]:
        conv.append((ak * conv[-1][0] + conv[-2][0], ak * conv[-1][1] + conv[-2][1]))
    path = []

    def walk(k):
        if k == -1:
            path.append((1, 0))
            return
        if k == 0:
            path.append(conv[1])
            path.append((1, 0))
            return
        path.append(conv[k + 1])
        j = cf[k]
        d_base, d_prev = dists[k], dists[k - 1]
        while True:
            if 1 + d_base <= j + min(d_base, d_prev):
                walk(k - 1)
                return
            j -= 1
            if j == 0:
                walk(k - 2)
                return
            path.append((j * conv[k][0] + conv[k - 1][0], j * conv[k][1] + conv[k - 1][1]))

    walk(len(cf) - 1)
    path.reverse()
    return [Slope.of(p, q) for p, q in path]


class TestGeodesicSlowTwin:
    @pytest.mark.parametrize("qmax", [3, 30, 1000, 10 ** 4])
    def test_seeded_slopes(self, qmax):
        rng = random.Random(qmax)
        for _ in range(2000):
            s = random_slope(rng, qmax)
            assert farey_geodesic(INFINITY, s) == _geodesic_from_infinity(s) \
                == recursive_geodesic_from_infinity(s), s

    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    def test_shaped_expansions(self, kind):
        rng = random.Random(len(kind))
        for n in [2, 3, 4, 5, 17, 64, 255] + [rng.randint(2, 255) for _ in range(8)]:
            s = _from_cf([rng.randint(-9, 9)] + _tail(rng, kind, n - 1))
            assert farey_geodesic(INFINITY, s) == _geodesic_from_infinity(s) \
                == recursive_geodesic_from_infinity(s), (kind, n)

    @pytest.mark.parametrize("pattern", [[2], [3], [1, 2], [5]])
    @pytest.mark.parametrize("terms", [1200, 2400])
    def test_long_expansions(self, pattern, terms):
        # the recursive walk raised RecursionError on these
        tail = (pattern * terms)[:terms]
        tail[-1] = max(tail[-1], 2)
        s = _from_cf([0] + tail)
        path = farey_geodesic(INFINITY, s)
        assert path[0] == INFINITY and path[-1] == s
        assert is_geodesic(path) and len(path) - 1 == farey_distance(INFINITY, s)
        assert path == _geodesic_from_infinity(s)


def _edge_from(rng, s: Slope, spread: int) -> Slope:
    """A Farey neighbour of s: the image of an integer under C(s)^-1."""
    return act(conjugator_to_infinity(s).inv(), Slope(rng.randrange(-spread, spread + 1), 1))


class TestOnePassGeodesic:
    """`farey_geodesic` in one Euclid loop in a's frame against the
    two-stage twin, on fixed seeds: 1/0 on either side, integers, equal
    slopes, Farey neighbours, random pairs, and twisted pairs T_site^n(base)
    in both orders; 5,600 pairs per qmax, 22,400 in all."""

    @pytest.mark.parametrize("qmax", [1, 50, 1000, 10 ** 6])
    def test_matches_two_stage_twin(self, qmax):
        rng = random.Random(qmax + 17)
        kinds = dict.fromkeys(["infinity", "integer", "equal", "edge", "random", "twisted"], 0)
        for _ in range(2800):
            a = random_slope(rng, qmax)
            kind = rng.choice(list(kinds))
            if kind == "infinity":
                b = INFINITY
            elif kind == "integer":
                b = Slope(rng.randrange(-qmax - 3, qmax + 4), 1)
            elif kind == "equal":
                b = a
            elif kind == "edge":
                b = _edge_from(rng, a, qmax + 3)
            elif kind == "random":
                b = random_slope(rng, qmax)
            else:
                site = random_slope(rng, qmax)
                b = act(twist_about(site, rng.choice([-1, 1]) * rng.randrange(1, 40)), a)
            kinds[kind] += 1
            for u, v in ((a, b), (b, a)):
                path = farey_geodesic(u, v)
                assert path == two_stage_geodesic(u, v), (u, v)
                assert all(type(x) is Slope for x in path)
                assert len(path) - 1 == farey_distance(u, v)
        assert min(kinds.values()) > 400

    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    def test_shaped_expansions_in_a_frame(self, kind):
        # long runs of quotients 1 after a conjugator with large entries
        rng = random.Random(len(kind) + 50)
        for n in [1, 2, 3, 4, 5, 17, 64, 255] + [rng.randint(2, 255) for _ in range(8)]:
            a = random_slope(rng, 10 ** 6)
            x = _from_cf([rng.randint(-9, 9)] + (_tail(rng, kind, n - 1) if n > 1 else []))
            b = act(conjugator_to_infinity(a).inv(), x)
            for u, v in ((a, b), (b, a)):
                path = farey_geodesic(u, v)
                assert path == two_stage_geodesic(u, v), (kind, n)
                assert is_geodesic(path)


class TestEdgeRule:
    """`farey_distance` reads 1 off |ps - rq| = 1 with no Euclid; checked
    against the stabilized BFS oracle on edges and on non-adjacent pairs."""

    def test_against_bfs_oracle(self):
        rng = random.Random(23)
        o, o2 = BfsOracle(14), BfsOracle(28)
        searched = {}                   # source -> its two searches, run once
        verts = bounded_vertices(7)
        edges = nonadjacent = 0
        while edges < 300 or nonadjacent < 300:
            a = rng.choice(verts)
            b = _edge_from(rng, a, 7) if rng.random() < 0.5 else rng.choice(verts)
            if a == b or max(abs(b.p), b.q) > 7:
                continue
            if a not in searched:
                searched[a] = o.distances_from(a), o2.distances_from(a)
            near, far = searched[a]
            d1 = near[b]
            assert d1 == far[b], "oracle did not stabilize"
            assert farey_distance(a, b) == farey_distance(b, a) == d1, (a, b)
            assert (d1 == 1) == adjacent(a, b)
            edges += d1 == 1
            nonadjacent += d1 > 1


class TestAction:
    def test_examples(self):
        t = MappingClass(1, 1, 0, 1)
        assert act(t, Slope(0, 1)) == Slope(1, 1)
        assert act(t, INFINITY) == INFINITY
        assert act(MappingClass(0, -1, 1, 0), INFINITY) == Slope(0, 1)

    def test_projective(self):
        m = MappingClass(2, 1, 1, 1)
        neg = MappingClass(-2, -1, -1, -1)
        for s in bounded_vertices(5):
            assert act(m, s) == act(neg, s)

    @settings(max_examples=200, deadline=None)
    @given(slopes_strategy(12), slopes_strategy(12),
           st.integers(-4, 4), st.integers(-4, 4))
    def test_isometry(self, a, b, n1, n2):
        m = twist_about(Slope(1, 2), n1).mul(twist_about(Slope(0, 1), n2))
        assert farey_distance(act(m, a), act(m, b)) == farey_distance(a, b)

    def test_image_is_the_validated_slope(self):
        # act skips the gcd: a determinant-one matrix keeps vectors primitive
        rng = random.Random(21)
        gens = [MappingClass(1, 1, 0, 1), MappingClass(1, -1, 0, 1),
                MappingClass(1, 0, 1, 1), MappingClass(1, 0, -1, 1),
                MappingClass(0, -1, 1, 0), MappingClass(-1, 0, 0, -1)]
        for _ in range(400):
            m = MappingClass.identity()
            for _ in range(rng.randrange(0, 30)):
                m = m.mul(rng.choice(gens))
            s = random_slope(rng, rng.choice((1, 10, 10 ** 4)))
            img = act(m, s)
            want = Slope.of(m.a * s.p + m.b * s.q, m.c * s.p + m.d * s.q)
            assert img == want and hash(img) == hash(want)
            assert Slope(img.p, img.q) == img  # passes the full validation


class TestTwist:
    def test_shear_at_infinity(self):
        assert twist_about(INFINITY, 1).entries() == (1, 1, 0, 1)

    def test_fixes_core_and_parabolic(self):
        for alpha in (Slope(0, 1), Slope(5, 8), Slope(-3, 7)):
            t = twist_about(alpha, 1)
            assert act(t, alpha) == alpha
            assert abs(t.trace) == 2
            assert not t.is_identity()

    def test_powers(self):
        rng = random.Random(3)
        sample = [INFINITY, Slope(0, 1), Slope(2, 5), Slope(-4, 9)]
        for alpha in sample:
            t1 = twist_about(alpha, 1)
            for n in range(-3, 4):
                assert twist_about(alpha, n) == matrix_power(t1, n)

    def test_conjugator_sends_alpha_to_infinity(self):
        for alpha in bounded_vertices(9):
            m = conjugator_to_infinity(alpha)
            assert act(m, alpha) == INFINITY


def conjugated_twist(alpha: Slope, n: int) -> MappingClass:
    """The conjugation product C^-1 [[1, n], [0, 1]] C that `twist_about`
    replaced: its slow twin."""
    c = conjugator_to_infinity(alpha)
    return c.inv().mul(MappingClass(1, n, 0, 1)).mul(c)


class TestTwistSlowTwin:
    """The closed form of `twist_about` against the conjugation product,
    entry for entry: the same integer matrix, not only up to sign."""

    def test_bounded_vertices(self):
        for alpha in bounded_vertices(12):
            for n in range(-6, 7):
                got = twist_about(alpha, n)
                assert type(got) is MappingClass
                assert tuple(got) == tuple(conjugated_twist(alpha, n)), (alpha, n)

    def test_seeded_slopes(self):
        rng = random.Random(19)
        for _ in range(2000):
            alpha = random_slope(rng, 10 ** 6)
            n = rng.randint(-1000, 1000)
            assert tuple(twist_about(alpha, n)) == tuple(conjugated_twist(alpha, n)), (alpha, n)


EMPTY_PROJECTION_ROWS = [
    (INFINITY, INFINITY, "nothing projects to the annulus about 1/0"),
    # the other spellings of 1/0 parse to the site too
    (Slope.parse("-1/0"), Slope.of(2, 0), "nothing projects to the annulus about 1/0"),
    (INFINITY, Slope(0, 1), "one side does not project to 1/0"),
    (Slope(3, 2), INFINITY, "one side does not project to 1/0"),
    (Slope(-7, 1), Slope.parse("-1/0"), "one side does not project to 1/0"),
]


class TestAnnularProjection:
    def test_examples(self):
        assert annular_projection(INFINITY, Slope(5, 2)) == frozenset({2, 3})
        assert annular_projection(INFINITY, Slope(3, 1)) == frozenset({3})
        assert annular_projection(INFINITY, INFINITY) == frozenset()

    def test_distance_examples(self):
        assert annular_distance(INFINITY, Slope(5, 2), Slope(1, 3)) == 3
        for beta in (Slope(5, 2), Slope(1, 3), Slope(7, 1)):
            assert annular_distance(INFINITY, beta, beta) <= 1

    def test_empty_projection_raises(self):
        with pytest.raises(EmptyProjectionError):
            annular_distance(INFINITY, INFINITY, Slope(0, 1))

    @pytest.mark.parametrize("beta, gamma, message", EMPTY_PROJECTION_ROWS)
    def test_empty_projection_messages(self, beta, gamma, message):
        with pytest.raises(EmptyProjectionError) as info:
            annular_distance(INFINITY, beta, gamma)
        assert str(info.value) == message

    def test_twist_translation(self):
        rng = random.Random(4)
        verts = [v for v in bounded_vertices(10)]
        for _ in range(300):
            alpha, beta = rng.choice(verts), rng.choice(verts)
            if alpha == beta:
                continue
            n = rng.randrange(1, 30)
            d = annular_distance(alpha, act(twist_about(alpha, n), beta), beta)
            assert d >= n

    def test_equivariance(self):
        rng = random.Random(5)
        verts = bounded_vertices(8)
        mats = [twist_about(Slope(1, 2), 2), twist_about(Slope(0, 1), -3),
                MappingClass(0, -1, 1, 0)]
        for _ in range(200):
            alpha, beta, gamma = (rng.choice(verts) for _ in range(3))
            if beta == alpha or gamma == alpha:
                continue
            m = rng.choice(mats)
            assert annular_distance(act(m, alpha), act(m, beta), act(m, gamma)) \
                == annular_distance(alpha, beta, gamma)

    def test_invariant_under_conjugator_choice(self):
        # any matrix sending alpha to infinity differs from the canonical one
        # by an integer shear, which shifts all link coordinates uniformly
        rng = random.Random(7)
        verts = bounded_vertices(8)
        for _ in range(150):
            alpha, beta, gamma = (rng.choice(verts) for _ in range(3))
            if beta == alpha or gamma == alpha:
                continue
            shear = MappingClass(1, rng.randrange(-5, 6), 0, 1)
            alt = shear.mul(conjugator_to_infinity(alpha))
            assert act(alt, alpha) == INFINITY

            def proj(s):
                img = act(alt, s)
                fl = img.p // img.q
                return {fl, fl + 1} if img.p % img.q else {fl}

            pts = proj(beta) | proj(gamma)
            assert max(pts) - min(pts) == annular_distance(alpha, beta, gamma)

    def test_single_curve_diameter_at_most_one(self):
        rng = random.Random(6)
        verts = bounded_vertices(10)
        for _ in range(200):
            alpha, beta = rng.choice(verts), rng.choice(verts)
            if alpha == beta:
                continue
            proj = annular_projection(alpha, beta)
            assert max(proj) - min(proj) <= 1


def set_annular_distance(alpha, beta, gamma) -> int:
    """The set-based annular distance the integer kernel replaced: the slow
    twin of `annular_distance`."""
    pb, pg = annular_projection(alpha, beta), annular_projection(alpha, gamma)
    if not pb or not pg:
        raise EmptyProjectionError(f"one side does not project to {alpha}" if pb or pg
                                   else f"nothing projects to the annulus about {alpha}")
    return max(pb | pg) - min(pb | pg)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyProjectionError as exc:
        return ("EmptyProjectionError", str(exc))


def _mixed_slope(rng, qmax):
    """A random slope, 1/0 or an integer slope, one time in three each."""
    return rng.choice((INFINITY, Slope(rng.randint(-qmax, qmax), 1), random_slope(rng, qmax)))


class TestLinkSpanSlowTwin:
    """`link_span` and `annular_distance` against the set-based projections."""

    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_single_slopes(self, qmax):
        # 1/0 and integer slopes on every side: the conjugator of 1/0 is the
        # identity, and an integer site has q = 1
        rng = random.Random(qmax)
        for _ in range(1500):
            alpha, beta, gamma = (_mixed_slope(rng, qmax) for _ in range(3))
            pts = annular_projection(alpha, beta)
            assert link_span(alpha, [beta]) == ((min(pts), max(pts)) if pts else None)
            assert _outcome(annular_distance, alpha, beta, gamma) \
                == _outcome(set_annular_distance, alpha, beta, gamma)

    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_slope_sets(self, qmax):
        # `link_span` folds any iterable of slopes, the site among them
        rng = random.Random(qmax + 1)
        for _ in range(500):
            alpha = random_slope(rng, qmax)
            side = [random_slope(rng, qmax) for _ in range(rng.randrange(0, 5))]
            if rng.random() < 0.3:
                side.append(alpha)  # contributes nothing
            side = rng.choice((set, frozenset, list, tuple))(side)
            pts = annular_projection_set(alpha, side)
            assert link_span(alpha, side) == ((min(pts), max(pts)) if pts else None)

    def test_geodesic_paths(self):
        # the fold `path_diam` runs: a Farey geodesic, often through the site
        rng = random.Random(11)
        through = 0
        for _ in range(500):
            alpha, a = random_slope(rng, 1000), random_slope(rng, 1000)
            path = farey_geodesic(a, act(twist_about(alpha, rng.randrange(1, 12)), a))
            through += alpha in path
            pts = annular_projection_set(alpha, path)
            assert link_span(alpha, path) == ((min(pts), max(pts)) if pts else None)
        assert through > 10

    def test_sets_containing_alpha(self):
        rng = random.Random(8)
        for _ in range(300):
            alpha = random_slope(rng, 1000)
            others = {random_slope(rng, 1000) for _ in range(3)} - {alpha}
            beta = rng.choice(sorted(others, key=str))
            with_alpha = others | {alpha}
            assert link_span(alpha, with_alpha) == link_span(alpha, others)
            for sides in ((alpha, beta), (beta, alpha)):
                assert _outcome(annular_distance, alpha, *sides) \
                    == _outcome(set_annular_distance, alpha, *sides) \
                    == ("EmptyProjectionError", f"one side does not project to {alpha}")

    @pytest.mark.parametrize("beta, gamma, message", EMPTY_PROJECTION_ROWS)
    def test_empty_projection_messages(self, beta, gamma, message):
        assert _outcome(set_annular_distance, INFINITY, beta, gamma) \
            == _outcome(annular_distance, INFINITY, beta, gamma) \
            == ("EmptyProjectionError", message)

    def test_empty_cases_at_other_sites(self):
        rng = random.Random(9)
        for _ in range(200):
            alpha, beta = random_slope(rng, 500), random_slope(rng, 500)
            for sides in ((alpha, alpha), (alpha, beta), (beta, alpha), (beta, beta)):
                assert _outcome(annular_distance, alpha, *sides) \
                    == _outcome(set_annular_distance, alpha, *sides)
            assert link_span(alpha, [alpha]) is None and link_span(alpha, []) is None

    def test_alpha_at_infinity(self):
        # the conjugator of 1/0 is the identity: a slope's floor and ceiling
        rng = random.Random(10)
        for _ in range(500):
            beta, gamma = random_slope(rng, 10 ** 4), random_slope(rng, 10 ** 4)
            want = None if beta.is_infinity else (beta.p // beta.q, -(-beta.p // beta.q))
            assert link_span(INFINITY, [beta]) == want
            assert _outcome(annular_distance, INFINITY, beta, gamma) \
                == _outcome(set_annular_distance, INFINITY, beta, gamma)


class TestBoundedSubgraph:
    def test_neighbors_are_adjacent(self):
        for s in (INFINITY, Slope(2, 5), Slope(-3, 4)):
            for nb in bounded_neighbors(s, 10):
                assert adjacent(s, nb)
                assert abs(nb.p) <= 10 and nb.q <= 10

    def test_neighbor_completeness(self):
        # every bounded vertex adjacent to s appears
        bound = 8
        verts = bounded_vertices(bound)
        for s in (Slope(1, 2), Slope(0, 1), INFINITY):
            expected = {v for v in verts if v != s and adjacent(s, v)}
            assert set(bounded_neighbors(s, bound)) == expected


def test_slope_set_distance_diameter_of_union(monkeypatch):
    # a curve system on the torus is one slope, so the diameter of the union
    # of two systems is their Farey distance; equal ones need no kernel call
    assert slope_set_distance(Slope(0, 1), Slope(5, 8)) == farey_distance(Slope(0, 1), Slope(5, 8))
    monkeypatch.setattr(farey, "farey_distance", None)
    assert slope_set_distance(Slope(5, 8), Slope(5, 8)) == 0
