import random

import pytest
from hypothesis import given, settings, strategies as st

from rgflab.farey import (INFINITY, BfsOracle, EmptyProjectionError, MappingClass,
                          Slope, _continued_fraction, _distance_profile,
                          _distance_to_infinity, _geodesic_from_infinity, act,
                          adjacent, annular_distance, annular_projection,
                          annular_projection_set, bounded_neighbors,
                          bounded_vertices, conjugator_to_infinity,
                          distance_state, distance_tail, farey_distance,
                          farey_geodesic, is_geodesic, link_span, slope_set_distance,
                          stabilized_bfs_distance, twist_about)
from rgflab.projections import random_slope


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

    def test_stabilized_helper(self):
        value, stable = stabilized_bfs_distance(INFINITY, Slope(5, 8), 16)
        assert stable and value == farey_distance(INFINITY, Slope(5, 8))

    def test_triangle_inequality(self):
        rng = random.Random(1)
        verts = bounded_vertices(12)
        for _ in range(300):
            a, b, c = (rng.choice(verts) for _ in range(3))
            assert farey_distance(a, c) <= farey_distance(a, b) + farey_distance(b, c)


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
            assert _distance_to_infinity(s) == _distance_profile(s.p, s.q)[-1], (kind, n)

    def test_integers_and_infinity(self):
        assert _distance_to_infinity(INFINITY) == 0
        for p in (-7, -1, 0, 1, 12):
            assert _distance_to_infinity(Slope(p, 1)) == 1 == _distance_profile(p, 1)[-1]

    def test_negative_numerators(self):
        rng = random.Random(9)
        for _ in range(300):
            q = rng.randint(2, 10 ** rng.randint(1, 60))
            p = -rng.randint(1, 10 ** 60)
            s = Slope.of(p, q)
            assert s.p < 0
            assert _distance_to_infinity(s) == _distance_profile(s.p, s.q)[-1]

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
                assert _distance_to_infinity(s) == _distance_profile(s.p, s.q)[-1]


class TestResumableKernel:
    """`distance_tail` resumed after every prefix of a continued fraction, and
    `distance_state`, against `_distance_to_infinity` and the profile."""

    @pytest.mark.parametrize("terms", [16, 128, 512])
    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    def test_split_after_every_prefix(self, kind, terms):
        rng = random.Random(terms + len(kind))
        for _ in range(3):
            cf = [rng.randint(-99, 99)] + _tail(rng, kind, terms - 1)
            s = _from_cf(cf)
            want = _distance_to_infinity(s)
            dists = _distance_profile(s.p, s.q)      # dists[k + 1]: D of convergent k
            conv = [(1, 0), (cf[0], 1)]              # conv[k + 1]: convergent k >= -1
            for ak in cf[1:]:
                conv.append((ak * conv[-1][0] + conv[-2][0], ak * conv[-1][1] + conv[-2][1]))
            n = len(cf) - 1
            last = ((conv[n][0], conv[n - 1][0], conv[n][1], conv[n - 1][1]),
                    dists[n], dists[n] > dists[n - 1])
            assert distance_state(s.p, s.q) == (want, last)
            for j in range(n):
                # resume after a_0..a_j, from the state of convergent j
                d, up = dists[j + 1], dists[j + 1] > dists[j]
                x = _from_cf(cf[j + 1:])
                added, before, up_before, (a, b, c, e) = distance_tail(x.p, x.q, up)
                assert d + added == want, (j, kind, terms)
                (p1, q1), (p0, q0) = conv[j + 1], conv[j]
                assert ((p1 * a + p0 * c, p1 * b + p0 * e, q1 * a + q0 * c, q1 * b + q0 * e),
                        d + before, up_before) == last, j

    def test_state_of_integers_and_infinity(self):
        assert distance_state(1, 0) == (0, None)
        for p in (-7, 0, 12):
            assert distance_state(p, 1) == (1, None)


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


def recursive_geodesic_from_infinity(s: Slope) -> list:
    """The recursive convergent-fan walk that `_geodesic_from_infinity`
    replaced, kept as its slow twin: it recurses once per partial quotient."""
    if s.is_infinity:
        return [INFINITY]
    if s.q == 1:
        return [INFINITY, s]
    cf = _continued_fraction(s.p, s.q)
    dists = _distance_profile(s.p, s.q)
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
            assert _geodesic_from_infinity(s) == recursive_geodesic_from_infinity(s), s

    @pytest.mark.parametrize("kind", ["ones", "large", "mixed"])
    def test_shaped_expansions(self, kind):
        rng = random.Random(len(kind))
        for n in [2, 3, 4, 5, 17, 64, 255] + [rng.randint(2, 255) for _ in range(8)]:
            s = _from_cf([rng.randint(-9, 9)] + _tail(rng, kind, n - 1))
            assert _geodesic_from_infinity(s) == recursive_geodesic_from_infinity(s), (kind, n)

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
                assert twist_about(alpha, n) == t1.pow(n)

    def test_conjugator_sends_alpha_to_infinity(self):
        for alpha in bounded_vertices(9):
            m = conjugator_to_infinity(alpha)
            assert act(m, alpha) == INFINITY


EMPTY_PROJECTION_ROWS = [
    (INFINITY, INFINITY, "nothing projects to the annulus about 1/0"),
    ({INFINITY}, [], "nothing projects to the annulus about 1/0"),
    (INFINITY, Slope(0, 1), "one side does not project to 1/0"),
    (Slope(3, 2), [INFINITY], "one side does not project to 1/0"),
    ([], {Slope(3, 2), Slope(1, 1)}, "one side does not project to 1/0"),
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
    bs = {beta} if isinstance(beta, Slope) else set(beta)
    gs = {gamma} if isinstance(gamma, Slope) else set(gamma)
    pb = annular_projection_set(alpha, bs)
    pg = annular_projection_set(alpha, gs)
    if not pb and not pg:
        raise EmptyProjectionError(f"nothing projects to the annulus about {alpha}")
    if not pb or not pg:
        raise EmptyProjectionError(f"one side does not project to {alpha}")
    proj = pb | pg
    return max(proj) - min(proj)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyProjectionError as exc:
        return ("EmptyProjectionError", str(exc))


class TestLinkSpanSlowTwin:
    """`link_span` and `annular_distance` against the set-based projections."""

    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_single_slopes(self, qmax):
        rng = random.Random(qmax)
        for _ in range(1500):
            alpha, beta, gamma = (random_slope(rng, qmax) for _ in range(3))
            pts = annular_projection(alpha, beta)
            assert link_span(alpha, beta) == ((min(pts), max(pts)) if pts else None)
            assert _outcome(annular_distance, alpha, beta, gamma) \
                == _outcome(set_annular_distance, alpha, beta, gamma)

    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_slope_sets(self, qmax):
        rng = random.Random(qmax + 1)
        for _ in range(500):
            alpha = random_slope(rng, qmax)
            sides = []
            for _ in range(2):
                side = [random_slope(rng, qmax) for _ in range(rng.randrange(0, 5))]
                if rng.random() < 0.3:
                    side.append(alpha)  # contributes nothing
                sides.append(rng.choice((set, frozenset, list, tuple))(side))
            pts = annular_projection_set(alpha, sides[0])
            assert link_span(alpha, sides[0]) == ((min(pts), max(pts)) if pts else None)
            assert _outcome(annular_distance, alpha, *sides) \
                == _outcome(set_annular_distance, alpha, *sides)

    def test_sets_containing_alpha(self):
        rng = random.Random(8)
        for _ in range(300):
            alpha = random_slope(rng, 1000)
            others = {random_slope(rng, 1000) for _ in range(3)} - {alpha}
            beta = rng.choice(sorted(others, key=str))
            with_alpha = others | {alpha}
            assert link_span(alpha, with_alpha) == link_span(alpha, others)
            assert annular_distance(alpha, with_alpha, beta) \
                == set_annular_distance(alpha, with_alpha, beta) \
                == annular_distance(alpha, others, beta)

    @pytest.mark.parametrize("beta, gamma, message", EMPTY_PROJECTION_ROWS)
    def test_empty_projection_messages(self, beta, gamma, message):
        assert _outcome(set_annular_distance, INFINITY, beta, gamma) \
            == _outcome(annular_distance, INFINITY, beta, gamma) \
            == ("EmptyProjectionError", message)

    def test_empty_cases_at_other_sites(self):
        rng = random.Random(9)
        for _ in range(200):
            alpha, beta = random_slope(rng, 500), random_slope(rng, 500)
            for sides in ((alpha, alpha), ([alpha], []), (alpha, beta), ([], [beta, alpha])):
                assert _outcome(annular_distance, alpha, *sides) \
                    == _outcome(set_annular_distance, alpha, *sides)
            assert link_span(alpha, alpha) is None and link_span(alpha, []) is None

    def test_alpha_at_infinity(self):
        rng = random.Random(10)
        for _ in range(500):
            beta = random_slope(rng, 10 ** 4)
            gamma = {random_slope(rng, 10 ** 4) for _ in range(rng.randrange(1, 4))}
            if beta.is_infinity:
                assert link_span(INFINITY, beta) is None
                continue
            fl = beta.p // beta.q
            assert link_span(INFINITY, beta) == (fl, fl + (1 if beta.p % beta.q else 0))
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


def test_slope_set_distance_diameter_of_union():
    A = {Slope(0, 1), Slope(1, 1)}
    B = {Slope(5, 8)}
    union = list(A | B)
    want = max(farey_distance(u, v) for u in union for v in union)
    assert slope_set_distance(A, B) == want
    assert slope_set_distance(Slope(0, 1), Slope(5, 8)) == farey_distance(Slope(0, 1), Slope(5, 8))
