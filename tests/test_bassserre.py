import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from rgflab.farey import (INFINITY, MappingClass, Slope, act, conjugator_to_infinity,
                          farey_distance, twist_about)
from rgflab.subgroups import MatrixGroup
from rgflab import bassserre, farey
from rgflab.bassserre import (FactorSpec, FreeProductReport, PairCounts, build_ball,
                              cyclically_reduce, free_product_check,
                              loxodromic_scan, phi, pingpong_certificate,
                              qi_certificate, qi_pairs, qi_report,
                              random_alternating_word, syllables_inv,
                              syllables_mul, tree_distance, word_matrix)
from oracles import (ball_bfs_distance, ball_qi_pairs, coset_well_defined, listed_qi_pairs,
                     plain_distance_tail, type1_pairs)


def _word_key(word: tuple) -> tuple:
    """A hashable key of a word of (factor, matrix) syllables, identifying
    each matrix with its negative."""
    return tuple((i, m.projective_key()) for i, m in word)


def two_twist_factors(budget=2):
    return [FactorSpec.twist("A", INFINITY, budget=budget),
            FactorSpec.twist("B", Slope(0, 1), budget=budget)]


def separated_factors(budget=2):
    from rgflab.constructions import slope_at_distance
    a = Slope(0, 1)
    b = slope_at_distance(a, 6)
    c = slope_at_distance(a, 12)
    return [FactorSpec.twist("A", a, budget=budget),
            FactorSpec.twist("B", b, budget=budget),
            FactorSpec.twist("C", c, budget=budget)]


class TestBuildBall:
    def test_radius_zero(self):
        ball = build_ball(two_twist_factors(), radius=0)
        assert len(ball.adjacency) == 1
        assert ball.vertices(2) == [0] and ball.label == [()]

    def test_closed_form_counts(self):
        factors = two_twist_factors(budget=1)   # elements T, T^-1 per factor
        e = len(factors[0].elements)
        assert e == 2
        ball = build_ball(factors, radius=2)
        assert len(ball.vertices(1)) == 2
        assert len(ball.vertices(2)) == 1 + 2 * e

    def test_truncation_marked_for_infinite_factors(self):
        ball = build_ball(two_twist_factors(), radius=2)
        assert set(ball.vertices(1)) <= ball.truncated

    def test_distances_match_bfs_oracle(self):
        ball = build_ball(two_twist_factors(budget=2), radius=4)
        for v, w in itertools.combinations(ball.vertices(), 2):
            assert tree_distance(ball, v, w) == ball_bfs_distance(ball, v, w)

    def test_three_factor_distances(self):
        ball = build_ball(separated_factors(budget=1), radius=3)
        verts = ball.vertices()
        rng = random.Random(0)
        for _ in range(300):
            v, w = rng.choice(verts), rng.choice(verts)
            assert tree_distance(ball, v, w) == ball_bfs_distance(ball, v, w)

    def test_type2_distance_is_twice_syllable_length(self):
        ball = build_ball(two_twist_factors(), radius=4)
        for v in ball.vertices(2):
            assert tree_distance(ball, 0, v) == 2 * len(ball.label[v])

    def test_bipartite_parity(self):
        ball = build_ball(two_twist_factors(), radius=3)
        for v, w in type1_pairs(ball):
            assert tree_distance(ball, v, w) % 2 == 0


class TestSyllableAlgebra:
    def test_mul_cancels(self):
        f = two_twist_factors()
        t = twist_about(INFINITY, 1)
        w = ((0, t), (1, twist_about(Slope(0, 1), 2)))
        assert syllables_mul(w, syllables_inv(w)) == ()

    def test_mul_merges_same_factor(self):
        f = two_twist_factors()
        t = twist_about(INFINITY, 1)
        w1 = ((0, t),)
        w2 = ((0, t),)
        out = syllables_mul(w1, w2)
        assert len(out) == 1 and out[0][1].projective_key() == t.mul(t).projective_key()

    def test_word_matrix(self):
        t1, t2 = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)
        assert word_matrix(((0, t1), (1, t2))).entries() == t1.mul(t2).entries()


class TestPhi:
    def test_identity_coset_maps_to_boundary(self):
        factors = two_twist_factors()
        ball = build_ball(factors, radius=2)
        images = phi(ball, Slope(1, 1))
        # the center's fan: the cosets H_0 and H_1, with the empty prefix
        assert ball.adjacency[0] == [1, 2] and ball.factor[1:3] == [0, 1]
        assert ball.label[1] == ball.label[2] == ()
        assert images[1] == INFINITY
        assert images[2] == Slope(0, 1)

    def test_center_maps_to_base_curve(self):
        ball = build_ball(two_twist_factors(), radius=1)
        images = phi(ball, Slope(1, 1))
        assert images[0] == Slope(1, 1)

    def test_coset_well_definedness(self):
        ball = build_ball(separated_factors(), radius=3)
        for v in ball.vertices(1):
            assert coset_well_defined(ball, v)

    def test_equivariance_on_enumerated_elements(self):
        factors = two_twist_factors()
        ball = build_ball(factors, radius=3)
        images = phi(ball, Slope(1, 1))
        element = {_word_key(ball.label[v]): v for v in ball.vertices(2)}
        # multiplying a type-2 label by a factor element inside the same coset
        # translates the image by that element
        for v in ball.vertices(2):
            w = ball.label[v]
            m = word_matrix(w)
            for i, f in enumerate(factors):
                for h in f.elements[:2]:
                    target = element.get(_word_key(syllables_mul(w, ((i, h),))))
                    if target is not None:
                        assert images[target] == act(m.mul(h), Slope(1, 1))


class TestQiCertificate:
    def test_single_pair_arithmetic(self):
        rep = qi_certificate(two_twist_factors(), radius=1)
        assert rep.pairs == PairCounts({(2, 1): 1})      # d_T = 2, d_S(1/0, 0/1) = 1
        assert len(rep.pairs) == 1
        assert rep.min_ratio == Fraction(1, 2)
        assert rep.benchmark_ok           # 1 >= 1 - 4

    def test_kappa_witness_bound(self):
        rep = qi_certificate(separated_factors(), radius=2, kappa=50)
        assert rep.kappa_given_ok
        assert all(Fraction(ds) >= Fraction(dt, rep.kappa_witness) - rep.kappa_witness
                   for dt, ds in rep.pairs)
        assert rep.kappa_witness <= 50

    def test_kappa_monotone_in_radius(self):
        factors = separated_factors(budget=1)
        k = []
        for radius in (2, 4):
            k.append(qi_certificate(factors, radius).kappa_witness)
        assert k[0] <= k[1]

    def test_integer_forms_match_fraction_forms(self):
        # adjacent twist factors at radius 3: kappa = 1 fails on this family
        factors = two_twist_factors()
        rep = qi_certificate(factors, radius=3)

        def fraction_form(k):
            return all(Fraction(ds) >= Fraction(dt, k) - k for dt, ds in rep.pairs)

        k = rep.kappa_witness
        assert k > 1 and fraction_form(k)
        assert not any(fraction_form(j) for j in range(1, k))
        assert rep.benchmark_ok == all(Fraction(ds) >= Fraction(dt, 2) - 4
                                       for dt, ds in rep.pairs)
        for kappa in range(1, 8):
            assert qi_certificate(factors, 3, kappa=kappa).kappa_given_ok == fraction_form(kappa)

    @pytest.mark.parametrize("pairs, kappa_witness, benchmark_ok", [
        ([(2, 1)], 1, True),              # 1 * (1 + 1) == 2
        ([(2, 1), (6, 1)], 2, True),      # 2 * (1 + 2) == 6
        ([(8, 0), (10, 1)], 3, True),     # 2 * 0 == 8 - 8 and 2 * 1 == 10 - 8
        ([(9, 0)], 3, False),             # 3 * (0 + 3) == 9 but 2 * 0 < 9 - 8
    ])
    def test_bounds_hold_with_equality(self, pairs, kappa_witness, benchmark_ok):
        rep = qi_report(PairCounts(pairs), kappa=kappa_witness)
        assert rep.pairs == PairCounts(pairs)
        assert (rep.kappa_witness, rep.kappa_given_ok, rep.benchmark_ok) == (
            kappa_witness, True, benchmark_ok)

    def test_kappa_below_one_rejected(self):
        for kappa in (0, -2):
            with pytest.raises(ValueError):
                qi_certificate(two_twist_factors(), 1, kappa=kappa)

    def test_min_ratio_matches_fraction_form(self):
        rng = random.Random(5)
        tables = [[], [(0, 3)], [(2, 1), (4, 2), (6, 3)]]
        tables += [[(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 40))]
                   for _ in range(200)]
        for pairs in tables:
            want = min((Fraction(ds, dt) for dt, ds in pairs if dt > 0), default=None)
            assert qi_report(PairCounts(pairs)).min_ratio == want


def theorem_b_family():
    """The family of `experiment theorem-b --seed 11`: D' = 49, M_emp = 3."""
    from rgflab.constructions import twist_orbit_family
    return twist_orbit_family(49, window=3, seed=11, M_emp=3)


def two_slope_factors(budget=2):
    """A finite factor swapping 1/0 and 0/1, with no reducing curve (boundary
    None), beside twists about 2/1 and -1/3; `phi` cannot map its ball."""
    swap = MatrixGroup.of(MappingClass(0, -1, 1, 0))
    return [FactorSpec("S", swap, budget),
            FactorSpec.twist("T", Slope(2, 1), budget=budget),
            FactorSpec.twist("U", Slope(-1, 3), budget=budget)]


def slow_pair(ball, images, v, w):
    return tree_distance(ball, v, w), farey_distance(images[v], images[w])


def tree_family(name):
    """The factors of a named test family."""
    if name == "two-twist":
        return two_twist_factors()
    if name == "three-factor":
        return separated_factors()
    if name == "theorem-b":
        return theorem_b_family().family
    if name == "prop91":
        # the family of `experiment prop91 --seed 7`
        from rgflab.constructions import twist_orbit_family
        return twist_orbit_family(20, window=5, seed=7).family
    if name == "three-twist":
        # the family of the pinned `tree` reports in tests/test_cli.py
        return [FactorSpec(n, MatrixGroup.of(MappingClass(*g)), 2) for n, g in (
            ("A", (1, 0, -1, 1)), ("B", (2031, 4900, -841, -2029)),
            ("C", (79570261, 192099600, -32959081, -79570259)))]
    return two_slope_factors()


# base curves of the orbit map: they move the type-2 images only, which no
# pair reads
BASE_CURVES = (Slope(1, 1), Slope(5, 7), Slope(-3, 2))


class TestTreeShape:
    """`build_ball` numbers a tree: it adds no edge between vertices it has
    already seen and gives no two vertices one label, which is why it needs
    no dedup by label."""

    @pytest.mark.parametrize("family, radius", itertools.product(
        ["two-twist", "three-factor", "two-slope", "theorem-b"], range(6)))
    def test_ball_is_a_tree_in_breadth_first_order(self, family, radius):
        ball = build_ball(tree_family(family), radius)
        n = len(ball.kind)
        assert sum(map(len, ball.adjacency)) == 2 * (n - 1)
        assert all(ball.distance[v] == ball.distance[ball.adjacency[v][0]] + 1
                   for v in range(1, n))
        assert ball.distance == sorted(ball.distance)
        keys = {(k, i, _word_key(g)) for k, i, g in zip(ball.kind, ball.factor, ball.label)}
        assert len(keys) == n


class TestQiPairsSlowTwin:
    """The counting scan against the list scan it replaced, and against
    `tree_distance` and `farey_distance` between the images of `phi`,
    whatever its base curve."""

    # two-twist at radius 5 resumes past a step that did not rise, before a
    # quotient of 1, where the state's `up` flag decides the distance; it
    # also meets 42 fallback entries (x <= 1), whose values are never cached
    @pytest.mark.parametrize("family, radius", [
        *itertools.product(["two-twist", "three-factor", "theorem-b", "prop91"], [1, 2, 3, 4]),
        ("two-twist", 5)])
    def test_every_pair(self, family, radius):
        factors = tree_family(family)
        ball = build_ball(factors, radius)
        got = qi_pairs(factors, radius)
        for base in BASE_CURVES:
            images = phi(ball, base)
            assert got == Counter(slow_pair(ball, images, v, w) for v, w in type1_pairs(ball)), base

    # from radius 3 two-twist, three-factor and three-twist meet fallback
    # entries, whose groups are walked per source; theorem-b and prop91
    # have none, so every group is memoised
    @pytest.mark.parametrize("family, radius", itertools.product(
        ["two-twist", "three-factor", "theorem-b", "prop91", "three-twist"], range(7)))
    def test_counts_match_the_list_scan(self, family, radius):
        factors = tree_family(family)
        ball = build_ball(factors, radius)
        got = qi_pairs(factors, radius)
        assert isinstance(got, PairCounts)
        assert got == Counter(listed_qi_pairs(ball))
        n = len(ball.vertices(1))
        assert len(got) == sum(got.values()) == n * (n - 1) // 2

    # at an even radius the last level holds type-2 leaves only, on no path
    # between cosets
    @pytest.mark.parametrize("family, radius", [*itertools.product(
        ["two-twist", "three-factor", "theorem-b", "prop91", "three-twist"], [2, 4, 6]),
        ("prop91", 8)])
    def test_even_radius_adds_no_pair(self, family, radius):
        factors = tree_family(family)
        assert qi_pairs(factors, radius) == qi_pairs(factors, radius - 1)

    # fallback groups at depth are walked per source along the source-relative
    # path, which the ball walk replaced by the absolute label
    @pytest.mark.parametrize("family, radius", [*itertools.product(
        ["two-twist", "three-factor", "theorem-b", "three-twist"], range(7)),
        *(("prop91", r) for r in range(9))])
    def test_counts_match_the_ball_walk(self, family, radius):
        factors = tree_family(family)
        assert qi_pairs(factors, radius) == ball_qi_pairs(build_ball(factors, radius))

    def test_sample_at_radius_six(self):
        factors = tree_family("theorem-b")
        ball = build_ball(factors, 6)
        images = phi(ball, BASE_CURVES[0])
        got = qi_pairs(factors, 6)
        todo = list(type1_pairs(ball))
        assert len(got) == len(todo) == 23871
        sample = Counter(slow_pair(ball, images, *todo[k])
                         for k in random.Random(6).sample(range(len(todo)), 2000))
        assert all(got[pair] >= n for pair, n in sample.items()), sample - got
        assert len(sample) > 1


def _entries(table, states, fallback=False):
    """The number of cached entries, or with `fallback` of fallback entries,
    in the rows of `states`."""
    return sum((t is table.FALLBACK) == fallback for st in states for t in table.trans[st].values())


def _recorded_scan(monkeypatch, family, radius):
    """Run `qi_pairs` on a family, counting `farey.distance_tail` calls and
    `ResumeTable.advance` calls from an empty prefix (full kernels); returns
    the ball, the pairs, the counts and the scan's table."""
    tables = []
    calls = {"distance_tail": 0, "full_kernel": 0}

    class Recorded(bassserre.ResumeTable):
        def __init__(self, boundary):
            super().__init__(boundary)
            tables.append(self)

        def advance(self, m, b, up):
            calls["full_kernel"] += up is None
            return super().advance(m, b, up)

    tail = farey.distance_tail

    def counted_tail(*args):
        calls["distance_tail"] += 1
        return tail(*args)

    monkeypatch.setattr(bassserre, "ResumeTable", Recorded)
    monkeypatch.setattr(farey, "distance_tail", counted_tail)
    factors = tree_family(family)
    pairs = qi_pairs(factors, radius)
    (table,) = tables
    return build_ball(factors, radius), pairs, calls, table


def _states(table):
    """(roots, other empty-prefix states, states after a prefix) of a table."""
    roots = sorted(set(table.root))
    empty = [st for st in range(len(table.matrix))
             if table.up[st] is None and st not in roots]
    prefixed = [st for st in range(len(table.matrix)) if table.up[st] is not None]
    return roots, empty, prefixed


def _up_to_shear(m, n):
    """Whether n = +-P m for a shear P = [[1, k], [0, 1]], which fixes 1/0:
    that is, n adj(m) has c = 0 and a = d = +-1."""
    a, b, c, d = bassserre._mat_mul(n, (m[3], -m[1], -m[2], m[0]))
    return c == 0 and a == d and a in (1, -1)


class TestResumeTable:
    """The transducer behind `qi_pairs`: the first-ring lemma and its work."""

    @pytest.mark.parametrize("family, radius", itertools.product(
        ["two-twist", "three-factor", "theorem-b"], [1, 2, 3, 4]))
    def test_first_ring_lemma(self, family, radius):
        """The entry of a source's root, keyed by the step S = W_src^-1 W_v
        alone, equals `advance` from the empty prefix of the source's own
        conjugator, C(s_src) W_v: the same distance, d and up, and a state
        matrix equal up to sign, or up to a shear fixing 1/0 when the prefix
        stays empty."""
        factors = tree_family(family)
        ball = build_ball(factors, radius)
        images = phi(ball, BASE_CURVES[0])
        table = bassserre.ResumeTable([f.boundary for f in factors])
        checked = empty = 0
        for src in ball.vertices(1):
            w_src = word_matrix(ball.label[src])
            for fan in ball.adjacency[src]:
                for v in ball.adjacency[fan]:
                    if v == src or ball.kind[v] != 1:
                        continue
                    w_v = word_matrix(ball.label[v])
                    step = table.step(w_src.inv().mul(w_v), ball.factor[v])
                    got = table.entry(table.root[ball.factor[src]], step)
                    s_src, s_v = images[src], images[v]
                    b_v = table.boundary[ball.factor[v]]
                    assert act(w_v, b_v) == s_v
                    want = table.advance(bassserre._mat_mul(conjugator_to_infinity(s_src), w_v),
                                         b_v, None)
                    assert got[:2] == want[:2]
                    assert want[0] == farey_distance(s_src, s_v)
                    up = table.up[got[2]]
                    assert up == table.up[want[2]]
                    m, n = table.matrix[got[2]], table.matrix[want[2]]
                    if up is None:
                        assert _up_to_shear(m, n)
                        empty += 1
                    else:
                        assert n in (m, tuple(-x for x in m))
                    checked += 1
        assert checked
        if family == "two-twist":
            assert empty                 # 1/0 and 0/1 are Farey neighbours

    def test_empty_prefix_at_infinity_and_integers(self):
        """From an empty prefix the image 1/0 adds nothing and an integer
        one, and both keep the prefix empty: the next state is (m, None),
        for either sign of m and after any shear P: x -> x + n, which
        interns as m does.  After a prefix, P m is another state."""
        table = bassserre.ResumeTable([INFINITY])
        assert table.root == [table.state((1, 0, 0, 1), None)]
        rng = random.Random(18)
        for _ in range(50):
            s = Slope.of(rng.randint(-999, 999), rng.randint(1, 999))
            m = conjugator_to_infinity(s)
            t = act(m.inv(), Slope(rng.randint(-9, 9), 1))     # a Farey neighbour of s
            state = table.state(tuple(m), None)
            n = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            for mm in (tuple(m), tuple(-x for x in m), bassserre._mat_mul((1, n, 0, 1), m)):
                assert table.state(mm, None) == state
                assert table.advance(mm, s, None) == (0, 0, state)
                assert table.advance(mm, t, None) == (1, 0, state)
            sheared = bassserre._mat_mul((1, n, 0, 1), m)
            assert table.state(sheared, True) != table.state(tuple(m), True)
        # 50 empty-prefix states, one per slope, and 100 after a prefix
        assert len(set(table.state_ids.values()) - set(table.root)) == 50 + 100

    def test_work_is_pinned_on_theorem_b(self, monkeypatch):
        """Deterministic counters, like the pinned digests: at radius 6 the
        scan runs 54 full kernels, the entries of its 3 roots, and no other,
        and 270 `distance_tail` calls (54 first-ring tails and 216
        transitions into 15 states) for 23,871 pairs."""
        _, pairs, calls, table = _recorded_scan(monkeypatch, "theorem-b", 6)
        roots, empty, states = _states(table)
        assert len(pairs) == 23871
        assert (_entries(table, roots), len(roots), empty) == (54, 3, [])
        assert calls == {"full_kernel": 54, "distance_tail": 270}
        assert (_entries(table, states), len(states)) == (216, 15)
        assert _entries(table, states, fallback=True) == 0

    def test_work_is_pinned_on_prop91(self, monkeypatch):
        """At radius 4: 180 root entries, 400 entries into 25 states and 580
        `distance_tail` calls, with no fallback.  The ordered walk steps into
        every type-1 vertex from every other, so it also takes the reverse
        steps into leaves that a walk over unordered pairs skips; from
        radius 6 on prop91 both take 900."""
        _, pairs, calls, table = _recorded_scan(monkeypatch, "prop91", 4)
        roots, empty, states = _states(table)
        assert len(pairs) == 3570
        assert (_entries(table, roots), empty) == (180, [])
        assert calls == {"full_kernel": 180, "distance_tail": 580}
        assert (_entries(table, states), len(states)) == (400, 25)
        assert _entries(table, states, fallback=True) == 0

    def test_fallbacks_are_uncached(self, monkeypatch):
        """two-twist at radius 5 has 42 fallback entries; each visit through
        one runs a full kernel, and every pair still matches the slow twin.
        Its images at 1/0 and at integers keep the prefix empty: the 120
        entries of the roots and of 14 more empty-prefix states, interned up
        to a shear, are cached like any other, and with the 190 fallback
        visits the scan runs 310 full kernels and 300 `distance_tail`
        calls."""
        ball, pairs, calls, table = _recorded_scan(monkeypatch, "two-twist", 5)
        images = phi(ball, BASE_CURVES[0])
        roots, empty, states = _states(table)
        assert _entries(table, states, fallback=True) == 42
        assert (_entries(table, roots + empty), len(roots), len(empty)) == (120, 2, 14)
        assert calls == {"full_kernel": 310, "distance_tail": 300}
        assert pairs == Counter(slow_pair(ball, images, v, w) for v, w in type1_pairs(ball))


    @pytest.mark.parametrize("family, radius, steps", [
        ("theorem-b", 6, 364), ("prop91", 4, 417), ("two-twist", 5, 53),
        ("three-factor", 4, 100)])
    def test_euclid_steps_are_pinned(self, monkeypatch, family, radius, steps):
        """The scan's `distance_tail` memo holds one entry per Euclid step, so
        its size is the Euclid work of the whole scan: theorem-b at radius 6
        ran 26,970 steps without it, and the [0; 2, ..., 2] tails its calls
        share collapse to 364.  two-twist at radius 5 takes 53, where the ball
        walk took 50: a fallback tail now runs from the source-relative path,
        whose complete quotients differ from the absolute label's by a shear,
        so some memo keys shift.  Every entry equals the memo-free twin."""
        _, _, _, table = _recorded_scan(monkeypatch, family, radius)
        assert len(table.tails) == steps
        assert all(plain_distance_tail(*key) == t for key, t in table.tails.items())


class TestFreeProductCheck:
    def test_sanov_pair_free(self):
        fa = FactorSpec("A", MatrixGroup.of(MappingClass(1, 2, 0, 1)), budget=5)
        fb = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 2, 1)), budget=5)
        rep = free_product_check([fa, fb], budget=10)
        assert rep.no_relation and rep.witness is None

    def test_full_twists_have_relation(self):
        fa = FactorSpec("A", MatrixGroup.of(MappingClass(1, 1, 0, 1)), budget=6)
        fb = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 1, 1)), budget=6)
        rep = free_product_check([fa, fb], budget=12)
        assert not rep.no_relation
        assert word_matrix(rep.witness).is_identity()
        letters = sum(abs(_twist_exponent(m)) for _, m in rep.witness)
        assert letters <= 12
        # witness alternates between the factors
        for (i, _), (j, _) in zip(rep.witness, rep.witness[1:]):
            assert i != j

    def test_single_factor_vacuous(self):
        fa = FactorSpec.twist("A", INFINITY)
        assert free_product_check([fa], budget=6) == FreeProductReport(True, None, 0)

    def test_symmetry_under_reordering_and_inversion(self):
        factors = separated_factors(budget=1)
        a = free_product_check(factors, budget=6).no_relation
        b = free_product_check(list(reversed(factors)), budget=6).no_relation
        inverted = [FactorSpec(f.name, MatrixGroup.of(*[g.inv() for g in f.group.generators]),
                               f.budget) for f in factors]
        c = free_product_check(inverted, budget=6).no_relation
        assert a == b == c


def eager_free_product_check(factors: list, budget: int = 8) -> FreeProductReport:
    """Slow twin of `free_product_check`: builds every half-length layer and
    index before it searches, as the search did before it went lazy."""
    if len(factors) < 2:
        return FreeProductReport(True, None, 0)
    elements = [f.elements for f in factors]
    half = (budget + 1) // 2
    by_len = [[((), MappingClass.identity())]]
    for k in range(1, half + 1):
        layer = []
        for word, m in by_len[k - 1]:
            last = word[-1][0] if word else -1
            for i in range(len(factors)):
                if i == last:
                    continue
                for h in elements[i]:
                    layer.append((word + ((i, h),), m.mul(h)))
        by_len.append(layer)
    index = []
    for k in range(half + 1):
        d = {}
        for word, m in by_len[k]:
            d.setdefault(m.projective_key(), []).append(word)
        index.append(d)
    checked = 0
    for total in range(2, budget + 1):
        a = (total + 1) // 2
        b = total - a
        for word, m in by_len[a]:
            checked += 1
            for cand in index[b].get(m.inv().projective_key(), ()):
                if not cand and m.is_identity():
                    return FreeProductReport(False, word, checked)
                if cand and cand[0][0] != word[-1][0]:
                    return FreeProductReport(False, word + cand, checked)
    return FreeProductReport(True, None, checked)


def _twist_pair(e: int, budget: int) -> list:
    return [FactorSpec("A", MatrixGroup.of(MappingClass(1, e, 0, 1)), budget),
            FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, e, 1)), budget)]


def _order_three_triple() -> list:
    # T, U and (TU)^-1 multiply to the identity: a witness of 3 syllables,
    # found at the odd total 3 after no pair of factors meets at total 2
    t, u = MappingClass(1, 1, 0, 1), MappingClass(1, 0, -1, 1)
    return [FactorSpec("T", MatrixGroup.of(t), 1), FactorSpec("U", MatrixGroup.of(u), 1),
            FactorSpec("V", MatrixGroup.of(t.mul(u).inv()), 1)]


SLOW_TWIN_CASES = (
    [("full-twist", _twist_pair(1, 6), b) for b in range(10)]
    + [("shear-e2", _twist_pair(2, 5), b) for b in range(9)]
    + [("separated-1", separated_factors(budget=1), b) for b in range(2, 7)]
    + [("separated-2", separated_factors(budget=2), 6),
       ("order-three", _order_three_triple(), 5)])


class TestLazyRelationSearch:
    @pytest.mark.parametrize("factors, budget", [c[1:] for c in SLOW_TWIN_CASES],
                             ids=[f"{c[0]}-{c[2]}" for c in SLOW_TWIN_CASES])
    def test_matches_eager_search(self, factors, budget):
        lazy = free_product_check(factors, budget)
        eager = eager_free_product_check(factors, budget)
        assert lazy.no_relation == eager.no_relation
        assert lazy.words_checked == eager.words_checked
        if eager.witness is None:
            assert lazy.witness is None
        else:
            assert _word_key(lazy.witness) == _word_key(eager.witness)

    def test_order_three_triple_has_a_periodic_factor(self):
        # (TU)^-1 has trace 1, so V has no reducing curve: the relation
        # search reads no boundary
        assert [f.boundary for f in _order_three_triple()] == [INFINITY, Slope(0, 1), None]

    def test_witness_at_odd_total(self):
        rep = free_product_check(_order_three_triple(), 5)
        assert not rep.no_relation and len(rep.witness) == 3
        assert sorted(i for i, _ in rep.witness) == [0, 1, 2]
        assert word_matrix(rep.witness).is_identity()

    def test_full_twist_witness_needs_no_long_layers(self):
        # the witness turns up at total 4 after 367 checks, the same count
        # at every budget from 4 up
        reps = [free_product_check(_twist_pair(1, 6), b) for b in (4, 9, 40)]
        assert {r.words_checked for r in reps} == {367}
        assert len({_word_key(r.witness) for r in reps}) == 1


class TestFactorSpec:
    def test_elements_enumerated_once(self, monkeypatch):
        calls = []
        real = bassserre.enumerate_ball
        monkeypatch.setattr(bassserre, "enumerate_ball",
                            lambda *a: calls.append(a) or real(*a))
        f = FactorSpec.twist("A", Slope(1, 2), power=2, budget=3)
        first = f.elements
        build_ball([f, f], 2)
        assert f.elements is first and len(calls) == 1

    def test_elements_match_the_uncached_list(self):
        # the list `elements` built on every call before it was cached
        for f in two_twist_factors(3) + [FactorSpec("P", MatrixGroup.of(
                MappingClass(2, 1, 1, 1), MappingClass(-1, 0, 0, -1)), 2)]:
            out, seen = [], set()
            for m in bassserre.enumerate_ball(f.group, f.budget).values():
                if m.is_identity():
                    continue
                key = m.projective_key()
                if key not in seen:
                    seen.add(key)
                    out.append(m)
            out.sort(key=lambda m: m.projective_key())
            assert f.elements == tuple(out)

    def test_elements_cannot_be_mutated(self):
        f = FactorSpec.twist("A", INFINITY, budget=2)
        with pytest.raises(AttributeError):
            f.elements.append(MappingClass.identity())

    def test_caches_leave_equality_hash_and_repr(self):
        f = FactorSpec.twist("A", INFINITY, power=2, budget=1)
        fresh = FactorSpec.twist("A", INFINITY, power=2, budget=1)
        before = repr(f)
        assert len(f.elements) == 2 and f.parabolic == (INFINITY, 2) and f.boundary == INFINITY
        assert repr(f) == before == repr(fresh) == (
            "FactorSpec(name='A', group=MatrixGroup(generators=(MappingClass(a=1, b=2, "
            "c=0, d=1),)), budget=1)")
        assert f == fresh and hash(f) == hash(fresh)
        assert [x.name for x in dataclasses.fields(f)] == ["name", "group", "budget"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.budget = 2

    @pytest.mark.parametrize("gens, expected", [
        ([twist_about(Slope(2, 5), 3)], (Slope(2, 5), 3)),
        ([twist_about(Slope(-1, 3), -2)], (Slope(-1, 3), 2)),
        ([twist_about(Slope(1, 2), 4), twist_about(Slope(1, 2), 6)], (Slope(1, 2), 2)),
        ([MappingClass(-1, 0, 0, -1), twist_about(INFINITY, 5)], (INFINITY, 5)),
        ([MappingClass(-1, -3, 0, -1)], (INFINITY, 3)),          # trace -2
        ([twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)], None),
        ([MappingClass(2, 1, 1, 1)], None),                      # pseudo-Anosov
        ([MappingClass(0, -1, 1, 0)], None),                     # periodic
        ([MappingClass(-1, 0, 0, -1)], None),                    # central only
    ])
    def test_parabolic(self, gens, expected):
        assert FactorSpec("F", MatrixGroup.of(*gens)).parabolic == expected


def _example92_factors(D):
    from rgflab.constructions import conjugate_twist_family
    return conjugate_twist_family(D, seed=7).family


def _prop91_factors(seed):
    from rgflab.constructions import twist_orbit_family
    return twist_orbit_family(20, window=5, seed=seed).family


PINGPONG_ROWS = (
    # (id, factors, certified); Ishida: twists about 0/1 and p/1, which
    # meet |p| times, generate a free group iff |p| >= 2
    [(f"ishida-{p}", lambda p=p: [FactorSpec.twist("A", Slope(0, 1)),
                                  FactorSpec.twist("B", Slope(p, 1))], abs(p) >= 2)
     for p in (1, -1, 2, -2, 3, 5, -5, 7)]
    # Sanov, Lyndon-Ullman: the e-th powers of the twists about 1/0 and 0/1
    + [(f"twist-power-{e}", lambda e=e: _twist_pair(e, 2), e >= 2) for e in (1, 2, 3)]
    + [(f"prop91-seed-{s}", lambda s=s: _prop91_factors(s), True) for s in range(4)]
    # a relation exists in both
    + [(f"example92-D{d}", lambda d=d: _example92_factors(d), False) for d in (8, 10)]
)


class TestPingPongCertificate:
    @pytest.mark.parametrize("make, certified", [r[1:] for r in PINGPONG_ROWS],
                             ids=[r[0] for r in PINGPONG_ROWS])
    def test_table(self, make, certified):
        rep = pingpong_certificate(make())
        assert rep.certified == certified
        assert (rep.failing_pair is None) == certified

    def test_shear_pair_windows(self):
        rep = pingpong_certificate(_twist_pair(2, 5))
        assert rep == bassserre.PingPongReport(True, [(-1, 1), (-1, 1)], None)
        rep = pingpong_certificate(_twist_pair(1, 5))
        assert rep.windows == [(Fraction(-1, 2), Fraction(1, 2))] * 2
        assert rep.failing_pair == (0, 1)

    def test_windows_are_centred_exactly(self):
        # in 1/0's coordinate the other fixed slopes sit at 0 and 1/3, so the
        # window of length 2 is centred on 1/6
        factors = [FactorSpec.twist("A", INFINITY, 2), FactorSpec.twist("B", Slope(0, 1), 2),
                   FactorSpec.twist("C", Slope(1, 3), 2)]
        assert pingpong_certificate(factors).windows[0] == (Fraction(-5, 6), Fraction(7, 6))

    def test_window_endpoint_sent_to_infinity(self):
        # the other fixed slopes sit at 0 and -1 in 0/1's coordinate, so the
        # window [-1, 0] ends on them, and C_0 C_1^-1 sends its end 0 to 1/0
        factors = [FactorSpec.twist(name, s) for name, s in
                   (("A", INFINITY), ("B", Slope(0, 1)), ("C", Slope(1, 1)))]
        rep = pingpong_certificate(factors)
        assert rep.windows[1] == (-1, 0)
        assert (rep.certified, rep.failing_pair) == (False, (0, 1))

    @pytest.mark.parametrize("factors, pair, reason", [
        ([FactorSpec.twist("A", INFINITY, 2)], None, "fewer than two factors"),
        ([], None, "fewer than two factors"),
        ([FactorSpec.twist("A", INFINITY, 2),
          FactorSpec("P", MatrixGroup.of(MappingClass(2, 1, 1, 1)))],
         None, "factor 1 is not parabolic"),
        ([FactorSpec.twist("A", Slope(0, 1), 2), FactorSpec.twist("B", INFINITY, 2),
          FactorSpec.twist("C", Slope(0, 1), 3)],
         (0, 2), "factors 0 and 2 share the fixed slope 0/1"),
    ])
    def test_refusals(self, factors, pair, reason):
        rep = pingpong_certificate(factors)
        assert (rep.certified, rep.windows, rep.failing_pair, rep.reason) == (
            False, [], pair, reason)

    @pytest.mark.parametrize("budget, words", [(0, 0), (1, 0), (2, 20), (5, 2_420),
                                               (8, 44_420), (10, 444_420)])
    def test_certified_family_skips_the_search(self, budget, words, monkeypatch):
        # the e=2 shear pair: the counts the search reports at these budgets
        def refuse(factors, budget):
            raise AssertionError("the search ran on a certified family")
        monkeypatch.setattr(bassserre, "_relation_search", refuse)
        assert free_product_check(_twist_pair(2, 5), budget) == FreeProductReport(
            True, None, words)

    def test_fast_path_matches_slow_twins(self):
        # every distinct certified family of the table, at budgets 0-8
        families = {tuple(r[1]()) for r in PINGPONG_ROWS if r[2]}
        for factors in families:
            factors = list(factors)
            for budget in range(9):
                fast = free_product_check(factors, budget)
                assert fast == bassserre._relation_search(factors, budget)
                assert fast == eager_free_product_check(factors, budget)
                assert fast.no_relation and fast.witness is None

    def test_never_contradicts_the_search(self):
        # seeded families of 2-3 twists: a certified one has no relation the
        # search can find; the search still refutes some uncertified ones
        from rgflab.projections import random_slope
        rng = random.Random(2026)
        certified = refuted = 0
        for _ in range(200):
            factors = [FactorSpec.twist(f"F{i}", random_slope(rng, 4), rng.randint(1, 3))
                       for i in range(rng.randint(2, 3))]
            rep = bassserre._relation_search(factors, 5 if len(factors) == 2 else 4)
            if pingpong_certificate(factors).certified:
                certified += 1
                assert rep.no_relation, factors
            refuted += not rep.no_relation
        assert certified >= 50 and refuted >= 50


def _twist_exponent(m: MappingClass) -> int:
    # a power of a twist conjugate has |entries| growing linearly in the
    # exponent along the off-diagonal of the conjugated shear
    a, b, c, d = m.projective_key()
    tr = a + d
    # shear exponent recovered from the matrix in the twist's eigenbasis:
    # for [[1, n], [0, 1]] conjugates the off-diagonal carries n up to sign
    vals = [abs(x) for x in (b, c) if x]
    return max(vals) if vals else 0


class TestCyclicReduction:
    def test_conjugate_into_factor(self):
        t1, t2 = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 2)
        w = ((0, t1), (1, t2), (0, t1.inv()))
        red = cyclically_reduce(w)
        assert len(red) == 1

    def test_reduced_stays(self):
        t1, t2 = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 2)
        w = ((0, t1), (1, t2))
        assert cyclically_reduce(w) == w


class TestLoxodromic:
    def test_separated_twists_give_pseudo_anosov(self):
        from rgflab.constructions import slope_at_distance
        a = Slope(0, 1)
        b = slope_at_distance(a, 4)
        w = ((0, twist_about(a, 1)), (1, twist_about(b, 1)))
        rep = loxodromic_scan([w])
        assert rep.all_loxodromic and rep.checked == 1

    def test_periodic_word_fails(self):
        # twists about the adjacent slopes 1/0 and 0/1: their product has
        # trace 1, a periodic class, beside a pseudo-Anosov word of trace 3
        t1, t2 = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)
        assert word_matrix(((0, t1), (1, t2))).trace == 1
        rep = loxodromic_scan([((0, t1), (1, t2.inv())), ((0, t1), (1, t2))])
        assert not rep.all_loxodromic and rep.checked == 2

    def test_shear_pair_has_an_accidental_parabolic(self):
        # the shear pair generates Gamma(2), which is free, yet A B^-1 has
        # trace -2: a parabolic, so the pair is not RGF
        A, B = MappingClass(1, 2, 0, 1), MappingClass(1, 0, 2, 1)
        assert word_matrix(((0, A), (1, B.inv()))).trace == -2
        rep = loxodromic_scan([((0, A), (1, B.inv()))])
        assert not rep.all_loxodromic and rep.checked == 1

    def test_conjugates_skipped(self):
        t1, t2 = twist_about(INFINITY, 2), twist_about(Slope(0, 1), 3)
        w = ((0, t1), (1, t2), (0, t1.inv()))
        rep = loxodromic_scan([w])
        assert rep.skipped == 1 and rep.checked == 0

    def test_random_words_over_separated_family(self):
        factors = separated_factors()
        rng = random.Random(1)
        words = [random_alternating_word(factors, rng) for _ in range(60)]
        rep = loxodromic_scan(words)
        assert rep.all_loxodromic
