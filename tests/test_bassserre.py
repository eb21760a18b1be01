import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from rgflab.farey import (INFINITY, MappingClass, Slope, act, farey_distance,
                          slope_set_distance, twist_about)
from rgflab.subgroups import MatrixGroup
from rgflab import bassserre
from rgflab.bassserre import (FactorSpec, FreeProductReport, ball_bfs_distance,
                              build_ball, coset_well_defined, cyclically_reduce,
                              free_product_check, loxodromic_scan, phi,
                              pingpong_certificate, qi_certificate, qi_pairs,
                              qi_report,
                              random_alternating_word, syllables_inv,
                              syllables_mul, tree_distance, type1_vertex,
                              type2_vertex, word_matrix)


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
        assert ball.vertices(2) == [type2_vertex(())]

    def test_closed_form_counts(self):
        factors = two_twist_factors(budget=1)   # elements T, T^-1 per factor
        e = len(factors[0].elements())
        assert e == 2
        ball = build_ball(factors, radius=2)
        assert len(ball.vertices(1)) == 2
        assert len(ball.vertices(2)) == 1 + 2 * e

    def test_truncation_marked_for_infinite_factors(self):
        ball = build_ball(two_twist_factors(), radius=2)
        assert set(ball.vertices(1)) <= ball.truncated

    def test_distances_match_bfs_oracle(self):
        ball = build_ball(two_twist_factors(budget=2), radius=4)
        verts = list(ball.adjacency)
        for v, w in itertools.combinations(verts, 2):
            assert tree_distance(ball, v, w) == ball_bfs_distance(ball, v, w)

    def test_three_factor_distances(self):
        ball = build_ball(separated_factors(budget=1), radius=3)
        verts = list(ball.adjacency)
        rng = random.Random(0)
        for _ in range(300):
            v, w = rng.choice(verts), rng.choice(verts)
            assert tree_distance(ball, v, w) == ball_bfs_distance(ball, v, w)

    def test_type2_distance_is_twice_syllable_length(self):
        ball = build_ball(two_twist_factors(), radius=4)
        center = type2_vertex(())
        for v in ball.vertices(2):
            assert tree_distance(ball, center, v) == 2 * len(ball.words[v])

    def test_bipartite_parity(self):
        ball = build_ball(two_twist_factors(), radius=3)
        for v, w in ball.type1_pairs():
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
        assert len(out) == 1 and out[0][1].projective_key() == t.pow(2).projective_key()

    def test_word_matrix(self):
        t1, t2 = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)
        assert word_matrix(((0, t1), (1, t2))).entries() == t1.mul(t2).entries()


class TestPhi:
    def test_identity_coset_maps_to_boundary(self):
        factors = two_twist_factors()
        ball = build_ball(factors, radius=2)
        images = phi(ball, Slope(1, 1))
        assert images[type1_vertex((), 0)] == frozenset({INFINITY})
        assert images[type1_vertex((), 1)] == frozenset({Slope(0, 1)})

    def test_center_maps_to_base_curve(self):
        ball = build_ball(two_twist_factors(), radius=1)
        images = phi(ball, Slope(1, 1))
        assert images[type2_vertex(())] == frozenset({Slope(1, 1)})

    def test_coset_well_definedness(self):
        ball = build_ball(separated_factors(), radius=3)
        for v in ball.vertices(1):
            assert coset_well_defined(ball, v)

    def test_equivariance_on_enumerated_elements(self):
        factors = two_twist_factors()
        ball = build_ball(factors, radius=3)
        images = phi(ball, Slope(1, 1))
        # multiplying a type-2 label by a factor element inside the same coset
        # translates the image by that element
        for v in ball.vertices(2):
            w = ball.words[v]
            m = word_matrix(w)
            for i, f in enumerate(factors):
                for h in f.elements()[:2]:
                    shifted = syllables_mul(w, ((i, h),))
                    target = type2_vertex(shifted)
                    if target in images:
                        assert images[target] == frozenset({act(m.mul(h), Slope(1, 1))})


class TestQiCertificate:
    def test_single_pair_arithmetic(self):
        factors = two_twist_factors()
        ball = build_ball(factors, radius=1)
        images = phi(ball, Slope(1, 1))
        rep = qi_certificate(ball, images)
        assert rep.pairs == [(2, 1)]      # d_T = 2, d_S(1/0, 0/1) = 1
        assert rep.min_ratio == Fraction(1, 2)
        assert rep.benchmark_ok           # 1 >= 1 - 4

    def test_kappa_witness_bound(self):
        factors = separated_factors()
        ball = build_ball(factors, radius=2)
        images = phi(ball, Slope(1, 2))
        rep = qi_certificate(ball, images, kappa=50)
        assert rep.kappa_given_ok
        assert all(Fraction(ds) >= Fraction(dt, rep.kappa_witness) - rep.kappa_witness
                   for dt, ds in rep.pairs)
        assert rep.kappa_witness <= 50

    def test_kappa_monotone_in_radius(self):
        factors = separated_factors(budget=1)
        k = []
        for radius in (2, 4):
            ball = build_ball(factors, radius)
            rep = qi_certificate(ball, phi(ball, Slope(1, 2)))
            k.append(rep.kappa_witness)
        assert k[0] <= k[1]

    def test_integer_forms_match_fraction_forms(self):
        # adjacent twist factors at radius 3: kappa = 1 fails on this family
        ball = build_ball(two_twist_factors(), radius=3)
        images = phi(ball, Slope(1, 1))
        rep = qi_certificate(ball, images)

        def fraction_form(k):
            return all(Fraction(ds) >= Fraction(dt, k) - k for dt, ds in rep.pairs)

        k = rep.kappa_witness
        assert k > 1 and fraction_form(k)
        assert not any(fraction_form(j) for j in range(1, k))
        assert rep.benchmark_ok == all(Fraction(ds) >= Fraction(dt, 2) - 4
                                       for dt, ds in rep.pairs)
        for kappa in range(1, 8):
            assert qi_certificate(ball, images, kappa=kappa).kappa_given_ok == fraction_form(kappa)

    @pytest.mark.parametrize("pairs, kappa_witness, benchmark_ok", [
        ([(2, 1)], 1, True),              # 1 * (1 + 1) == 2
        ([(2, 1), (6, 1)], 2, True),      # 2 * (1 + 2) == 6
        ([(8, 0), (10, 1)], 3, True),     # 2 * 0 == 8 - 8 and 2 * 1 == 10 - 8
        ([(9, 0)], 3, False),             # 3 * (0 + 3) == 9 but 2 * 0 < 9 - 8
    ])
    def test_bounds_hold_with_equality(self, pairs, kappa_witness, benchmark_ok):
        rep = qi_report(pairs, kappa=kappa_witness)
        assert rep.pairs == pairs
        assert (rep.kappa_witness, rep.kappa_given_ok, rep.benchmark_ok) == (
            kappa_witness, True, benchmark_ok)

    def test_kappa_below_one_rejected(self):
        ball = build_ball(two_twist_factors(), radius=1)
        for kappa in (0, -2):
            with pytest.raises(ValueError):
                qi_certificate(ball, phi(ball, Slope(1, 1)), kappa=kappa)

    def test_min_ratio_matches_fraction_form(self):
        rng = random.Random(5)
        tables = [[], [(0, 3)], [(2, 1), (4, 2), (6, 3)]]
        tables += [[(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 40))]
                   for _ in range(200)]
        for pairs in tables:
            want = min((Fraction(ds, dt) for dt, ds in pairs if dt > 0), default=None)
            assert qi_report(pairs).min_ratio == want


def theorem_b_family():
    """The family of `experiment theorem-b --seed 11`: D' = 49, M_emp = 3."""
    from rgflab.constructions import twist_orbit_family
    return twist_orbit_family(49, window=3, seed=11, M_emp=3)


def two_slope_factors(budget=2):
    """A finite factor swapping 1/0 and 0/1, with that pair as its boundary,
    and twist factors about 2/1 and -1/3 (so the scan both resumes, past
    steps that rose and steps that did not, and falls back)."""
    swap = MatrixGroup.of(MappingClass(0, -1, 1, 0))
    return [FactorSpec("S", swap, frozenset({INFINITY, Slope(0, 1)}), budget),
            FactorSpec.twist("T", Slope(2, 1), budget=budget),
            FactorSpec.twist("U", Slope(-1, 3), budget=budget)]


def slow_pair(ball, images, v, w):
    return tree_distance(ball, v, w), slope_set_distance(images[v], images[w])


class TestQiPairsSlowTwin:
    """The resumed scan against `tree_distance` and `slope_set_distance`."""

    # two-twist at radius 5 resumes past a step that did not rise, before a
    # quotient of 1, where the state's `up` flag decides the distance
    @pytest.mark.parametrize("family, radius", [
        *itertools.product(["two-twist", "theorem-b", "two-slope"], [1, 2, 3, 4]),
        ("two-twist", 5)])
    def test_every_pair(self, family, radius):
        if family == "two-twist":
            factors, base = two_twist_factors(), Slope(1, 1)
        elif family == "theorem-b":
            tw = theorem_b_family()
            factors, base = tw.family.factors, tw.base
        else:
            factors, base = two_slope_factors(), Slope(1, 3)
        ball = build_ball(factors, radius)
        images = phi(ball, base)
        want = [slow_pair(ball, images, v, w) for v, w in ball.type1_pairs()]
        assert qi_pairs(ball, images) == want

    def test_sample_at_radius_six(self):
        tw = theorem_b_family()
        ball = build_ball(tw.family.factors, 6)
        images = phi(ball, tw.base)
        got = qi_pairs(ball, images)
        todo = list(ball.type1_pairs())
        assert len(got) == len(todo) == 23871
        for k in random.Random(6).sample(range(len(todo)), 2000):
            assert got[k] == slow_pair(ball, images, *todo[k]), k


class TestFreeProductCheck:
    def test_sanov_pair_free(self):
        fa = FactorSpec("A", MatrixGroup.of(MappingClass(1, 2, 0, 1)), frozenset({INFINITY}), budget=5)
        fb = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 2, 1)), frozenset({Slope(0, 1)}), budget=5)
        rep = free_product_check([fa, fb], budget=10)
        assert rep.no_relation and rep.witness is None

    def test_full_twists_have_relation(self):
        fa = FactorSpec("A", MatrixGroup.of(MappingClass(1, 1, 0, 1)), frozenset({INFINITY}), budget=6)
        fb = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 1, 1)), frozenset({Slope(0, 1)}), budget=6)
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
        assert free_product_check([fa], budget=6) == FreeProductReport(True, None, 6, 0)

    def test_symmetry_under_reordering_and_inversion(self):
        factors = separated_factors(budget=1)
        a = free_product_check(factors, budget=6).no_relation
        b = free_product_check(list(reversed(factors)), budget=6).no_relation
        inverted = [FactorSpec(f.name, MatrixGroup.of(*[g.inv() for g in f.group.generators]),
                               f.boundary, f.budget) for f in factors]
        c = free_product_check(inverted, budget=6).no_relation
        assert a == b == c


def eager_free_product_check(factors: list, budget: int = 8) -> FreeProductReport:
    """Slow twin of `free_product_check`: builds every half-length layer and
    index before it searches, as the search did before it went lazy."""
    if len(factors) < 2:
        return FreeProductReport(True, None, budget, 0)
    elements = [f.elements() for f in factors]
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
                    return FreeProductReport(False, word, budget, checked)
                if cand and cand[0][0] != word[-1][0]:
                    return FreeProductReport(False, word + cand, budget, checked)
    return FreeProductReport(True, None, budget, checked)


def _twist_pair(e: int, budget: int) -> list:
    return [FactorSpec("A", MatrixGroup.of(MappingClass(1, e, 0, 1)), frozenset({INFINITY}), budget),
            FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, e, 1)), frozenset({Slope(0, 1)}), budget)]


def _order_three_triple() -> list:
    # T, U and (TU)^-1 multiply to the identity: a witness of 3 syllables,
    # found at the odd total 3 after no pair of factors meets at total 2
    t, u = MappingClass(1, 1, 0, 1), MappingClass(1, 0, -1, 1)
    return [FactorSpec("T", MatrixGroup.of(t), frozenset({INFINITY}), 1),
            FactorSpec("U", MatrixGroup.of(u), frozenset({Slope(0, 1)}), 1),
            FactorSpec("V", MatrixGroup.of(t.mul(u).inv()), frozenset({Slope(1, 1)}), 1)]


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
        assert lazy.budget == eager.budget
        assert lazy.words_checked == eager.words_checked
        if eager.witness is None:
            assert lazy.witness is None
        else:
            assert bassserre._word_key(lazy.witness) == bassserre._word_key(eager.witness)

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
        assert len({bassserre._word_key(r.witness) for r in reps}) == 1


class TestFactorSpec:
    def test_elements_enumerated_once(self, monkeypatch):
        calls = []
        real = bassserre.enumerate_ball
        monkeypatch.setattr(bassserre, "enumerate_ball",
                            lambda *a: calls.append(a) or real(*a))
        f = FactorSpec.twist("A", Slope(1, 2), power=2, budget=3)
        first = f.elements()
        build_ball([f, f], 2)
        assert f.elements() is first and len(calls) == 1

    def test_elements_match_the_uncached_list(self):
        # the list `elements()` built on every call before it was cached
        for f in two_twist_factors(3) + [FactorSpec("P", MatrixGroup.of(
                MappingClass(2, 1, 1, 1), MappingClass(-1, 0, 0, -1)), frozenset(), 2)]:
            out, seen = [], set()
            for m in bassserre.enumerate_ball(f.group, f.budget).values():
                if m.is_identity():
                    continue
                key = m.projective_key()
                if key not in seen:
                    seen.add(key)
                    out.append(m)
            out.sort(key=lambda m: m.projective_key())
            assert f.elements() == tuple(out)

    def test_elements_cannot_be_mutated(self):
        f = FactorSpec.twist("A", INFINITY, budget=2)
        with pytest.raises(AttributeError):
            f.elements().append(MappingClass.identity())

    def test_caches_leave_equality_hash_and_repr(self):
        f = FactorSpec.twist("A", INFINITY, power=2, budget=1)
        fresh = FactorSpec.twist("A", INFINITY, power=2, budget=1)
        before = repr(f)
        assert len(f.elements()) == 2 and f.parabolic == (INFINITY, 2)
        assert repr(f) == before == repr(fresh) == (
            "FactorSpec(name='A', group=MatrixGroup(generators=(MappingClass(a=1, b=2, "
            "c=0, d=1),), budget=6), boundary=frozenset({Slope(1/0)}), budget=1)")
        assert f == fresh and hash(f) == hash(fresh)
        assert [x.name for x in dataclasses.fields(f)] == ["name", "group", "boundary", "budget"]
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
        assert FactorSpec("F", MatrixGroup.of(*gens), frozenset()).parabolic == expected


def _example92_factors(D):
    from rgflab.constructions import conjugate_twist_family
    return conjugate_twist_family(D, seed=7).family.factors


def _prop91_factors(seed):
    from rgflab.constructions import twist_orbit_family
    return twist_orbit_family(20, window=5, seed=seed).family.factors


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
          FactorSpec("P", MatrixGroup.of(MappingClass(2, 1, 1, 1)), frozenset())],
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
            True, None, budget, words)

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
    from math import gcd
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
        assert rep.all_loxodromic, rep.failures
