import random

import pytest

from rgflab.farey import INFINITY, MappingClass, Slope, act, twist_about
from rgflab.subgroups import (BUDGET_LIMITED, CENTRAL, EXACT, MatrixGroup, NTType,
                              PERIODIC, PSEUDO_ANOSOV, REDUCIBLE, candidate_slopes,
                              canonical_reducing_system, common_parabolic_fixed_slope,
                              enumerate_ball, group_is_finite, is_multitwist,
                              nielsen_thurston_type, orbit)


class TestNielsenThurstonType:
    def test_parabolic(self):
        assert nielsen_thurston_type(MappingClass(1, 1, 0, 1)) == NTType(REDUCIBLE, INFINITY)

    def test_pseudo_anosov(self):
        assert nielsen_thurston_type(MappingClass(2, 1, 1, 1)).tag == PSEUDO_ANOSOV

    def test_periodic(self):
        assert nielsen_thurston_type(MappingClass(0, -1, 1, 0)).tag == PERIODIC

    def test_central(self):
        assert nielsen_thurston_type(MappingClass(-1, 0, 0, -1)).tag == CENTRAL
        assert nielsen_thurston_type(MappingClass.identity()).tag == CENTRAL

    def test_twist_fixed_slopes(self):
        for alpha in (Slope(0, 1), Slope(5, 8), Slope(-2, 7), INFINITY):
            for n in (1, -3):
                t = nielsen_thurston_type(twist_about(alpha, n))
                assert t == NTType(REDUCIBLE, alpha)

    def test_conjugation_invariant(self):
        rng = random.Random(0)
        mats = [MappingClass(1, 1, 0, 1), MappingClass(2, 1, 1, 1),
                MappingClass(0, -1, 1, 0), MappingClass(-1, 0, 0, -1)]
        conjs = [twist_about(Slope(0, 1), 1), twist_about(INFINITY, -2),
                 MappingClass(0, -1, 1, 0)]
        for _ in range(1000):
            m = rng.choice(mats)
            g = rng.choice(conjs).mul(rng.choice(conjs))
            conj = g.mul(m).mul(g.inv())
            assert nielsen_thurston_type(conj).tag == nielsen_thurston_type(m).tag


class TestOrbit:
    def test_fixed_point(self):
        g = MatrixGroup.of(twist_about(Slope(2, 3), 1))
        res = orbit(g, Slope(2, 3))
        assert res.finite and res.slopes == frozenset({Slope(2, 3)})

    def test_parabolic_certificate(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1))
        res = orbit(g, Slope(0, 1), budget=2)
        assert res.certified_infinite and not res.finite

    def test_finite_cyclic(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 0))
        for s in (INFINITY, Slope(1, 3), Slope(2, 5)):
            res = orbit(g, s, budget=10)
            assert res.finite and len(res.slopes) <= 2

    def test_overflow_is_a_value(self):
        g = MatrixGroup.of(MappingClass(2, 1, 1, 1))
        res = orbit(g, Slope(0, 1), budget=5)
        assert res.overflowed and not res.finite and not res.certified_infinite


class TestEnumeration:
    def test_identity_first(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1))
        ball = list(enumerate_ball(g, 2))
        assert ball[0] == (1, 0, 0, 1)

    def test_finite_group_closes(self):
        finite, size = group_is_finite(MatrixGroup.of(MappingClass(0, -1, 1, 0)), 8)
        assert finite and size == 4

    def test_infinite_group_does_not_close(self):
        finite, _ = group_is_finite(MatrixGroup.of(MappingClass(1, 1, 0, 1)), 5)
        assert not finite

    def test_common_fixed_slope(self):
        g = MatrixGroup.of(twist_about(Slope(1, 2), 2), twist_about(Slope(1, 2), -3))
        assert common_parabolic_fixed_slope(g) == Slope(1, 2)
        g = MatrixGroup.of(twist_about(Slope(1, 2), 2), twist_about(Slope(0, 1), 1))
        assert common_parabolic_fixed_slope(g) is None


def frontier_ball(group, length):
    """Slow twin of the ball walk: the sphere-by-sphere frontier loop."""
    steps = group.step_generators()
    seen = {MappingClass.identity().entries(): MappingClass.identity()}
    frontier = [MappingClass.identity()]
    for _ in range(length):
        nxt = []
        for m in frontier:
            for s in steps:
                cand = m.mul(s)
                if cand.entries() not in seen:
                    seen[cand.entries()] = cand
                    nxt.append(cand)
        frontier = nxt
        if not frontier:
            return seen, True
    return seen, False


def frontier_orbit(group, s, budget):
    """Slow twin of `orbit` past its parabolic certificate: (slopes or None,
    overflowed, visited) from the frontier loop."""
    steps = group.step_generators()
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for g in steps:
                w = act(g, v)
                if w not in seen:
                    if len(seen) >= budget:
                        return None, True, len(seen)
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen), False, len(seen)


GENERATOR_POOL = [MappingClass(1, 1, 0, 1), MappingClass(1, 0, 1, 1), MappingClass(0, -1, 1, 0),
                  MappingClass(-1, 0, 0, -1), MappingClass(2, 1, 1, 1), MappingClass(0, -1, 1, 1),
                  twist_about(Slope(1, 2), 2), twist_about(Slope(-2, 3), -1)]


def random_group(seed):
    rng = random.Random(seed)
    return MatrixGroup.of(*rng.sample(GENERATOR_POOL, rng.randint(1, 3)))


class TestWalkSlowTwins:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_ball_matches_frontier_loop(self, seed, budget):
        g = random_group(seed)
        seen, closed = frontier_ball(g, budget)
        ball = enumerate_ball(g, budget)
        assert list(ball.items()) == list(seen.items())
        assert group_is_finite(g, budget) == ((True, len(seen)) if closed else (False, None))

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_orbit_matches_frontier_loop(self, seed, budget):
        g = random_group(seed)
        for s in (INFINITY, Slope(0, 1), Slope(2, 3), Slope(-1, 2)):
            res = orbit(g, s, budget)
            if res.certified_infinite:
                assert common_parabolic_fixed_slope(g) not in (None, s)
                continue
            assert (res.slopes, res.overflowed, res.visited) == frontier_orbit(g, s, budget)

    def test_finite_ball_closes_where_the_twin_does(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 1))      # order 6
        for length in range(8):
            assert group_is_finite(g, length) == (
                (True, 6) if length >= 4 else (False, None))
            assert frontier_ball(g, length)[1] == (length >= 4)


class TestCandidateSlopes:
    MODULAR = MatrixGroup.of(MappingClass(1, 1, 0, 1), MappingClass(1, 0, 1, 1))

    @pytest.mark.parametrize("budget", [5, 10, 25, 40])
    def test_stops_at_the_budget(self, budget):
        assert len(candidate_slopes(self.MODULAR, closure_budget=budget)) == budget

    def test_seeds_and_fixed_slopes_always_kept(self):
        g = MatrixGroup.of(twist_about(Slope(1, 2), 1))
        assert candidate_slopes(g, closure_budget=0) == [INFINITY, Slope(0, 1), Slope(1, 1),
                                                         Slope(1, 2)]

    def test_finite_closure_is_complete(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 0))      # x -> -1/x
        assert candidate_slopes(g) == [INFINITY, Slope(-1, 1), Slope(0, 1), Slope(1, 1)]

    def test_reached_fixed_slopes_are_expanded(self):
        # from 1/1 the walk meets the fixed slopes 0 and 1/0 at distance 1;
        # -1/1 lies at distance 2 only through them
        steps = self.MODULAR.step_generators()
        ball = {Slope(1, 1)}
        for _ in range(2):
            ball |= {act(g, v) for v in ball for g in steps}
        got = candidate_slopes(self.MODULAR, seeds=[Slope(1, 1)], closure_budget=len(ball))
        assert len(ball) == 12 and Slope(-1, 1) in ball
        assert set(got) == ball


class TestCanonicalReducingSystem:
    def test_single_twist(self):
        rep = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(0, 1), 3)))
        assert rep.boundary == frozenset({Slope(0, 1)})
        assert rep.confidence == EXACT

    def test_pseudo_anosov_empty(self):
        rep = canonical_reducing_system(MatrixGroup.of(MappingClass(2, 1, 1, 1)))
        assert rep.boundary == frozenset() and rep.confidence == EXACT

    def test_finite_group_empty(self):
        rep = canonical_reducing_system(MatrixGroup.of(MappingClass(0, -1, 1, 0)))
        assert rep.boundary == frozenset() and rep.confidence == EXACT

    def test_mixed_twists_empty(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1))
        rep = canonical_reducing_system(g)
        assert rep.boundary == frozenset()

    def test_group_invariance(self):
        g = MatrixGroup.of(twist_about(Slope(1, 2), 2))
        rep = canonical_reducing_system(g)
        for m in enumerate_ball(g, 3).values():
            for s in rep.boundary:
                assert act(m, s) in rep.boundary

    def test_finite_index_stability(self):
        base = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(2, 3), 1)))
        for k in range(2, 11):
            deep = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(2, 3), k)))
            assert deep.boundary == base.boundary

    def test_budget_limited_reported(self):
        # generators parabolic with distinct fixed slopes but tiny budgets:
        # no certificate applies and the ball may miss the pseudo-Anosov word
        g = MatrixGroup(
            (twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)), budget=0)
        rep = canonical_reducing_system(g, candidates=[Slope(7, 9)], budget=3)
        assert rep.confidence in (EXACT, BUDGET_LIMITED)


class TestMultitwist:
    def test_common_slope(self):
        g = MatrixGroup.of(twist_about(INFINITY, 2), twist_about(INFINITY, 5))
        rep = is_multitwist(g)
        assert rep.is_multitwist and rep.common_slope == INFINITY

    def test_distinct_slopes_with_pa_witness(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1))
        rep = is_multitwist(g)
        assert not rep.is_multitwist
        assert isinstance(rep.witness, MappingClass)
        assert abs(rep.witness.trace) > 2

    def test_torsion_witness(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 0))
        rep = is_multitwist(g)
        assert not rep.is_multitwist
        assert rep.witness[0] == PERIODIC

    def test_central_generators_ignored(self):
        g = MatrixGroup.of(MappingClass(-1, 0, 0, -1), twist_about(Slope(1, 3), 4))
        rep = is_multitwist(g)
        assert rep.is_multitwist and rep.common_slope == Slope(1, 3)
