import random
from math import gcd

import pytest

from rgflab.bassserre import FactorSpec
from rgflab.farey import INFINITY, MappingClass, Slope, act, twist_about
from rgflab.subgroups import (CENTRAL, MatrixGroup, NTType, PERIODIC, PSEUDO_ANOSOV,
                              REDUCIBLE, ReducingSystemReport, _parabolic_generators,
                              canonical_reducing_system, enumerate_ball, group_is_finite,
                              nielsen_thurston_type)


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
    # slope orbits by the frontier loop against the closed-form boundary

    def test_fixed_point(self):
        g = MatrixGroup.of(twist_about(Slope(2, 3), 1))
        assert frontier_orbit(g, Slope(2, 3), 200) == frozenset({Slope(2, 3)})
        assert canonical_reducing_system(g).boundary == Slope(2, 3)

    def test_parabolic_certificate(self):
        # a parabolic translates the link of its fixed slope
        g = MatrixGroup.of(twist_about(INFINITY, 1))
        assert frontier_orbit(g, Slope(0, 1), 200) is None
        assert canonical_reducing_system(g).boundary == INFINITY

    def test_finite_cyclic(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 0))
        for s in (INFINITY, Slope(1, 3), Slope(2, 5)):
            assert len(frontier_orbit(g, s, 10)) <= 2
        assert canonical_reducing_system(g).boundary is None

    def test_overflow_is_a_value(self):
        g = MatrixGroup.of(MappingClass(2, 1, 1, 1))
        assert frontier_orbit(g, Slope(0, 1), 5) is None
        assert canonical_reducing_system(g) == ReducingSystemReport(
            None, (PSEUDO_ANOSOV, MappingClass(2, 1, 1, 1)))


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
        assert canonical_reducing_system(g).boundary == Slope(1, 2)
        g = MatrixGroup.of(twist_about(Slope(1, 2), 2), twist_about(Slope(0, 1), 1))
        assert canonical_reducing_system(g).boundary is None


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
    """The slope orbit of s by the frontier loop, or None when a sphere
    adds slopes to `budget` or more already seen."""
    steps = group.step_generators()
    seen, frontier = {s}, {s}
    while frontier:
        frontier = {act(g, v) for v in frontier for g in steps} - seen
        if frontier and len(seen) >= budget:
            return None
        seen |= frontier
    return frozenset(seen)


def ball_witness(group):
    """Slow twin of the witness: the offender, or the first |trace| > 2 element
    of the length-4 ball over the first two parabolics about distinct slopes."""
    parabolics, offender = _parabolic_generators(group)
    others = [g for g, s in parabolics or () if s != parabolics[0][1]]
    if not others:
        return offender
    pair = MatrixGroup((parabolics[0][0], others[0]))
    return next(m for m in enumerate_ball(pair, 4).values() if abs(m.trace) > 2)


GENERATOR_POOL = [MappingClass(1, 1, 0, 1), MappingClass(1, 0, 1, 1), MappingClass(0, -1, 1, 0),
                  MappingClass(-1, 0, 0, -1), MappingClass(2, 1, 1, 1), MappingClass(0, -1, 1, 1),
                  twist_about(Slope(1, 2), 2), twist_about(Slope(-2, 3), -1)]

TWIST_SLOPES = [INFINITY, Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(-2, 3), Slope(3, 5)]

SMALL_SLOPES = [INFINITY] + [Slope(p, q) for q in range(1, 5) for p in range(-4, 5)
                             if gcd(p, q) == 1]


def random_group(seed):
    rng = random.Random(seed)
    return MatrixGroup.of(*rng.sample(GENERATOR_POOL, rng.randint(1, 3)))


def random_twist_group(seed):
    """One to three twists about one or several slopes, each negated now
    and then."""
    rng = random.Random(seed)
    return MatrixGroup.of(*(
        twist_about(rng.choice(TWIST_SLOPES[:rng.randint(1, 6)]), rng.choice([-3, -2, -1, 1, 2]))
        .mul(rng.choice([MappingClass.identity(), MappingClass(-1, 0, 0, -1)]))
        for _ in range(rng.randint(1, 3))))


class TestFactorBoundary:
    """`FactorSpec.boundary` is derived: the group's canonical reducing
    system, fixed by every generator, and the twist slope of a twist
    factor."""

    @pytest.mark.parametrize("gens", [[g] for g in GENERATOR_POOL] + [GENERATOR_POOL[:2]],
                             ids=[f"pool-{k}" for k in range(len(GENERATOR_POOL))] + ["pair"])
    def test_generator_pool(self, gens):
        group = MatrixGroup.of(*gens)
        f = FactorSpec("F", group)
        assert f.boundary == canonical_reducing_system(group).boundary
        assert f.boundary is None or all(act(g, f.boundary) == f.boundary for g in gens)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_groups(self, seed):
        for group in (random_group(seed), random_twist_group(seed)):
            f = FactorSpec("F", group)
            assert f.boundary == canonical_reducing_system(group).boundary
            assert f.boundary is None or all(act(g, f.boundary) == f.boundary
                                             for g in group.generators)
        rng = random.Random(seed)
        alpha = rng.choice(SMALL_SLOPES)
        assert FactorSpec.twist("T", alpha, rng.choice([-3, -1, 1, 2])).boundary == alpha


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
    @pytest.mark.parametrize("budget", [0, 1, 5, 200])
    def test_orbit_matches_frontier_loop(self, seed, budget):
        # an infinite group's finite slope orbits are its fixed slopes, so a
        # frontier orbit is finite exactly on the closed-form boundary,
        # whatever the budget; a finite group gets the empty system
        for g in (random_group(seed), random_twist_group(seed)):
            boundary = canonical_reducing_system(g).boundary
            if frontier_ball(g, 6)[1]:
                assert boundary is None
                continue
            for s in SMALL_SLOPES + ([] if boundary is None else [boundary]):
                assert (frontier_orbit(g, s, budget) is not None) == (s == boundary), s

    @pytest.mark.parametrize("seed", range(40))
    def test_witness_matches_ball_pick(self, seed):
        for g in (random_group(seed), random_twist_group(seed)):
            assert canonical_reducing_system(g).witness == ball_witness(g)

    def test_finite_ball_closes_where_the_twin_does(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 1))      # order 6
        for length in range(8):
            assert group_is_finite(g, length) == (
                (True, 6) if length >= 4 else (False, None))
            assert frontier_ball(g, length)[1] == (length >= 4)


class TestCanonicalReducingSystem:
    def test_single_twist(self):
        rep = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(0, 1), 3)))
        assert rep.boundary == Slope(0, 1)

    def test_pseudo_anosov_empty(self):
        rep = canonical_reducing_system(MatrixGroup.of(MappingClass(2, 1, 1, 1)))
        assert rep.boundary is None

    def test_finite_group_empty(self):
        rep = canonical_reducing_system(MatrixGroup.of(MappingClass(0, -1, 1, 0)))
        assert rep.boundary is None

    def test_mixed_twists_empty(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1))
        assert canonical_reducing_system(g).boundary is None

    def test_group_invariance(self):
        g = MatrixGroup.of(twist_about(Slope(1, 2), 2))
        rep = canonical_reducing_system(g)
        for m in enumerate_ball(g, 3).values():
            assert act(m, rep.boundary) == rep.boundary

    def test_finite_index_stability(self):
        base = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(2, 3), 1)))
        for k in range(2, 11):
            deep = canonical_reducing_system(MatrixGroup.of(twist_about(Slope(2, 3), k)))
            assert deep.boundary == base.boundary

    def test_budget_limited_reported(self):
        # parabolic generators about distinct slopes: ab has trace 1, so
        # the witness is the two-letter word ab^-1
        a, b = twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1)
        rep = canonical_reducing_system(MatrixGroup.of(a, b))
        assert rep.boundary is None
        assert a.mul(b).trace == 1
        assert rep.witness == a.mul(b.inv()) and rep.witness.trace == 3


class TestMultitwist:
    def test_common_slope(self):
        g = MatrixGroup.of(twist_about(INFINITY, 2), twist_about(INFINITY, 5))
        rep = canonical_reducing_system(g)
        assert rep.witness is None and rep.boundary == INFINITY

    def test_distinct_slopes_with_pa_witness(self):
        g = MatrixGroup.of(twist_about(INFINITY, 1), twist_about(Slope(0, 1), 1))
        rep = canonical_reducing_system(g)
        assert isinstance(rep.witness, MappingClass)
        assert abs(rep.witness.trace) > 2

    def test_torsion_witness(self):
        g = MatrixGroup.of(MappingClass(0, -1, 1, 0))
        assert canonical_reducing_system(g).witness == (PERIODIC, MappingClass(0, -1, 1, 0))

    def test_central_generators_ignored(self):
        g = MatrixGroup.of(MappingClass(-1, 0, 0, -1), twist_about(Slope(1, 3), 4))
        rep = canonical_reducing_system(g)
        assert rep.witness is None and rep.boundary == Slope(1, 3)
