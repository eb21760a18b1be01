import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rgflab.farey import INFINITY, Slope, bounded_vertices, farey_geodesic
from rgflab.hypgraph import DeltaEstimate, FareyOracle, bfs, estimate_delta, gromov_product
from oracles import (check_gp_geodesic_bound, check_local_to_global, cycle_oracle,
                     point_to_path_distance, random_slope, random_tree)


class TestGromovProduct:
    def test_degenerate(self):
        t = random_tree(6, 0)
        p = t.points()[0]
        assert gromov_product(p, p, p, t) == 0

    def test_arithmetic(self):
        class Table:
            def dist(self, a, b):
                return {frozenset({"x", "z"}): 5, frozenset({"y", "z"}): 7,
                        frozenset({"x", "y"}): 4}[frozenset({a, b})] if a != b else 0
        assert gromov_product("x", "y", "z", Table()) == 4

    def test_tree_equals_distance_to_path(self):
        t = random_tree(20, 7)
        pts = t.points()
        rng = random.Random(1)
        for _ in range(300):
            x, y, z = (rng.choice(pts) for _ in range(3))
            assert gromov_product(x, y, z, t) == point_to_path_distance(z, t.geodesic(x, y), t)

    def test_symmetry(self):
        fo = FareyOracle()
        rng = random.Random(2)
        for _ in range(100):
            x, y, z = (random_slope(rng, 40) for _ in range(3))
            assert gromov_product(x, y, z, fo) == gromov_product(y, x, z, fo)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_gp_stability_on_trees(self, seed):
        # |(y|x)_z - (x|w)_z| <= d(y, w)
        t = random_tree(12, seed % 1000)
        rng = random.Random(seed)
        pts = t.points()
        x, y, z, w = (rng.choice(pts) for _ in range(4))
        lhs = abs(gromov_product(y, x, z, t) - gromov_product(x, w, z, t))
        assert lhs <= t.dist(y, w)


SMALL = {0: [1, 2], 1: [0, 3], 2: [0, 3, 4], 3: [1, 2, 5], 4: [2], 5: [3]}


class TestBfs:
    def test_discovery_order_and_parents(self):
        walk = list(bfs(0, SMALL.__getitem__))
        assert walk == [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)]
        # a vertex's parent, the expanded vertex that reached it, is its
        # neighbour reached first (what `GraphOracle.geodesic` steps back to)
        rank = {v: i for i, (v, _) in enumerate(walk)}
        parents = {v: min(SMALL[v], key=rank.__getitem__) for v in SMALL if v}
        assert parents == {1: 0, 2: 0, 3: 1, 4: 2, 5: 3}
        assert all(dict(walk)[p] == dict(walk)[v] - 1 for v, p in parents.items())

    def test_depth_cap(self):
        walk = list(bfs(0, SMALL.__getitem__))
        for depth, count in ((0, 1), (1, 3), (2, 5), (3, 6), (9, 6)):
            assert list(bfs(0, SMALL.__getitem__, depth)) == walk[:count]

    def test_capped_vertices_are_not_expanded(self):
        expanded = []

        def neighbours(v):
            expanded.append(v)
            return SMALL[v]

        list(bfs(0, neighbours, 2))
        assert expanded == [0, 1, 2]
        expanded.clear()
        list(bfs(0, neighbours, 0))
        assert expanded == []

    def test_lazy(self):
        expanded = []

        def neighbours(v):
            expanded.append(v)
            return SMALL[v]

        walk = bfs(0, neighbours)
        assert next(walk) == (0, 0) and expanded == []
        assert next(walk) == (1, 1) and expanded == [0]


class TestEstimateDelta:
    def test_small_sets(self):
        # below four points the scan has no quadruple, whatever its budget
        t = random_tree(3, 0)
        pts = list(t.points())
        assert len(pts) == 3
        for k in range(4):
            for max_quadruples in (None, 0, 5):
                assert estimate_delta(pts[:k], t, max_quadruples) \
                    == DeltaEstimate(Fraction(0), None, 0, True)

    def test_trees_are_zero(self):
        for seed in range(10):
            t = random_tree(14, seed)
            assert estimate_delta(t.points(), t).delta == 0

    def test_four_cycle(self):
        c4 = cycle_oracle(4)
        est = estimate_delta(c4.points(), c4)
        assert est.delta == 1
        assert est.witness is not None

    def test_monotone_under_inclusion(self):
        c6 = cycle_oracle(6)
        pts = c6.points()
        small = estimate_delta(pts[:4], c6).delta
        assert estimate_delta(pts, c6).delta >= small

    def test_capped_sampling_deterministic(self):
        fo = FareyOracle()
        pts = bounded_vertices(6)
        a = estimate_delta(pts, fo, max_quadruples=500, seed=9)
        b = estimate_delta(pts, fo, max_quadruples=500, seed=9)
        assert a == b and not a.exhaustive


def permutation_scan(points, oracle, max_quadruples=None, seed=0) -> DeltaEstimate:
    """Slow twin of `estimate_delta`: every ordering of every 4-set, with the
    three Gromov products at w of each ordering, each doubled to an integer,
    and distances memoized by point."""
    pts = list(points)
    if len(pts) < 4:
        return DeltaEstimate(Fraction(0), None, 0, True)
    cache = {}

    def d(u, v):
        if (u, v) not in cache:
            cache[(u, v)] = cache[(v, u)] = oracle.dist(u, v)
        return cache[(u, v)]

    def twice_deficiency(x, y, z, w):
        xz = d(x, w) + d(z, w) - d(x, z)          # 2 (x | z)_w
        yz = d(y, w) + d(z, w) - d(y, z)          # 2 (y | z)_w
        xy = d(x, w) + d(y, w) - d(x, y)          # 2 (x | y)_w
        return min(xz, yz) - xy

    best, witness, total = 0, None, 0
    n = len(pts)
    if max_quadruples is None or n * (n - 1) * (n - 2) * (n - 3) <= max_quadruples:
        quads = (p for q in itertools.combinations(range(n), 4)
                 for p in itertools.permutations(q))
        exhaustive = True
    else:
        rng = random.Random(seed)
        quads = (rng.sample(range(n), 4) for _ in range(max_quadruples))
        exhaustive = False
    for idx in quads:
        total += 1
        quad = tuple(pts[i] for i in idx)
        val = twice_deficiency(*quad)
        if val > best:
            best, witness = val, quad
    return DeltaEstimate(Fraction(best, 2), witness, total, exhaustive)


def farey_point_set(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 13)
    pts = {INFINITY}
    while len(pts) < n:
        pts.add(random_slope(rng, 30))
    return sorted(pts, key=lambda s: (s.q, s.p))


class TestEstimateDeltaSlowTwin:
    """The split-form scan against the 24-permutation scan, field by field."""

    @pytest.mark.parametrize("max_quadruples", [None, 500])
    @pytest.mark.parametrize("seed", range(12))
    def test_farey_sets(self, seed, max_quadruples):
        pts, fo = farey_point_set(seed), FareyOracle()
        assert (estimate_delta(pts, fo, max_quadruples, seed)
                == permutation_scan(pts, fo, max_quadruples, seed))

    @pytest.mark.parametrize("max_quadruples", [None, 500, -1])
    @pytest.mark.parametrize("n", range(9, 16))
    def test_cycles(self, n, max_quadruples):
        c = cycle_oracle(n)
        assert (estimate_delta(c.points(), c, max_quadruples, n)
                == permutation_scan(c.points(), c, max_quadruples, n))

    @pytest.mark.parametrize("max_quadruples, seeds", [(None, [0]), (500, range(6))])
    def test_trees(self, max_quadruples, seeds):
        for seed in seeds:
            t = random_tree(30, seed)
            assert (estimate_delta(t.points(), t, max_quadruples, seed)
                    == permutation_scan(t.points(), t, max_quadruples, seed))


class TestLocalToGlobal:
    def test_single_segment(self):
        rep = check_local_to_global([INFINITY, Slope(0, 1)], 0, 0, FareyOracle(),
                                    farey_geodesic)
        assert rep.hypothesis_ok and rep.conclusion_ok and rep.D == 0

    def test_needs_a_segment(self):
        with pytest.raises(ValueError):
            check_local_to_global([INFINITY], 0, 0, FareyOracle(), farey_geodesic)

    def test_tree_chain_zero_slack(self):
        t = random_tree(30, 5)
        pts = t.points()
        path = t.geodesic(pts[0], pts[17])
        if len(path) < 5:
            path = max((t.geodesic(a, b) for a in pts for b in pts), key=len)
        chain = [path[0], path[len(path) // 2], path[-1]]
        rep = check_local_to_global(chain, 0, 0, t, t.geodesic)
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert rep.slack == 0
        assert rep.geodesic_ok

    def test_hypothesis_failure_is_reported_not_raised(self):
        rep = check_local_to_global([Slope(0, 1), Slope(1, 1), Slope(0, 1)], 0, 0,
                                    FareyOracle(), farey_geodesic)
        assert not rep.hypothesis_ok
        assert rep.failures

    def test_farey_pivot_chain(self):
        from rgflab.constructions import slope_at_distance
        from rgflab.projections import twist_pivot_sequence
        a0 = Slope(0, 1)
        a1 = slope_at_distance(a0, 30)
        chain = twist_pivot_sequence(a0, a1, 8, 4)
        rep = check_local_to_global(chain, 1, 1, FareyOracle(), farey_geodesic)
        assert rep.hypothesis_ok, rep.failures
        assert rep.conclusion_ok, rep.failures
        assert rep.geodesic_ok


class TestGpGeodesicBound:
    def test_z_on_geodesic(self):
        fo = FareyOracle()
        assert check_gp_geodesic_bound(INFINITY, Slope(0, 1), INFINITY, fo, farey_geodesic, 0)
        assert gromov_product(INFINITY, Slope(0, 1), INFINITY, fo) == 0

    def test_tree_equality(self):
        t = random_tree(15, 11)
        pts = t.points()
        rng = random.Random(3)
        for _ in range(100):
            x, y, z = (rng.choice(pts) for _ in range(3))
            assert check_gp_geodesic_bound(x, y, z, t, t.geodesic, 0)

    def test_farey_samples(self):
        fo = FareyOracle()
        rng = random.Random(4)
        for _ in range(200):
            x, y, z = (random_slope(rng, 80) for _ in range(3))
            if len({x, y, z}) < 3:
                continue
            assert check_gp_geodesic_bound(x, y, z, fo, farey_geodesic, 1)
