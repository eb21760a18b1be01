import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, islice, product

import pytest

from rgflab import farey, projections
from rgflab.farey import INFINITY, EmptyProjectionError, Slope, act, farey_distance, \
    farey_geodesic, twist_about
from rgflab.constructions import slope_at_distance
from rgflab.projections import (BehrstockReport, OverlapError,
                                PersistenceReport, behrstock_scan, bgit_scan,
                                estimate_constants, geodesic_image_bounds, persistence_check,
                                random_slopes, twist_pivot_sequence)
from rgflab.hypgraph import bfs
from oracles import (GenericTorus, bounded_neighbors, general_persistence_check, is_geodesic,
                     link_span, nearest_overlaps, nine_call_behrstock_scan, pairwise_bgit_scan,
                     random_slope, sample_overlapping_triples, slow_estimate_constants,
                     synthetic_system, system_behrstock_scan, system_bgit_scan,
                     walked_bgit_scan)


@pytest.fixture(scope="module")
def torus():
    return GenericTorus()


class TestTorusSystem:
    def test_overlap_is_intersection(self, torus):
        assert torus.overlaps(INFINITY, Slope(0, 1))
        assert not torus.overlaps(INFINITY, INFINITY)

    def test_projection_diameter_at_most_one(self):
        rng = random.Random(0)
        for _ in range(200):
            site, obj = random_slope(rng, 30), random_slope(rng, 30)
            if site == obj:
                continue
            lo, hi = link_span(site, [obj])
            assert hi - lo <= 1

    @pytest.mark.parametrize("path", [[Slope(0, 1)], []], ids=["only-the-site", "empty"])
    def test_link_span_of_nothing_projecting(self, path):
        assert link_span(Slope(0, 1), path) is None

    def test_non_overlapping_boundaries_project_close(self, torus):
        # a single curve has projection diameter at most 2 anywhere
        rng = random.Random(1)
        for _ in range(100):
            site = random_slope(rng, 30)
            a = random_slope(rng, 30)
            if a == site:
                continue
            assert torus.proj_dist(site, a, a) <= 2


class TestBehrstock:
    def test_precondition(self):
        with pytest.raises(OverlapError):
            behrstock_scan([(INFINITY, INFINITY, Slope(0, 1))])

    def test_torus_scan_records_bemp(self):
        rng = random.Random(2)
        triples = sample_overlapping_triples(500, rng, qmax=200)
        rep = behrstock_scan(triples)
        assert rep == BehrstockReport(500, 2)
        fresh = sample_overlapping_triples(500, random.Random(3), qmax=200)
        assert behrstock_scan(fresh).B_emp <= rep.B_emp
        assert behrstock_scan([]) == BehrstockReport(0, 1)

    def test_every_triple_of_a_box_has_level_one(self):
        """The closed form of `behrstock_scan`, exhaustively: for every
        triple of distinct slopes in `bounded_vertices(8)`, the median of
        d_x(y, z), d_y(x, z) and d_z(x, y) is exactly 1."""
        dist = farey.annular_distance
        levels = Counter(sorted((dist(x, y, z), dist(y, x, z), dist(z, x, y)))[1]
                         for x, y, z in combinations(farey.bounded_vertices(8), 3))
        assert levels == {1: 109736}

    def test_synthetic_by_construction(self):
        sys_ = synthetic_system(7, seed=0, threshold=5)
        sites = [s for s in sys_.sites() if s.startswith("Y")]
        triples = [(sites[i], sites[j], sites[k])
                   for i in range(5) for j in range(i + 1, 6) for k in range(j + 1, 7)]
        assert system_behrstock_scan(sys_, triples).B_emp == 1


def _scan_against_twins(torus, monkeypatch, triples) -> tuple:
    """Check `bgit_scan` on every (site, a, b) against `walked_bgit_scan`
    and `pairwise_bgit_scan`, and its walks, seen by a spy on
    `farey.geodesic_vectors`, against the proof in its docstring: one from
    a to b exactly when d_site(a, b) is 2 or 3, and none when the site
    is an end.  Returns the Counter of diameters and the number of walks."""
    walks, scanned = [], []
    real = farey.geodesic_vectors

    def spy(a, b):
        walks.append((a, b))
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(farey, "geodesic_vectors", spy)
        for site, a, b in triples:
            scanned.append((bgit_scan(site, a, b), walks[:]))
            walks.clear()
    diameters = Counter()
    for (site, a, b), (rep, seen) in zip(triples, scanned):
        d = None if site in (a, b) else farey.annular_distance(site, a, b)
        assert seen == ([(a, b)] if d in (2, 3) else [])
        assert rep == walked_bgit_scan(site, a, b) \
            == pairwise_bgit_scan(torus, site, farey_geodesic(a, b))
        diameters[rep] += 1
    return diameters, sum(map(bool, (seen for _, seen in scanned)))


class TestBgit:
    def test_link_geodesic(self):
        # `farey_geodesic` from 0 to 2 is 0, 1, 2
        assert farey_geodesic(Slope(0, 1), Slope(2, 1)) == [Slope(0, 1), Slope(1, 1), Slope(2, 1)]
        assert bgit_scan(INFINITY, Slope(0, 1), Slope(2, 1)) == 2

    def test_core_fails_to_project(self):
        assert bgit_scan(Slope(1, 1), Slope(0, 1), Slope(2, 1)) is None

    def test_requires_geodesic(self, torus):
        # a path given as a list is checked by the list twins
        for scan in (system_bgit_scan, pairwise_bgit_scan):
            with pytest.raises(ValueError):
                scan(torus, INFINITY, [Slope(0, 1), Slope(5, 8)])

    def test_a_geodesic_farey_geodesic_does_not_pick_has_image_four(self, torus):
        # 1/2, 1, 2, 3, 7/2 avoids 1/0 and projects there with diameter 4,
        # while `farey_geodesic` between its ends goes through 1/0: M = 3
        # bounds only the geodesics that `farey_geodesic` picks, and the
        # bound for every geodesic, 4, is attained (proofs in `bgit_scan`)
        path = [Slope(1, 2), Slope(1, 1), Slope(2, 1), Slope(3, 1), Slope(7, 2)]
        assert is_geodesic(path) and farey_distance(path[0], path[-1]) == 4
        assert system_bgit_scan(torus, INFINITY, path) \
            == pairwise_bgit_scan(torus, INFINITY, path) == 4
        assert INFINITY in farey_geodesic(path[0], path[-1])
        assert bgit_scan(INFINITY, path[0], path[-1]) is None

    def test_every_geodesic_of_a_box_projects_within_four(self):
        """M <= 4 over every geodesic, not only the ones `farey_geodesic`
        picks (proof in `bgit_scan`).  The subgraph on `bounded_vertices(6)`
        has the Farey distances, and each of its 3,586 geodesics projects to
        every site off it with diameter d_site(a, b) (the hull lemma); the
        greatest is 4, on 160 (geodesic, site) pairs."""
        verts = farey.bounded_vertices(6)
        adj = {s: bounded_neighbors(s, 6) for s in verts}
        geodesics, diameters = 0, Counter()
        for a, b in product(verts, repeat=2):
            to_b = dict(bfs(b, adj.__getitem__))
            assert to_b[a] == farey_distance(a, b)
            paths = [[a]]
            while paths[0][-1] != b:
                paths = [path + [v] for path in paths for v in adj[path[-1]]
                         if to_b[v] == to_b[path[-1]] - 1]
            for path in paths:
                geodesics += 1
                for site in set(verts) - set(path):
                    lo, hi = link_span(site, path)
                    assert hi - lo == farey.annular_distance(site, a, b)
                    diameters[hi - lo] += 1
        assert geodesics == 3586
        assert max(diameters) == 4 and diameters[4] == 160

    def test_every_picked_geodesic_of_a_box_meets_a_site_at_four(self):
        """M = 3 for the geodesics `farey_geodesic` picks (proof in
        `bgit_scan`): on `bounded_vertices(6)`, each of the 912 (site, a, b)
        with d_site(a, b) = 4 has the site on the picked geodesic, and a
        picked geodesic that misses a site projects there, by its link span,
        with diameter d_site(a, b) <= 3, and 3 is attained."""
        verts = farey.bounded_vertices(6)
        at_four, missed = 0, Counter()
        for a, b in product(verts, repeat=2):
            path = farey_geodesic(a, b)
            for site in set(verts) - {a, b}:
                d = farey.annular_distance(site, a, b)
                at_four += d == 4
                if site not in path:
                    lo, hi = link_span(site, path)
                    assert hi - lo == d != 4
                    missed[d] += 1
        assert at_four == 912
        assert max(missed) == 3

    def test_large_projection_forces_pit_stop(self, torus):
        # endpoints with annular distance above the empirical geodesic-image
        # bound: every geodesic between them must hit the core
        rng = random.Random(4)
        M_emp = 3
        checked = 0
        for _ in range(60):
            site = random_slope(rng, 50)
            base = random_slope(rng, 50)
            if base == site:
                continue
            far = act(twist_about(site, rng.randrange(6, 40)), base)
            if torus.proj_dist(site, base, far) <= M_emp:
                continue
            checked += 1
            assert site in farey_geodesic(base, far)
            assert bgit_scan(site, base, far) is None
        assert checked > 20


class TestPersistence:
    def test_short_sequences_trivial(self, torus):
        rep = persistence_check(torus, [INFINITY, Slope(0, 1)], M=3, B=2)
        assert rep.hypothesis_ok and rep.conclusions_ok

    def test_torus_pivot_sequences(self, torus):
        rng = random.Random(5)
        a0 = Slope(0, 1)
        a1 = slope_at_distance(a0, 3)
        for _ in range(20):
            seq = twist_pivot_sequence(a0, a1, 12, rng.randrange(3, 7), rng)
            rep = persistence_check(torus, seq, M=3, B=2)
            assert rep.hypothesis_ok, rep.failures
            assert rep.conclusions_ok, rep.failures
            # gaps of 3 or more, so the final-distance conclusion is tested
            assert all(farey_distance(u, v) >= 3 for u, v in zip(seq, seq[1:]))
            assert rep.final_distance_ok

    def test_hypothesis_failure_reported(self, torus):
        rep = persistence_check(torus, [INFINITY, Slope(0, 1), INFINITY], M=3, B=2)
        assert not rep.hypothesis_ok
        assert rep.failures

    def test_synthetic_sequence(self):
        sys_ = synthetic_system(8, seed=7, threshold=3)
        sites = [s for s in sys_.sites() if s.startswith("Y")]
        rep = persistence_check(sys_, sites, M=0, B=1)
        assert rep.hypothesis_ok and rep.conclusions_ok

    def test_pair_that_does_not_overlap(self, torus):
        # a pair is checked like any sequence: [s, s] does not overlap
        for s in (INFINITY, Slope(-3, 5)):
            rep = persistence_check(torus, [s, s], M=3, B=2)
            assert not (rep.hypothesis_ok or rep.pairwise_overlap_ok or rep.conclusions_ok)
            assert rep.failures == ["consecutive sites 0,1 do not overlap",
                                    "sites 0,1 do not overlap"]

    @pytest.mark.parametrize("seq", [[], [INFINITY]], ids=["empty", "one-site"])
    def test_sequences_below_two_sites(self, torus, seq):
        rep = persistence_check(torus, seq, M=3, B=2)
        assert rep.hypothesis_ok and rep.conclusions_ok and rep.failures == []

    def test_repeated_slope_does_not_overlap(self, torus):
        rep = persistence_check(torus, [INFINITY, INFINITY, Slope(0, 1)], M=3, B=2)
        assert not rep.hypothesis_ok
        assert not rep.pairwise_overlap_ok and not rep.middle_bound_ok
        assert rep.failures == ["consecutive sites 0,1 do not overlap",
                                "sites 0,1 do not overlap"]

    def test_middle_projection_below_M_plus_B(self, torus):
        # a Farey triangle: 1/0 and 1/1 project one apart to the link of 0/1
        rep = persistence_check(torus, [INFINITY, Slope(0, 1), Slope(1, 1)], M=3, B=2)
        assert rep.pairwise_overlap_ok and not rep.middle_bound_ok
        assert rep.monotone_ok and rep.final_distance_ok
        assert rep.failures == ["middle projection at 1 is 1 < M+3B = 9",
                                "projection d_1(0,2) = 1 < M+B"]

    def test_final_distance_under_separated_gaps(self, torus):
        seq = [Slope(0, 1), Slope(-8, 5), INFINITY]
        assert [farey_distance(u, v) for u, v in zip(seq, seq[1:])] == [3, 3]
        rep = persistence_check(torus, seq, M=0, B=1)
        assert not rep.final_distance_ok
        assert rep.middle_bound_ok and not rep.monotone_ok
        assert rep.failures == ["middle projection at 1 is 1 < M+3B = 3",
                                "d(0,2) = 1 < d(0,1) = 3",
                                "d(0,2) = 1 < d(1,2) = 3",
                                "d(Y_1, Y_n) = 1 < n-1 = 2"]


class TestGeneralPersistence:
    def test_all_overlapping_reduces_to_plain(self, torus):
        a0 = Slope(0, 1)
        seq = twist_pivot_sequence(a0, slope_at_distance(a0, 3), 14, 5)
        rep = general_persistence_check(torus, seq, M=3, B=2)
        assert rep.iota == [None, 0, 1, 2, 3]
        assert rep.tau == [1, 2, 3, 4, None]
        assert rep.subsequence == [0, 1, 2, 3, 4]
        assert rep.hypothesis_ok and rep.chained.conclusions_ok

    def test_blocks_are_skipped(self):
        sys_ = synthetic_system(6, seed=9, threshold=7, block_sizes=[0, 2, 0, 0, 2, 0])
        seq = []
        for i in range(6):
            seq.append(f"Y{i}")
            for k in range(2):
                name = f"B{i}.{k}"
                if name in sys_.positions:
                    seq.append(name)
        iota, tau = nearest_overlaps(len(seq), lambda i, j: sys_.overlaps(seq[i], seq[j]))
        # brute force against the definition
        for j in range(len(seq)):
            before = [t for t in range(j) if sys_.overlaps(seq[t], seq[j])]
            after = [t for t in range(j + 1, len(seq)) if sys_.overlaps(seq[j], seq[t])]
            assert iota[j] == (max(before) if before else None)
            assert tau[j] == (min(after) if after else None)
        rep = general_persistence_check(sys_, seq, M=0, B=1)
        assert rep.hypothesis_ok, rep.failures
        assert rep.interior_bound_ok and rep.chained.conclusions_ok

    def test_equal_sites_non_overlapping(self, torus):
        seq = [INFINITY, INFINITY]
        iota, tau = nearest_overlaps(2, lambda i, j: torus.overlaps(seq[i], seq[j]))
        assert iota == [None, None] and tau == [None, None]

    def test_repeated_torus_sites_handled(self, torus):
        a0 = Slope(0, 1)
        base = twist_pivot_sequence(a0, slope_at_distance(a0, 3), 14, 4)
        seq = [base[0], base[1], base[1], base[2], base[3]]
        rep = general_persistence_check(torus, seq, M=3, B=2)
        assert rep.subsequence == [0, 1, 3, 4]
        assert rep.chained.conclusions_ok

    def test_hypothesis_and_interior_failures(self, torus):
        rep = general_persistence_check(torus, [INFINITY, Slope(0, 1), Slope(1, 1)], M=3, B=2)
        assert (rep.iota, rep.tau, rep.subsequence) == ([None, 0, 1], [1, 2, None], [0, 1, 2])
        assert not rep.hypothesis_ok and not rep.interior_bound_ok
        assert rep.failures == ["d_1(iota, tau) = 1 < M+6B = 15",
                                "subsequence projection d_1(0,2) = 1 < M+3B"]
        assert rep.chained.failures == ["middle projection at 1 is 1 < M+3B = 9",
                                        "projection d_1(0,2) = 1 < M+B"]

    def test_overlaps_scanned_once(self):
        # the default chain follows the tau of the one nearest-overlap scan
        system = synthetic_system(6, seed=9, threshold=7, block_sizes=[0, 2, 0, 0, 2, 0])
        seq = ["Y0", "Y1", "B1.0", "B1.1", "Y2", "Y3", "Y4", "B4.0", "B4.1", "Y5"]
        counted, scan, chained = (_Counted(system, "overlaps") for _ in range(3))
        rep = general_persistence_check(counted, seq, M=0, B=1)
        nearest_overlaps(len(seq), lambda i, j: scan.overlaps(seq[i], seq[j]))
        persistence_check(chained, [seq[i] for i in rep.subsequence], 0, 1)
        assert rep.subsequence == [0, 1, 4, 5, 6, 9]
        assert counted.calls == scan.calls + len(rep.subsequence) - 1 + chained.calls

    def test_explicit_subsequence_validated(self, torus):
        seq = [INFINITY, INFINITY]
        with pytest.raises(OverlapError):
            general_persistence_check(torus, seq, M=3, B=2, subsequence=[0, 1])


class TestEstimateConstants:
    def test_torus_constants(self):
        est = estimate_constants(seed=0, n_triples=300, n_geodesics=150, qmax=300)
        assert est.c_emp == 1
        assert est.B_emp == 2 and est.samples["B"] == (2, 2)
        assert est.M_emp is not None and est.M_emp >= 2

    # theorem-b's flags on seeds 8 to 14, the `geometry` benchmark job's, and
    # empty B samples; the twin measures the B samples the closed form skips
    @pytest.mark.parametrize("seed, n_triples, n_geodesics, qmax",
                             [(seed, 1000, 300, 800) for seed in range(8, 15)]
                             + [(0, 10000, 2000, 1000), (0, 0, 50, 100)])
    def test_matches_the_slow_twins(self, seed, n_triples, n_geodesics, qmax):
        assert estimate_constants(seed, n_triples, n_geodesics, qmax) \
            == slow_estimate_constants(seed, n_triples, n_geodesics, qmax)

    def test_c_samples_meet_both_branches(self):
        # d_site(T^n beta, beta) = n + [beta not adjacent to the site]: on the
        # seeds above, some c sample is 1, from an adjacent beta, and some is
        # (n + 1)/n, from a sample with no adjacent beta, so the twin
        # comparison checks both terms (the c samples read no other flag)
        cs = [c for seed in range(8, 15) for c in estimate_constants(seed, 1, 1, 1).samples["c"]]
        assert 1 in cs and any(c > 1 for c in cs)

    def test_memory_does_not_grow_with_the_sample(self):
        """The B samples are not drawn, so nothing grows with `n_triples`:
        the traced peak at 50,000 triples is within 0.5 MB of the peak at
        5,000."""
        def peak(n_triples):
            tracemalloc.start()
            try:
                estimate_constants(seed=0, n_triples=n_triples, n_geodesics=10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(5_000), peak(50_000)
        assert abs(large - small) <= 2 ** 19, (small, large)

    def test_synthetic_constants_below_declared(self):
        sys_ = synthetic_system(6, seed=1, threshold=4)
        sites = [s for s in sys_.sites() if s.startswith("Y")]
        triples = [(a, b, c) for a in sites for b in sites for c in sites
                   if len({a, b, c}) == 3][:200]
        assert system_behrstock_scan(sys_, triples).B_emp <= 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyProjectionError, OverlapError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


class TestBgitSlowTwin:
    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_torus_geodesics(self, torus, qmax):
        rng = random.Random(qmax)
        projecting = 0
        for _ in range(300):
            site = random_slope(rng, qmax)
            base = random_slope(rng, qmax)
            if rng.random() < 0.5:
                far = act(twist_about(site, rng.randrange(1, 12)), base)
            else:
                far = random_slope(rng, qmax)
            rep = bgit_scan(site, base, far)
            assert rep == pairwise_bgit_scan(torus, site, farey_geodesic(base, far))
            projecting += rep is not None
        assert projecting > 100
        assert system_bgit_scan(torus, INFINITY, []) \
            == pairwise_bgit_scan(torus, INFINITY, []) == 0

    def test_every_triple_of_a_box_matches_both_twins(self, torus, monkeypatch):
        """The one-distance scan against both twins, and its walks against
        the proof, on every (site, a, b) of `bounded_vertices(6)`, a == b and
        a site at an end among them: 11,936 of the 110,592 scans walk."""
        triples = list(product(farey.bounded_vertices(6), repeat=3))
        assert _scan_against_twins(torus, monkeypatch, triples) \
            == ({None: 8610, 0: 186, 1: 91446, 2: 9654, 3: 696}, 11936)

    # every draw of the two M samples of `estimate_constants` at the
    # `geometry` job's sizes (seeds 0 and 1001, as the B test below) and of
    # `experiment theorem-b --seed 11` at its default flags, with the number
    # of draws and of walks
    @pytest.mark.parametrize("seed, n_geodesics, qmax, draws, walked", [
        (0, 2000, 1000, 4000, 366), (1001, 2000, 1000, 4000, 353), (11, 300, 800, 600, 58)])
    def test_every_draw_of_the_M_samples_matches_both_twins(
            self, torus, monkeypatch, seed, n_geodesics, qmax, draws, walked):
        triples = []
        real = projections.bgit_scan

        def spy(*args):
            triples.append(args)
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(projections, "bgit_scan", spy)
            geodesic_image_bounds(seed, n_geodesics, qmax)
        assert len(triples) == draws
        assert _scan_against_twins(torus, monkeypatch, triples)[1] == walked

    # one vertex, on the site or off it; the site at either end; the site
    # 1/0, whose vector comes out of the walk as (1, 0) or (-1, 0); and
    # integer ends and sites, whose conjugators are [[0, 1], [-1, p]]
    @pytest.mark.parametrize("site, a, b", [
        (Slope(0, 1), Slope(3, 7), Slope(3, 7)),
        (Slope(3, 7), Slope(3, 7), Slope(3, 7)),
        (INFINITY, INFINITY, INFINITY),
        (INFINITY, Slope(2, 1), Slope(2, 1)),
        (Slope(3, 7), Slope(3, 7), Slope(-11, 4)),
        (Slope(-11, 4), Slope(3, 7), Slope(-11, 4)),
        (INFINITY, INFINITY, Slope(13, 5)),
        (INFINITY, Slope(13, 5), INFINITY),
        (INFINITY, Slope(1, 2), Slope(7, 2)),
        (INFINITY, Slope(-5, 3), Slope(8, 5)),
        (INFINITY, Slope(-3, 1), Slope(4, 1)),
        (Slope(2, 1), Slope(0, 1), Slope(5, 1)),
        (Slope(2, 1), Slope(-3, 1), Slope(9, 4)),
        (Slope(0, 1), Slope(-1, 1), Slope(1, 1)),
        (Slope(5, 1), Slope(1, 3), Slope(40, 7))])
    def test_edge_cases_match_the_twin(self, torus, site, a, b):
        assert bgit_scan(site, a, b) == pairwise_bgit_scan(torus, site, farey_geodesic(a, b))

    # a gap, a repeated slope, a non-geodesic path of edges, and a geodesic
    # through the site, whose refusal comes after the edge checks: a path
    # given as a list goes to the list twins, and the last case, a
    # geodesic `farey_geodesic` picks, to `bgit_scan` too
    @pytest.mark.parametrize("site, path, outcome", [
        (INFINITY, [Slope(0, 1), Slope(5, 8)],
         ("ValueError", "input sequence is not an ambient geodesic")),
        (INFINITY, [Slope(0, 1), Slope(0, 1)],
         ("ValueError", "input sequence is not an ambient geodesic")),
        (Slope(2, 1), [INFINITY, Slope(0, 1), Slope(1, 1)],
         ("ValueError", "input sequence is not distance-realizing")),
        (Slope(1, 1), [Slope(0, 1), Slope(1, 1), Slope(2, 1)], None)])
    def test_refusals_match_the_twin(self, torus, site, path, outcome):
        assert _outcome(system_bgit_scan, torus, site, path) \
            == _outcome(pairwise_bgit_scan, torus, site, path) == outcome
        if path == farey_geodesic(path[0], path[-1]):
            assert bgit_scan(site, path[0], path[-1]) == outcome

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_geodesics(self, seed):
        fast, slow = (synthetic_system(7, seed=seed, threshold=4, decoys=6) for _ in range(2))
        rng = random.Random(seed)
        sites = fast.sites()
        vertices = sorted(fast.tree.adj)
        projecting = 0
        for _ in range(150):
            site = rng.choice(sites)
            a, b = rng.choice(vertices), rng.choice(vertices)
            path = fast.ambient_geodesic(a, b)
            rep = system_bgit_scan(fast, site, path)
            assert rep == pairwise_bgit_scan(slow, site, path)
            # a tree geodesic that misses the unit ball leaves in one direction
            assert rep in (None, 0)
            projecting += rep is not None
        assert projecting > 60
        # the scans leave both systems with the same hidden coordinates
        assert {v: list(c.items()) for v, c in fast.link_coords.items()} \
            == {v: list(c.items()) for v, c in slow.link_coords.items()}


class TestBehrstockSlowTwin:
    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_torus(self, torus, qmax):
        triples = list(sample_overlapping_triples(400, random.Random(qmax), qmax=qmax))
        assert behrstock_scan(triples) == nine_call_behrstock_scan(torus, triples)

    @pytest.mark.parametrize("seed", [0, 1001])
    def test_torus_at_the_estimate_size(self, torus, seed, monkeypatch):
        """The two samples of `constants estimate --seed 0`: 10,000 triples
        at qmax 1000.  The measured twin finds the closed form's level, and
        the B half reads no distance: `behrstock_scan` makes no
        `farey.annular_distance` call, and `estimate_constants` at the
        `geometry` job's sizes calls it exactly as its M half,
        `geodesic_image_bounds`, does alone: once per scan, as no site
        drawn there is an end of its geodesic."""
        triples = list(sample_overlapping_triples(10000, random.Random(seed), qmax=1000))
        want = nine_call_behrstock_scan(torus, triples)
        calls = []
        real = farey.annular_distance

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(farey, "annular_distance", spy)
        assert behrstock_scan(triples) == want == BehrstockReport(10000, 2)
        assert calls == []
        assert estimate_constants(seed, 10000, 2000, 1000).samples["B"] == (2, 2)
        from_estimate, calls[:] = calls[:], []
        geodesic_image_bounds(seed, 2000, 1000)
        assert from_estimate == calls and len(calls) == 4000

    def test_torus_overlap_error(self, torus):
        triples = [(Slope(0, 1), Slope(1, 2), Slope(3, 1)), (INFINITY, Slope(0, 1), INFINITY)]
        assert _outcome(behrstock_scan, triples) \
            == _outcome(nine_call_behrstock_scan, torus, triples) \
            == ("OverlapError", "sites Slope(1/0), Slope(1/0) do not overlap")

    # the first failing pair, in the order (x, y), (y, z), (x, z), names the
    # error; (x, z) is the case above
    @pytest.mark.parametrize("bad, pair", [
        ((Slope(2, 1), Slope(2, 1), Slope(0, 1)), "Slope(2/1), Slope(2/1)"),
        ((Slope(0, 1), Slope(1, 3), Slope(1, 3)), "Slope(1/3), Slope(1/3)"),
        ((Slope(1, 4), Slope(1, 4), Slope(1, 4)), "Slope(1/4), Slope(1/4)")])
    def test_torus_overlap_error_names_the_first_pair(self, torus, bad, pair):
        triples = [(Slope(0, 1), Slope(1, 2), Slope(3, 1)), bad]
        assert _outcome(behrstock_scan, triples) \
            == _outcome(nine_call_behrstock_scan, torus, triples) \
            == ("OverlapError", f"sites {pair} do not overlap")

    @pytest.mark.parametrize("seed", range(3))
    def test_tree(self, seed):
        fast, slow = (synthetic_system(6, seed=seed, threshold=3, decoys=4) for _ in range(2))
        rng = random.Random(seed)
        sites = fast.sites()
        triples = []
        while len(triples) < 150:
            t = tuple(rng.sample(sites, 3))
            if all(fast.overlaps(u, v) for u, v in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))):
                triples.append(t)
        assert system_behrstock_scan(fast, triples) == nine_call_behrstock_scan(slow, triples)


def full_matrix_persistence_check(system, sequence, M, B):
    """The `persistence_check` that filled the whole n x n matrix of ambient
    distances, each off-diagonal one twice: its slow twin."""
    seq = list(sequence)
    n = len(seq)
    failures = []
    hyp = True
    for i in range(n - 1):
        if not system.overlaps(seq[i], seq[i + 1]):
            hyp = False
            failures.append(f"consecutive sites {i},{i+1} do not overlap")
    if hyp:
        for j in range(1, n - 1):
            d = system.proj_dist(seq[j], seq[j - 1], seq[j + 1])
            if d < M + 3 * B:
                hyp = False
                failures.append(f"middle projection at {j} is {d} < M+3B = {M + 3*B}")
    pairwise = True
    for i in range(n):
        for k in range(i + 1, n):
            if not system.overlaps(seq[i], seq[k]):
                pairwise = False
                failures.append(f"sites {i},{k} do not overlap")
    middle = True
    if pairwise:
        for j in range(1, n - 1):
            for i in range(j):
                for k in range(j + 1, n):
                    d = system.proj_dist(seq[j], seq[i], seq[k])
                    if d < M + B:
                        middle = False
                        failures.append(f"projection d_{j}({i},{k}) = {d} < M+B")
    else:
        middle = False
    amb = [[system.ambient_dist(seq[i], seq[j]) for j in range(n)] for i in range(n)]
    monotone = True
    for i in range(n):
        for j in range(i, n):
            for k in range(j + 1, n):
                for l in range(k, n):
                    if amb[i][l] < amb[j][k]:
                        monotone = False
                        failures.append(
                            f"d({i},{l}) = {amb[i][l]} < d({j},{k}) = {amb[j][k]}")
    gaps3 = all(amb[i][i + 1] >= 3 for i in range(n - 1))
    final_ok = True
    if gaps3 and n and amb[0][n - 1] < n - 1:
        final_ok = False
        failures.append(f"d(Y_1, Y_n) = {amb[0][n-1]} < n-1 = {n-1}")
    return PersistenceReport(hyp, pairwise, middle, monotone, final_ok, failures)


class _Counted:
    """A system whose calls of one method are counted."""

    def __init__(self, system, method):
        self.system, self.calls = system, 0
        real = getattr(system, method)

        def counted(*args):
            self.calls += 1
            return real(*args)
        setattr(self, method, counted)

    def __getattr__(self, name):
        return getattr(self.system, name)


def _persistence_twins(system, seq, M, B):
    """The report of `persistence_check`, after asserting it equals the twin's
    field for field (failures in order), with one ambient distance per pair."""
    counted = _Counted(system, "ambient_dist")
    rep = persistence_check(counted, seq, M, B)
    assert rep == full_matrix_persistence_check(system, seq, M, B)
    n = len(seq)
    assert counted.calls == n * (n - 1) // 2
    return rep


class TestPersistenceSlowTwin:
    """`persistence_check` against the full-matrix twin, on sequences that
    pass and that fail each check."""

    @pytest.mark.parametrize("seed", range(3))
    def test_torus_pivot_sequences(self, torus, seed):
        rng = random.Random(seed)
        a0 = Slope(0, 1)
        failed = {"hypothesis": 0, "middle": 0, "monotone": 0, "final": 0, "passed": 0}
        for _ in range(60):
            length = rng.randrange(1, 8)
            kind = rng.randrange(3)
            if kind == 0:        # strong twists: the hypotheses hold
                seq = twist_pivot_sequence(a0, slope_at_distance(a0, 3), 12, length, rng)
            elif kind == 1:      # weak twists from a neighbour of a0
                seq = twist_pivot_sequence(a0, slope_at_distance(a0, rng.randrange(1, 4)),
                                           rng.randrange(0, 3), length, rng)
            else:                # random slopes, with repeats
                seq = [random_slope(rng, rng.choice((3, 50, 10 ** 4))) for _ in range(length)]
            M, B = rng.randrange(0, 4), rng.randrange(1, 3)
            rep = _persistence_twins(torus, seq[:length], M, B)
            failed["hypothesis"] += not rep.hypothesis_ok
            failed["middle"] += not rep.middle_bound_ok
            failed["monotone"] += not rep.monotone_ok
            failed["final"] += not rep.final_distance_ok
            failed["passed"] += rep.hypothesis_ok and rep.conclusions_ok
        assert all(failed.values()), failed

    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_sequences(self, seed):
        system = synthetic_system(7, seed=seed, threshold=3, decoys=5, block_sizes=[1, 2, 0, 1])
        rng = random.Random(seed)
        sites = system.sites()
        spine = [s for s in sites if s.startswith("Y")]
        outcomes = set()
        for _ in range(80):
            if rng.random() < 0.3:
                start = rng.randrange(len(spine))
                seq = spine[start:start + rng.randrange(1, 8)]
            else:
                seq = [rng.choice(sites) for _ in range(rng.randrange(1, 7))]
            rep = _persistence_twins(system, seq, rng.randrange(0, 3), rng.randrange(1, 3))
            outcomes.add((rep.hypothesis_ok, rep.conclusions_ok))
        assert len(outcomes) >= 3, outcomes


class TestProjectionSymmetry:
    """d_Y(a, b) is the diameter of the union of two projections, so it is
    symmetric; the Behrstock level reads one distance per site on that ground."""

    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_torus(self, torus, qmax):
        rng = random.Random(qmax)
        nonzero = checked = 0
        while checked < 400:
            site, a, b = (random_slope(rng, qmax) for _ in range(3))
            if rng.random() < 0.5:
                # twisted about the site, so the distance is large
                b = act(twist_about(site, rng.randrange(1, 12)), a)
            if not (torus.projects(site, a) and torus.projects(site, b)):
                continue
            d = torus.proj_dist(site, a, b)
            assert d == torus.proj_dist(site, b, a)
            checked += 1
            nonzero += d > 2
        assert nonzero > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_tree(self, seed):
        sys_ = synthetic_system(7, seed=seed, threshold=4, decoys=6)
        rng = random.Random(seed)
        sites = sys_.sites()
        objects = sites + sorted(sys_.tree.adj)
        nonzero = 0
        checked = 0
        while checked < 300:
            site, a, b = rng.choice(sites), rng.choice(objects), rng.choice(objects)
            if not (sys_.projects(site, a) and sys_.projects(site, b)):
                continue
            d = sys_.proj_dist(site, a, b)
            assert d == sys_.proj_dist(site, b, a)
            checked += 1
            nonzero += d > 0
        assert nonzero > 30


def randrange_random_slope(rng, qmax):
    """The `random_slope` that drew through `rng.randrange`: its slow twin."""
    while True:
        q = rng.randrange(0, qmax + 1)
        if q == 0:
            return INFINITY
        p = rng.randrange(-qmax, qmax + 1)
        if math.gcd(abs(p), q) == 1:
            return Slope(p, q)


def randrange_triples(rng, n, qmax):
    """The eager `sample_overlapping_triples` over `randrange_random_slope`:
    its slow twin."""
    twin = []
    while len(twin) < n:
        x, y, z = (randrange_random_slope(rng, qmax) for _ in range(3))
        if x != y and y != z and x != z:
            twin.append((x, y, z))
    return twin


class TestRandomSlopeSlowTwin:
    @pytest.mark.parametrize("qmax", [1, 2, 50, 200, 800, 1000, 10 ** 4, 2 ** 20])
    @pytest.mark.parametrize("seed", range(10))
    def test_draw_for_draw(self, seed, qmax):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(300):
            s = random_slope(fast, qmax)
            assert s == randrange_random_slope(slow, qmax)
            assert type(s) is Slope and Slope(s.p, s.q) == s
            # the generators stay in step, so later draws agree too
            assert fast.random() == slow.random()
        assert fast.getstate() == slow.getstate()


class TestSlopeStreamSlowTwin:
    """`random_slopes` draws only when a slope is taken: draw for draw
    against `randrange_random_slope`, with other draws from the generator
    interleaved."""

    @pytest.mark.parametrize("qmax", [1, 50, 1000, 10 ** 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_as_scan_M(self, seed, qmax):
        fast, slow = random.Random(seed), random.Random(seed)
        draw = random_slopes(fast, qmax).__next__
        for _ in range(400):
            assert draw() == randrange_random_slope(slow, qmax)
            coin = fast.random()
            assert coin == slow.random()
            if coin < 0.5:
                assert draw() == randrange_random_slope(slow, qmax)
                assert fast.randrange(1, 12) == slow.randrange(1, 12)
            else:
                assert (draw(), draw()) == (randrange_random_slope(slow, qmax),
                                            randrange_random_slope(slow, qmax))
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("qmax", [1, 2, 100, 10 ** 4])
    @pytest.mark.parametrize("n", [0, 1, 250])
    def test_triples_leave_the_generator_state(self, n, qmax):
        fast, slow = random.Random(n + qmax), random.Random(n + qmax)
        triples = list(sample_overlapping_triples(n, fast, qmax))
        assert triples == randrange_triples(slow, n, qmax)
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("qmax", [1, 100, 10 ** 4])
    @pytest.mark.parametrize("k", [0, 1, 37, 249])
    def test_a_partly_read_sample_draws_only_what_was_read(self, k, qmax):
        """The sample is lazy: after k of its 250 triples, the generator is
        where the `randrange` twin is after k triples."""
        fast, slow = random.Random(k + qmax), random.Random(k + qmax)
        taken = list(islice(sample_overlapping_triples(250, fast, qmax), k))
        assert taken == randrange_triples(slow, k, qmax)
        assert fast.getstate() == slow.getstate()
