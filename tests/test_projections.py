import math
import random

import pytest

from rgflab.farey import INFINITY, EmptyProjectionError, Slope, act, farey_distance, \
    farey_geodesic, twist_about
from rgflab.constructions import slope_at_distance
from rgflab.raag import nearest_overlaps
from rgflab.projections import (BehrstockReport, BgitReport, OverlapError,
                                PersistenceReport, TorusAnnuli,
                                behrstock_scan, bgit_scan,
                                estimate_constants, general_persistence_check,
                                persistence_check, random_slope, random_slopes,
                                sample_overlapping_triples, synthetic_system,
                                twist_pivot_sequence)


@pytest.fixture(scope="module")
def torus():
    return TorusAnnuli()


class TestTorusSystem:
    def test_overlap_is_intersection(self, torus):
        assert torus.overlaps(INFINITY, Slope(0, 1))
        assert not torus.overlaps(INFINITY, INFINITY)

    def test_projection_diameter_at_most_one(self, torus):
        rng = random.Random(0)
        for _ in range(200):
            site, obj = random_slope(rng, 30), random_slope(rng, 30)
            if site == obj:
                continue
            assert torus.path_diam(site, [obj]) <= 1

    @pytest.mark.parametrize("path", [[Slope(0, 1)], []], ids=["only-the-site", "empty"])
    def test_path_diam_of_nothing_projecting(self, torus, path):
        with pytest.raises(EmptyProjectionError):
            torus.path_diam(Slope(0, 1), path)

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
    def test_precondition(self, torus):
        with pytest.raises(OverlapError):
            behrstock_scan(torus, [(INFINITY, INFINITY, Slope(0, 1))])

    def test_torus_scan_records_bemp(self, torus):
        rng = random.Random(2)
        triples = sample_overlapping_triples(500, rng, qmax=200)
        rep = behrstock_scan(torus, triples, B=10)
        assert rep.scanned == 500
        assert not rep.violations
        assert 1 <= rep.B_emp <= 10
        fresh = sample_overlapping_triples(500, random.Random(3), qmax=200)
        assert not behrstock_scan(torus, fresh, B=rep.B_emp).violations

    def test_synthetic_by_construction(self):
        sys_ = synthetic_system(7, seed=0, threshold=5)
        sites = [s for s in sys_.sites() if s.startswith("Y")]
        triples = [(sites[i], sites[j], sites[k])
                   for i in range(5) for j in range(i + 1, 6) for k in range(j + 1, 7)]
        rep = behrstock_scan(sys_, triples, B=1)
        assert not rep.violations and rep.B_emp == 1


class TestBgit:
    def test_link_geodesic(self, torus):
        rep = bgit_scan(torus, INFINITY, [Slope(0, 1), Slope(1, 1), Slope(2, 1)])
        assert rep.all_project and rep.diameter == 2

    def test_core_fails_to_project(self, torus):
        rep = bgit_scan(torus, Slope(1, 1), [Slope(0, 1), Slope(1, 1), Slope(2, 1)])
        assert not rep.all_project and rep.witness == Slope(1, 1)

    def test_requires_geodesic(self, torus):
        with pytest.raises(ValueError):
            bgit_scan(torus, INFINITY, [Slope(0, 1), Slope(5, 8)])

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
            rep = bgit_scan(torus, site, farey_geodesic(base, far))
            assert not rep.all_project and rep.witness == site
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
            assert rep.gaps_at_least_3 and rep.final_distance_ok

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
        assert rep.hypothesis_ok and rep.conclusions_ok and rep.gaps_at_least_3
        assert rep.failures == [] and rep.worst_triple is None

    def test_repeated_slope_does_not_overlap(self, torus):
        rep = persistence_check(torus, [INFINITY, INFINITY, Slope(0, 1)], M=3, B=2)
        assert not rep.hypothesis_ok
        assert not rep.pairwise_overlap_ok and not rep.middle_bound_ok
        assert rep.worst_triple is None
        assert rep.failures == ["consecutive sites 0,1 do not overlap",
                                "sites 0,1 do not overlap"]

    def test_middle_projection_below_M_plus_B(self, torus):
        # a Farey triangle: 1/0 and 1/1 project one apart to the link of 0/1
        rep = persistence_check(torus, [INFINITY, Slope(0, 1), Slope(1, 1)], M=3, B=2)
        assert rep.pairwise_overlap_ok and not rep.middle_bound_ok
        assert rep.monotone_ok and not rep.gaps_at_least_3
        assert rep.worst_triple == (0, 1, 2)
        assert rep.failures == ["middle projection at 1 is 1 < M+3B = 9",
                                "projection d_1(0,2) = 1 < M+B"]

    def test_final_distance_under_separated_gaps(self, torus):
        seq = [Slope(0, 1), Slope(-8, 5), INFINITY]
        assert [farey_distance(u, v) for u, v in zip(seq, seq[1:])] == [3, 3]
        rep = persistence_check(torus, seq, M=0, B=1)
        assert rep.gaps_at_least_3 and not rep.final_distance_ok
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
        assert est.B_emp >= 1
        assert est.M_emp is not None and est.M_emp >= 2
        assert est.samples["B"][0] >= 1

    def test_synthetic_constants_below_declared(self):
        sys_ = synthetic_system(6, seed=1, threshold=4)
        sites = [s for s in sys_.sites() if s.startswith("Y")]
        triples = [(a, b, c) for a in sites for b in sites for c in sites
                   if len({a, b, c}) == 3][:200]
        rep = behrstock_scan(sys_, triples, B=1)
        assert rep.B_emp <= 1


def pairwise_bgit_scan(system, site, geodesic):
    """The O(L^2) `bgit_scan` that `path_diam` replaced: its slow twin."""
    path = list(geodesic)
    for u, v in zip(path, path[1:]):
        if system.ambient_dist(u, v) != 1:
            raise ValueError("input sequence is not an ambient geodesic")
    if len(path) >= 2 and system.ambient_dist(path[0], path[-1]) != len(path) - 1:
        raise ValueError("input sequence is not distance-realizing")
    for v in path:
        if not system.projects(site, v):
            return BgitReport(False, None, v)
    diam = 0
    for i in range(len(path)):
        for j in range(i, len(path)):
            d = system.proj_dist(site, path[i], path[j])
            if d > diam:
                diam = d
    return BgitReport(True, diam)


def nine_call_behrstock_scan(system, triples, B=None):
    """The `behrstock_scan` that made 9 distance calls per triple, three of
    them repeats: its slow twin."""
    violations = []
    worst = 0
    count = 0
    for triple in triples:
        x, y, z = triple
        for u, v in ((x, y), (y, z), (x, z)):
            if not system.overlaps(u, v):
                raise OverlapError(f"sites {u!r}, {v!r} do not overlap")
        count += 1
        for mid, o1, o2 in ((y, x, z), (x, y, z), (z, x, y)):
            d_mid = system.proj_dist(mid, o1, o2)
            d_max = max(system.proj_dist(o1, mid, o2), system.proj_dist(o2, mid, o1))
            level = min(d_mid, d_max)
            if level > worst:
                worst = level
            if B is not None and d_mid >= B and d_max >= B:
                violations.append((triple, mid, d_mid, d_max))
    return BehrstockReport(count, violations, worst + 1)


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
            path = farey_geodesic(base, far)
            rep = bgit_scan(torus, site, path)
            assert rep == pairwise_bgit_scan(torus, site, path)
            projecting += rep.all_project
        assert projecting > 100
        assert bgit_scan(torus, INFINITY, []) == pairwise_bgit_scan(torus, INFINITY, [])

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
            rep = bgit_scan(fast, site, path)
            assert rep == pairwise_bgit_scan(slow, site, path)
            # a tree geodesic that misses the unit ball leaves in one direction
            assert rep.diameter in (None, 0)
            projecting += rep.all_project
        assert projecting > 60
        # the scans leave both systems with the same hidden coordinates
        assert {v: list(c.items()) for v, c in fast.link_coords.items()} \
            == {v: list(c.items()) for v, c in slow.link_coords.items()}


class TestBehrstockSlowTwin:
    @pytest.mark.parametrize("qmax", [10, 100, 10 ** 4])
    def test_torus(self, torus, qmax):
        triples = sample_overlapping_triples(400, random.Random(qmax), qmax=qmax)
        for B in (None, 1, 2, 3):
            assert behrstock_scan(torus, triples, B=B) == nine_call_behrstock_scan(torus, triples, B)

    def test_torus_overlap_error(self, torus):
        triples = [(Slope(0, 1), Slope(1, 2), Slope(3, 1)), (INFINITY, Slope(0, 1), INFINITY)]
        assert _outcome(behrstock_scan, torus, triples) \
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
        assert _outcome(behrstock_scan, torus, triples) \
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
        for B in (None, 1, 2, 4):
            assert behrstock_scan(fast, triples, B=B) == nine_call_behrstock_scan(slow, triples, B)


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
    worst = None
    worst_val = None
    if pairwise:
        for j in range(1, n - 1):
            for i in range(j):
                for k in range(j + 1, n):
                    d = system.proj_dist(seq[j], seq[i], seq[k])
                    if worst_val is None or d < worst_val:
                        worst_val, worst = d, (i, j, k)
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
    return PersistenceReport(hyp, pairwise, middle, monotone, gaps3, final_ok, worst, failures)


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
    symmetric; `behrstock_scan` reads one distance per site on that ground."""

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
        triples = sample_overlapping_triples(n, fast, qmax)
        twin = []
        while len(twin) < n:
            x, y, z = (randrange_random_slope(slow, qmax) for _ in range(3))
            if x != y and y != z and x != z:
                twin.append((x, y, z))
        assert triples == twin
        assert fast.getstate() == slow.getstate()
