import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rgflab.raag import (AbstractFamily, BOUNDARY_ANNULUS, DISJOINT, NESTED,
                         OVERLAP, PresentationGraph, admissibility_check,
                         components, concat, inverse_word, letters_overlap,
                         nearest_overlaps, normal_form, power_threshold,
                         random_rewrite, rewrite_moves, support_bookkeeping,
                         word)


def random_graph(rng, max_n=6, p=0.5):
    n = rng.randrange(2, max_n + 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return PresentationGraph.of(n, edges)


def random_word(rng, n, max_len=10):
    return tuple((rng.randrange(n), rng.choice([-2, -1, 1, 2]))
                 for _ in range(rng.randrange(0, max_len)))


class TestNormalForm:
    def test_zero_syllable(self):
        g = PresentationGraph.of(2, [])
        assert normal_form(g, word((0, 0), (1, 1))) == ((1, 1),)

    def test_merge(self):
        g = PresentationGraph.of(1, [])
        assert normal_form(g, word((0, 1), (0, 2))) == ((0, 3),)

    def test_commuting_order(self):
        g = PresentationGraph.of(2, [(0, 1)])
        assert normal_form(g, word((1, 1), (0, 1))) == ((0, 1), (1, 1))

    def test_non_commuting_stays(self):
        g = PresentationGraph.of(2, [])
        w = word((1, 1), (0, 1))
        assert normal_form(g, w) == w

    def test_hidden_merge_through_commuting_block(self):
        # edges 0-1 and 1-2: the two x1 syllables merge across x2 x0
        g = PresentationGraph.of(3, [(0, 1), (1, 2)])
        nf = normal_form(g, word((1, 1), (2, 1), (0, 1), (1, 1)))
        assert nf == normal_form(g, word((2, 1), (0, 1), (1, 2)))
        assert sum(1 for gen, _ in nf if gen == 1) == 1

    def test_invalid_generator(self):
        g = PresentationGraph.of(2, [])
        with pytest.raises(ValueError):
            normal_form(g, word((5, 1)))

    def test_invalid_generator_named_one_based(self):
        # generator index 2 is printed x3, as in the CLI's words
        with pytest.raises(ValueError, match=r"^generator x3 outside graph with 2 vertices$"):
            normal_form(PresentationGraph.of(2, []), word((2, 1)))

    def test_idempotent_and_inverse(self):
        rng = random.Random(0)
        for _ in range(400):
            g = random_graph(rng)
            w = random_word(rng, g.n)
            nf = normal_form(g, w)
            assert normal_form(g, nf) == nf
            assert normal_form(g, concat(w, inverse_word(w))) == ()

    def test_homomorphism(self):
        rng = random.Random(1)
        for _ in range(300):
            g = random_graph(rng)
            u, v = random_word(rng, g.n, 6), random_word(rng, g.n, 6)
            direct = normal_form(g, concat(u, v))
            via_nf = normal_form(g, concat(normal_form(g, u), normal_form(g, v)))
            assert direct == via_nf

    def test_confluence_random_schedules(self):
        rng = random.Random(2)
        for _ in range(500):
            g = random_graph(rng)
            w = random_word(rng, g.n)
            nf = normal_form(g, w)
            assert random_rewrite(g, w, rng) == nf
            assert random_rewrite(g, w, rng) == nf

    def test_normal_form_admits_no_moves(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng)
            nf = normal_form(g, random_word(rng, g.n))
            assert rewrite_moves(g, nf) == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_normal_form_respects_adjacent_ordering(self, data):
        n = data.draw(st.integers(2, 6))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1])))
        g = PresentationGraph.of(n, edges)
        w = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1),
                      st.integers(-3, 3).filter(bool)), max_size=10))
        nf = normal_form(g, tuple(w))
        for (g1, e1), (g2, e2) in zip(nf, nf[1:]):
            assert e1 != 0 and g1 != g2
            if g.commute(g1, g2):
                assert g1 < g2


def sorted_list_normal_form(graph, w):
    """Slow twin of `normal_form`: every commutation is a `graph.commute`
    call, and the available syllables are a sorted list, popped at the head
    and inserted by linear scan."""
    graph.check_word(w)
    reduced = []
    for g, e in w:
        if e == 0:
            continue
        j = len(reduced) - 1
        while j >= 0:
            gj, ej = reduced[j]
            if gj == g:
                if ej + e == 0:
                    reduced.pop(j)
                else:
                    reduced[j] = (g, ej + e)
                break
            if not graph.commute(gj, g):
                j = -1
                break
            j -= 1
        else:
            j = -1
        if j < 0:
            reduced.append((g, e))
    m = len(reduced)
    preds = [0] * m
    succs = [[] for _ in range(m)]
    for i in range(m):
        gi = reduced[i][0]
        for j in range(i + 1, m):
            gj = reduced[j][0]
            if gi == gj or not graph.commute(gi, gj):
                preds[j] += 1
                succs[i].append(j)
    out = []
    avail = sorted((reduced[i][0], i) for i in range(m) if preds[i] == 0)
    while avail:
        _, i = avail.pop(0)
        out.append(reduced[i])
        for j in succs[i]:
            preds[j] -= 1
            if preds[j] == 0:
                gi = reduced[j][0]
                k = 0
                while k < len(avail) and avail[k] < (gi, j):
                    k += 1
                avail.insert(k, (gi, j))
    return tuple(out)


class TestNormalFormSlowTwin:
    def test_matches_sorted_list_oracle(self):
        rng = random.Random(5)
        graphs = [PresentationGraph.of(1, []), PresentationGraph.of(5, []),
                  PresentationGraph.of(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])]
        graphs += [random_graph(rng, max_n=8, p=p) for p in (0.2, 0.5, 0.8) for _ in range(8)]
        checked = 0
        for g in graphs:
            assert normal_form(g, ()) == sorted_list_normal_form(g, ()) == ()
            for _ in range(80):
                w = tuple((rng.randrange(g.n), rng.choice((-2, -1, 0, 1, 2)))
                          for _ in range(rng.randrange(0, 30)))
                assert normal_form(g, w) == sorted_list_normal_form(g, w)
                checked += 1
        assert checked >= 2000

    def test_zero_exponents_and_no_vertices(self):
        g = PresentationGraph.of(3, [(0, 2)])
        w = word((0, 0), (2, 0), (1, 0))
        assert normal_form(g, w) == sorted_list_normal_form(g, w) == ()
        assert normal_form(PresentationGraph.of(0, []), ()) == ()


class TestPresentationGraph:
    def test_commute_truth_table(self):
        g = PresentationGraph.of(4, [(2, 0), (1, 3)])
        assert g.commute(0, 2) and g.commute(2, 0)
        assert g.commute(1, 3) and g.commute(3, 1)
        assert not g.commute(0, 1) and not g.commute(1, 0)
        assert not any(g.commute(i, i) for i in range(4))
        assert not g.commute(-1, 2) and not g.commute(2, -1) and not g.commute(-2, 0)
        assert not g.commute(0, 4) and not g.commute(4, 0) and not g.commute(2, 99)

    def test_neighbours_match_commute(self):
        rng = random.Random(6)
        for _ in range(50):
            g = random_graph(rng, max_n=8)
            for i in range(g.n):
                assert g.neighbours[i] == {j for j in range(g.n) if g.commute(i, j)}

    def test_neighbours_leave_equality_hash_and_repr(self):
        g = PresentationGraph.of(3, [(0, 1)])
        before = repr(g)
        assert g.neighbours == (frozenset({1}), frozenset({0}), frozenset())
        fresh = PresentationGraph.of(3, [(1, 0)])
        assert repr(g) == before == repr(fresh)
        assert g == fresh and hash(g) == hash(fresh)


class TestComponents:
    def test_edgeless(self):
        assert components(PresentationGraph.of(3, [])) == [
            frozenset({0}), frozenset({1}), frozenset({2})]

    def test_complete(self):
        g = PresentationGraph.of(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert components(g) == [frozenset(range(4))]

    def test_against_union_find(self):
        rng = random.Random(4)
        for _ in range(300):
            g = random_graph(rng, max_n=8, p=0.3)
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j in g.edges:
                parent[find(i)] = find(j)
            want = {}
            for v in range(g.n):
                want.setdefault(find(v), set()).add(v)
            expected = sorted((frozenset(s) for s in want.values()), key=min)
            assert components(g) == expected


class TestAdmissibility:
    def test_all_disjoint(self):
        fam = AbstractFamily.of(3, {(0, 1): DISJOINT, (0, 2): DISJOINT, (1, 2): DISJOINT})
        assert admissibility_check(fam) == (True, None)

    def test_nested_pair_reported(self):
        fam = AbstractFamily.of(3, {(0, 1): NESTED, (0, 2): DISJOINT, (1, 2): OVERLAP})
        ok, pair = admissibility_check(fam)
        assert not ok and pair == (0, 1)

    def test_boundary_annulus_rejected(self):
        fam = AbstractFamily.of(2, {(0, 1): BOUNDARY_ANNULUS})
        assert admissibility_check(fam)[0] is False

    def test_all_overlapping_torus_style(self):
        fam = AbstractFamily.of(4, {(i, j): OVERLAP for i in range(4) for j in range(i + 1, 4)})
        assert admissibility_check(fam) == (True, None)
        assert fam.realization_graph().edges == frozenset()


def random_decompositions(rng, count):
    """Up to `count` random (graph, parts, subwords) for `support_bookkeeping`:
    parts are blocks of a random graph with no edges between them."""
    for _ in range(count):
        # parts = components of a random graph grouped into >= 2 blocks
        n = rng.randrange(3, 7)
        comps = []
        v = 0
        while v < n:
            size = min(n - v, rng.randrange(1, 3))
            comps.append(list(range(v, v + size)))
            v += size
        if len(comps) < 2:
            continue
        edges = []
        for block in comps:
            for i in block:
                for j in block:
                    if i < j and rng.random() < 0.6:
                        edges.append((i, j))
        g = PresentationGraph.of(n, edges)
        subwords = []
        last = None
        for _ in range(rng.randrange(1, 5)):
            k = rng.choice([i for i in range(len(comps)) if i != last])
            block = comps[k]
            w = tuple((rng.choice(block), rng.choice([-2, -1, 1, 2]))
                      for _ in range(rng.randrange(1, 5)))
            if not normal_form(g, w):
                continue
            subwords.append((k, w))
            last = k
        if not subwords:
            continue
        yield g, comps, subwords


class TestSupportBookkeeping:
    def test_single_subword(self):
        g = PresentationGraph.of(3, [(0, 1)])
        bk = support_bookkeeping(g, [[0, 1, 2]], [(0, word((0, 1), (2, 1), (1, -1)))])
        assert bk.sigma == [0]
        assert bk.claim_ok

    def test_two_free_parts(self):
        g = PresentationGraph.of(4, [])
        bk = support_bookkeeping(
            g, [[0, 1], [2, 3]],
            [(0, word((0, 1))), (1, word((2, 2))), (0, word((1, -1)))])
        assert bk.iota == [None, 0, 1]
        assert bk.tau == [1, 2, None]
        assert bk.claim_ok

    def test_alternation_enforced(self):
        g = PresentationGraph.of(2, [])
        with pytest.raises(ValueError):
            support_bookkeeping(g, [[0], [1]],
                                [(0, word((0, 1))), (0, word((0, 1)))])

    def test_wrong_part_named_one_based(self):
        g = PresentationGraph.of(2, [])
        with pytest.raises(ValueError, match=r"^generator x2 not in part 0$"):
            support_bookkeeping(g, [[0], [1]], [(0, word((1, 1)))])

    def test_cross_edges_rejected(self):
        g = PresentationGraph.of(2, [(0, 1)])
        with pytest.raises(ValueError):
            support_bookkeeping(g, [[0], [1]], [(0, word((0, 1)))])

    def test_randomized_claim_holds(self):
        for g, comps, subwords in random_decompositions(random.Random(5), 400):
            bk = support_bookkeeping(g, comps, subwords)
            assert bk.claim_ok, (g.edges, subwords, bk.violations)

    def test_letters_between_nearest_overlaps_share_the_subword(self):
        # why no letter of another subword can sit strictly between iota(j)
        # and tau(j): letters of consecutive subwords always overlap
        for g, comps, subwords in random_decompositions(random.Random(7), 400):
            bk = support_bookkeeping(g, comps, subwords)
            owner = [bisect_right(bk.sigma, t) - 1 for t in range(len(bk.nu))]
            for s in range(1, len(bk.sigma)):
                for t in range(bk.sigma[s - 1], bk.sigma[s]):
                    for u in range(bk.sigma[s], len(bk.nu)):
                        if owner[u] == s:
                            assert letters_overlap(g, bk.nu[t], bk.nu[u])
            for j in range(len(bk.nu)):
                lo = -1 if bk.iota[j] is None else bk.iota[j]
                hi = len(bk.nu) if bk.tau[j] is None else bk.tau[j]
                assert all(owner[t] == owner[j] for t in range(lo + 1, hi)), (subwords, j)


    def test_iota_tau_brute_force(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randrange(1, 9)
            table = [[False] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    table[i][j] = table[j][i] = rng.random() < 0.5
            iota, tau = nearest_overlaps(n, lambda i, j: table[i][j])
            for j in range(n):
                before = [t for t in range(j) if table[j][t]]
                after = [t for t in range(j + 1, n) if table[j][t]]
                assert iota[j] == (max(before) if before else None)
                assert tau[j] == (min(after) if after else None)


class TestPowerThreshold:
    def test_formula(self):
        assert power_threshold(1, 10, 5, 3) == 43

    def test_scaling(self):
        assert power_threshold(2, 10, 5, 3) == Fraction(43, 2)
        assert power_threshold(1, 10, 5, 3) == 2 * power_threshold(2, 10, 5, 3)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            power_threshold(0, 1, 1, 1)
