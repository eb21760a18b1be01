"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible even under pytest capture).  Empirical constants
are estimated once per session with fixed seeds; all sampled scans are
deterministic.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from rgflab.farey import (INFINITY, BfsOracle, MappingClass, Slope, act,
                          annular_distance, bounded_vertices, farey_distance,
                          farey_geodesic, twist_about)
from rgflab.hypgraph import (FareyOracle, check_local_to_global, estimate_delta,
                             gromov_product, point_to_path_distance)
from rgflab.projections import (TorusAnnuli, behrstock_scan, persistence_check,
                                general_persistence_check, random_slope,
                                sample_overlapping_triples, synthetic_system,
                                twist_pivot_sequence)
from rgflab.raag import PresentationGraph, components, normal_form
from rgflab.subgroups import MatrixGroup
from rgflab.bassserre import (FactorSpec, build_ball, free_product_check,
                              loxodromic_scan, qi_certificate,
                              random_alternating_word, word_matrix)
from rgflab.constructions import (conjugate_twist_family, slope_at_distance,
                                  twist_orbit_family)
from rgflab.cli import main
from oracles import concat, cycle_oracle, inverse_word, random_rewrite, random_tree


def report(number: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def torus():
    return TorusAnnuli()


@pytest.fixture(scope="module")
def delta_emp():
    """Four-point constant from denominator-bounded balls around infinity,
    accepted because radius 3 and radius 4 agree within one."""
    oracle = FareyOracle()
    values = []
    dist = BfsOracle(12).distances_from(INFINITY)
    for radius in (3, 4):
        ball = sorted((v for v, d in dist.items() if d <= radius),
                      key=lambda s: (dist[s], s.q, s.p))[:34]
        values.append(estimate_delta(ball, oracle).delta)
    assert abs(values[0] - values[1]) <= 1
    return max(values)


@pytest.fixture(scope="module")
def torus_constants():
    from rgflab.projections import estimate_constants
    est = estimate_constants(seed=0, n_triples=1500, n_geodesics=400, qmax=1000)
    assert est.M_emp is not None and est.B_emp is not None
    return est


def test_01_farey_exactness():
    t0 = time.time()
    verts = bounded_vertices(21)
    oracles = (BfsOracle(42), BfsOracle(84))
    mismatches = 0
    pairs = 0
    for i, a in enumerate(verts):
        d1 = oracles[0].distances_from(a)
        d2 = oracles[1].distances_from(a)
        for b in verts[i + 1:]:
            pairs += 1
            stable = d1.get(b) == d2.get(b)
            if not stable or farey_distance(a, b) != d1[b]:
                mismatches += 1
    elapsed = time.time() - t0
    report(1, mismatches == 0 and elapsed < 120,
           f"{pairs} slope pairs vs stabilized BFS oracle, "
           f"{mismatches} mismatches, {elapsed:.1f}s (< 120s)")


def test_02_hyperbolicity_toolkit(delta_emp):
    oracle = FareyOracle()
    tree_failures = sum(
        1 for seed in range(50)
        if estimate_delta(random_tree(10, seed).points(), random_tree(10, seed)).delta != 0)
    c4 = cycle_oracle(4)
    c4_ok = estimate_delta(c4.points(), c4).delta == 1

    rng = random.Random(2024)
    stability_viol = 0
    sandwich_viol = 0
    samples = 0
    while samples < 10 ** 4:
        x, y, z, w = (random_slope(rng, 300) for _ in range(4))
        if len({x, y, z}) < 3:
            continue
        samples += 1
        lhs = abs(gromov_product(y, x, z, oracle) - gromov_product(x, w, z, oracle))
        if lhs > farey_distance(y, w):
            stability_viol += 1
        path = farey_geodesic(x, y)
        dz = point_to_path_distance(z, path, oracle)
        gp = gromov_product(x, y, z, oracle)
        if not (dz - 4 * delta_emp <= gp <= dz):
            sandwich_viol += 1
    ok = tree_failures == 0 and c4_ok and stability_viol == 0 and sandwich_viol == 0
    report(2, ok,
           f"50 trees delta=0 ({tree_failures} failures), 4-cycle delta=1 ({c4_ok}), "
           f"10^4 triples at delta_emp={delta_emp}: {stability_viol} stability / "
           f"{sandwich_viol} sandwich violations")


def test_03_local_to_global(delta_emp):
    t0 = time.time()

    class DistOnly:
        def dist(self, a, b):
            return farey_distance(a, b)

    oracle = DistOnly()
    A = Fraction(1)
    threshold = 4 * A + 24 * delta_emp
    gap = int(threshold) + 2
    rng = random.Random(7)
    base = Slope(0, 1)
    start = slope_at_distance(base, gap)
    hypothesis_failures = 0
    conclusion_failures = 0
    for _ in range(10 ** 3):
        length = rng.randrange(2, 6)
        chain = twist_pivot_sequence(base, start, 12, length, rng)
        rep = check_local_to_global(chain, A, delta_emp, oracle)
        if not rep.hypothesis_ok:
            hypothesis_failures += 1
        elif not rep.conclusion_ok:
            conclusion_failures += 1
    elapsed = time.time() - t0
    report(3, hypothesis_failures == 0 and conclusion_failures == 0 and elapsed < 60,
           f"10^3 chains at (A=1, delta_emp={delta_emp}), gaps > {threshold}: "
           f"{hypothesis_failures} hypothesis / {conclusion_failures} conclusion "
           f"failures, {elapsed:.1f}s (< 60s)")


def test_04_twist_translation():
    rng = random.Random(11)
    violations = 0
    checked = 0
    for _ in range(10 ** 3):
        alpha = random_slope(rng, 60)
        beta = random_slope(rng, 60)
        if beta == alpha:
            continue
        for n in range(1, 101):
            checked += 1
            d = annular_distance(alpha, act(twist_about(alpha, n), beta), beta)
            if d < n:
                violations += 1
    report(4, violations == 0,
           f"{checked} twist-translation checks (n <= 100), {violations} below |n| "
           f"(c = 1 exactly)")


def test_05_behrstock_scan(torus):
    sample1 = sample_overlapping_triples(10 ** 5, random.Random(21), qmax=10 ** 4)
    rep1 = behrstock_scan(torus, sample1, B=10)
    b_emp = rep1.B_emp
    sample2 = sample_overlapping_triples(10 ** 5, random.Random(22), qmax=10 ** 4)
    rep2 = behrstock_scan(torus, sample2, B=b_emp)
    ok = len(rep2.violations) == 0
    report(5, ok,
           f"B_emp={b_emp} on 10^5 triples; fresh 10^5 sample: "
           f"{len(rep2.violations)} violations at B_emp "
           f"(reference constant for genuine subsurface projections: B=10, "
           f"{len(rep1.violations)} violations observed at it)")


def test_06_persistence(torus, torus_constants):
    M, B = torus_constants.M_emp, torus_constants.B_emp
    strength = M + 3 * B + 1
    rng = random.Random(31)
    base = Slope(0, 1)
    start = slope_at_distance(base, 3)
    torus_viol = 0
    for _ in range(200):
        length = rng.randrange(3, 11)
        seq = twist_pivot_sequence(base, start, strength, length, rng)
        rep = persistence_check(torus, seq, M=M, B=B)
        if not rep.hypothesis_ok or not rep.conclusions_ok:
            torus_viol += 1
    synth_viol = 0
    for seed in range(200):
        blocks = [0 if seed % 3 else 1] * 6
        sys_ = synthetic_system(6, seed=seed, threshold=7, block_sizes=blocks)
        seq = []
        for i in range(6):
            seq.append(f"Y{i}")
            if f"B{i}.0" in sys_.positions:
                seq.append(f"B{i}.0")
        rep = general_persistence_check(sys_, seq, M=0, B=1)
        if not (rep.hypothesis_ok and rep.interior_bound_ok
                and rep.chained.hypothesis_ok and rep.chained.conclusions_ok):
            synth_viol += 1
    report(6, torus_viol == 0 and synth_viol == 0,
           f"200 torus sequences at M+3B={M + 3 * B} and 200 synthetic systems at "
           f"M+6B: {torus_viol}/{synth_viol} violations (incl. d(Y_1,Y_n) >= n-1)")


def test_07_raag_normal_form():
    rng = random.Random(41)
    confluence_viol = 0
    inverse_viol = 0
    for _ in range(10 ** 4):
        n = rng.randrange(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = PresentationGraph.of(n, edges)
        w = tuple((rng.randrange(n), rng.choice([-2, -1, 1, 2]))
                  for _ in range(rng.randrange(0, 11)))
        nf = normal_form(g, w)
        if random_rewrite(g, w, rng) != nf:
            confluence_viol += 1
        if normal_form(g, concat(w, inverse_word(w))) != ():
            inverse_viol += 1
    comp_viol = 0
    for _ in range(10 ** 3):
        n = rng.randrange(1, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = PresentationGraph.of(n, edges)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            parent[find(i)] = find(j)
        groups = {}
        for v in range(n):
            groups.setdefault(find(v), set()).add(v)
        expected = sorted((frozenset(s) for s in groups.values()), key=min)
        if components(g) != expected:
            comp_viol += 1
    report(7, confluence_viol == 0 and inverse_viol == 0 and comp_viol == 0,
           f"10^4 words: {confluence_viol} confluence / {inverse_viol} inverse "
           f"failures; 10^3 graphs: {comp_viol} component mismatches vs union-find")


@pytest.fixture(scope="module")
def prop91_window5(torus_constants):
    return twist_orbit_family(20, window=5, M_emp=torus_constants.M_emp)


def test_08_twist_orbit_reproduction(prop91_window5):
    tw = prop91_window5
    dprime = tw.dprime
    seps = [tw.separation.matrix[i][j]
            for i in range(5) for j in range(i + 1, 5)]
    window_ok = all(2 * dprime - 6 <= d <= 2 * dprime + 4 for d in seps)
    mis_ok = tw.misalignment.minimum >= dprime - 8
    report(8, window_ok and mis_ok,
           f"D'=20 window {{-2..2}}: separations in [{min(seps)}, {max(seps)}] "
           f"within [34, 44]; misalignment min {tw.misalignment.minimum} >= 12")


def test_09_embedding_pipeline(torus_constants):
    t0 = time.time()
    tw = twist_orbit_family(20, window=3, M_emp=torus_constants.M_emp,
                            factor_budget=2)
    factors = tw.family.factors
    fp = free_product_check(factors, budget=8)
    ball = build_ball(factors, radius=6)
    qi = qi_certificate(ball)
    rng = random.Random(51)
    words = []
    while len(words) < 100:
        w = random_alternating_word(factors, rng)
        from rgflab.bassserre import cyclically_reduce
        if len(cyclically_reduce(w)) >= 2:
            words.append(w)
    lox = loxodromic_scan(words)
    elapsed = time.time() - t0
    ok = (fp.no_relation and qi.benchmark_ok and lox.checked == 100
          and lox.all_loxodromic and elapsed < 600)
    report(9, ok,
           f"3-factor family: no relation to syllable budget 8 "
           f"({fp.words_checked} words); d_S >= d_T/2 - 4 on {len(qi.pairs)} "
           f"type-1 pairs of the radius-6 ball; 100/100 mixed words "
           f"pseudo-Anosov; {elapsed:.1f}s (< 600s)")


def test_10_conjugate_twist_reproduction(torus_constants):
    cf = conjugate_twist_family(10, M_emp=torus_constants.M_emp)
    witness_ok = (cf.relation_found and len(cf.relation_witness) <= 6
                  and word_matrix(cf.relation_witness).is_identity())
    mis_ok = (not cf.misalignment.ok) and cf.misalignment.minimum <= 3
    report(10, cf.separation.ok and mis_ok and witness_ok,
           f"triple at D=10: separation min {cf.separation.minimum} >= 10; "
           f"misalignment min {cf.misalignment.minimum} <= 3 fails A=2; relation "
           f"witness of {len(cf.relation_witness)} syllables (<= 6)")


def test_11_algebra_anchors():
    free_a = FactorSpec("A", MatrixGroup.of(MappingClass(1, 2, 0, 1)), budget=5)
    free_b = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 2, 1)), budget=5)
    sanov = free_product_check([free_a, free_b], budget=10)

    full_a = FactorSpec("A", MatrixGroup.of(MappingClass(1, 1, 0, 1)), budget=6)
    full_b = FactorSpec("B", MatrixGroup.of(MappingClass(1, 0, 1, 1)), budget=6)
    rel = free_product_check([full_a, full_b], budget=12)
    letters = None
    if rel.witness is not None:
        letters = sum(max(abs(m.projective_key()[1]), abs(m.projective_key()[2]))
                      for _, m in rel.witness)
    ok = sanov.no_relation and not rel.no_relation and letters is not None \
        and letters <= 12 and word_matrix(rel.witness).is_identity()
    report(11, ok,
           f"shear pair (e=2): no relation to budget 10 ({sanov.words_checked} "
           f"words); full-twist pair: relation witness with {letters} letters (<= 12)")


def test_12_determinism(tmp_path):
    runs = {
        "prop91": ["experiment", "prop91", "--dprime", "12", "--window", "3",
                   "--radius", "2", "--seed", "7"],
        "example92": ["experiment", "example92", "--D", "8", "--seed", "7"],
        "constants": ["constants", "estimate", "--triples", "200",
                      "--geodesics", "100", "--qmax", "200", "--seed", "7"],
        "delta": ["delta-estimate", "--points", "12", "--qmax", "15", "--seed", "7"],
    }
    mismatched = []
    for name, argv in runs.items():
        outputs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}.{run_idx}.jsonl"
            main(argv + ["--output", str(out)])
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    report(12, not mismatched,
           f"{len(runs)} experiments re-run with fixed seeds: byte-identical "
           f"JSON-lines output" + (f" (mismatched: {mismatched})" if mismatched else ""))
