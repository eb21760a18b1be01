"""Projection systems and the axioms that power distance estimates: the
Behrstock inequality, bounded geodesic images, and the two projection
persistence arguments.

A system exposes sites, a symmetric irreflexive overlap relation, projection
distances between objects at a site, and an ambient metric on objects.  The
projection distance d_Y(a, b) is the diameter of the union of the two
projections, so it is symmetric in a and b.  A site is itself an object, so
the checks pass sites straight to `proj_dist` and `ambient_dist`.  The
instance is the annuli in the Farey graph, whose sites and objects are
slopes: `persistence_check` takes any system, the two scans read the Farey
arithmetic in place.  All checks take thresholds (M, B) explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import farey
from .farey import Slope, act, twist_about


class OverlapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Torus instance: sites are annuli about slopes.


class TorusAnnuli:
    """Annular projection system of the once-punctured torus.

    Sites are slopes; every pair of distinct slopes overlaps.  Objects are
    slopes too, since a curve system on the punctured torus is one curve, and
    a site is the object of its core curve.
    """

    def overlaps(self, y: Slope, z: Slope) -> bool:
        return y != z

    def projects(self, site: Slope, obj: Slope) -> bool:
        return obj != site

    def proj_dist(self, site: Slope, a: Slope, b: Slope) -> int:
        return farey.annular_distance(site, a, b)

    def ambient_dist(self, a: Slope, b: Slope) -> int:
        return farey.slope_set_distance(a, b)


# ---------------------------------------------------------------------------
# Scans and checks.


@dataclass
class BehrstockReport:
    scanned: int
    B_emp: int


def behrstock_scan(triples) -> BehrstockReport:
    """Scan pairwise-overlapping (distinct) slope triples for the
    one-large-projection law.

    A triple violates level b when some arrangement has d_Y(X, Z) >= b and
    max(d_X(Y, Z), d_Z(X, Y)) >= b; B_emp is the least b with no violations
    on the sample, so the sample holds at level B exactly when B_emp <= B.

    Projection distances are symmetric, so three reads serve all three
    arrangements: d_x(y, z), d_y(x, z) and d_z(x, y), each site passed as
    an object.  The level of a triple, the greatest b it violates, is
    max_i min(d_i, max_{j != i} d_j), and that is the median of the three.
    With d_1 <= d_2 <= d_3 sorted: for i = 3 and for i = 2 the term is
    min(d_i, d_3 or d_2) = d_2, and for i = 1 it is d_1 <= d_2; ties change
    nothing.  So when the first two are at most the worst level so far, so
    is the median, and the third is not read.  The first two are read in
    place, as `farey.annular_distance` reads them, from the entries of the
    site's conjugator: [[a, b], [-q, p]] with a = p^-1 mod q and
    b = (1 - ap)/q, or the identity at 1/0.  The sites are distinct, so no
    denominator vanishes; the rare third read calls `annular_distance`.
    """
    worst = 0
    count = 0
    for x, y, z in triples:
        if x == y or y == z or x == z:     # the pair that fails names one slope twice
            u = x if x in (y, z) else y
            raise OverlapError(f"sites {u!r}, {u!r} do not overlap")
        count += 1
        (xp, xq), (yp, yq), (zp, zq) = x, y, z
        if xq:      # d_x(y, z), from the images of y and z
            a = pow(xp, -1, xq)
            b = (1 - a * xp) // xq
            u, v, w, t = a * yp + b * yq, xp * yq - xq * yp, a * zp + b * zq, xp * zq - xq * zp
        else:
            u, v, w, t = yp, yq, zp, zq
        l1, m1 = divmod(u, v)
        l2, m2 = divmod(w, t)
        h1, h2 = (l1 + 1 if m1 else l1), (l2 + 1 if m2 else l2)
        d1 = (h1 if h1 > h2 else h2) - (l1 if l1 < l2 else l2)
        if yq:      # d_y(x, z), from the images of x and z
            a = pow(yp, -1, yq)
            b = (1 - a * yp) // yq
            u, v, w, t = a * xp + b * xq, yp * xq - yq * xp, a * zp + b * zq, yp * zq - yq * zp
        else:
            u, v, w, t = xp, xq, zp, zq
        l1, m1 = divmod(u, v)
        l2, m2 = divmod(w, t)
        h1, h2 = (l1 + 1 if m1 else l1), (l2 + 1 if m2 else l2)
        d2 = (h1 if h1 > h2 else h2) - (l1 if l1 < l2 else l2)
        if d1 > worst or d2 > worst:
            worst = max(worst, sorted((d1, d2, farey.annular_distance(z, x, y)))[1])
    return BehrstockReport(count, worst + 1)


@dataclass
class BgitReport:
    all_project: bool
    diameter: int | None


def bgit_scan(site: Slope, geodesic) -> BgitReport:
    """Projection diameter of a Farey geodesic at the annulus about `site`,
    or no diameter when the site is on it (the converse use: large
    projections force pit stops).  Each edge is checked by |ps - rq| = 1 and
    the ends by one `farey.slope_set_distance`; one `farey.link_span` folds
    the diameter."""
    path = list(geodesic)
    for (p, q), (r, s) in zip(path, path[1:]):
        if p * s - r * q not in (1, -1):
            raise ValueError("input sequence is not an ambient geodesic")
    if len(path) >= 2 and farey.slope_set_distance(path[0], path[-1]) != len(path) - 1:
        raise ValueError("input sequence is not distance-realizing")
    if site in path:
        return BgitReport(False, None)
    span = farey.link_span(site, path)
    return BgitReport(True, span[1] - span[0] if span else 0)


@dataclass
class PersistenceReport:
    hypothesis_ok: bool
    pairwise_overlap_ok: bool
    middle_bound_ok: bool
    monotone_ok: bool
    final_distance_ok: bool
    failures: list = field(default_factory=list)

    @property
    def conclusions_ok(self) -> bool:
        return (self.pairwise_overlap_ok and self.middle_bound_ok
                and self.monotone_ok and self.final_distance_ok)


def persistence_check(system, sequence, M: int, B: int) -> PersistenceReport:
    """Consecutive overlaps plus middle projections >= M + 3B make middle
    projections >= M + B persist to all triples, ambient distances monotone
    over nested index pairs, and, under 3-separated gaps, d(Y_1, Y_n) >= n-1.
    """
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

    # the ambient metric is symmetric and the diagonal is never read, so
    # each distance is computed once, above the diagonal, and mirrored
    amb = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            amb[i][j] = amb[j][i] = system.ambient_dist(seq[i], seq[j])
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


# ---------------------------------------------------------------------------
# Generators for positive torus instances and constant estimation.


def random_slopes(rng: random.Random, qmax: int):
    """Endless stream of p/q with q uniform in [0, qmax] and p in
    [-qmax, qmax], redrawn until reduced (q = 0 gives 1/0).  The loops are
    `Random.randrange`'s own over `getrandbits`, so the draws are exactly
    those of randrange.  A generator draws only when a slope is taken, so
    other draws from `rng` may come between two slopes."""
    bits, gcd, reduced = rng.getrandbits, math.gcd, Slope._reduced
    wq, wp = qmax + 1, 2 * qmax + 1        # the widths of the two ranges
    kq, kp = wq.bit_length(), wp.bit_length()
    while True:
        q = bits(kq)
        while q >= wq:
            q = bits(kq)
        if not q:
            yield farey.INFINITY
            continue
        p = bits(kp)
        while p >= wp:
            p = bits(kp)
        p -= qmax
        if gcd(p, q) == 1:
            yield reduced(p, q)


def random_slope(rng: random.Random, qmax: int) -> Slope:
    """One slope of `random_slopes`."""
    return next(random_slopes(rng, qmax))


def twist_pivot_sequence(a0: Slope, a1: Slope, strength: int, length: int,
                         rng: random.Random | None = None) -> list:
    """alpha_{k+1} = T_{alpha_k}^{+-K} alpha_{k-1} with |K| >= strength:
    consecutive twisting makes every interior projection large."""
    seq = [a0, a1]
    while len(seq) < length:
        k = strength if rng is None else rng.randrange(strength, strength + 4)
        sign = 1 if rng is None or rng.random() < 0.5 else -1
        seq.append(act(twist_about(seq[-1], sign * k), seq[-2]))
    return seq


@dataclass
class ConstantEstimates:
    M_emp: int
    B_emp: int
    c_emp: Fraction
    samples: dict
    stable: bool


def sample_overlapping_triples(n: int, rng: random.Random, qmax: int = 10000):
    """Lazy sample of `n` triples of distinct slopes of `random_slopes`.  It
    stops right after the n-th triple, so it draws only for what it yields,
    and a scan that reads it once holds one triple at a time."""
    draw = random_slopes(rng, qmax).__next__
    while n > 0:
        x, y, z = draw(), draw(), draw()
        if x != y and y != z and x != z:
            yield x, y, z
            n -= 1


def geodesic_image_bounds(seed: int, n_geodesics: int, qmax: int) -> tuple:
    """The least M bounding every projecting geodesic image, on the two
    disjoint seeded samples of `estimate_constants`: each sample has
    `n_geodesics` draws of a site and a geodesic, half of them twisted
    about the site and half random, from slopes of `random_slopes(., qmax)`.
    A sample's bound is 0 exactly when none of its geodesics projects: two
    distinct slopes never share one integer image, so a projecting geodesic
    has diameter at least 1."""
    def scan(r):
        worst = 0
        draw = random_slopes(r, qmax).__next__
        for _ in range(n_geodesics):
            site = draw()
            # stress with twisted pairs around the site plus random pairs
            if r.random() < 0.5:
                base = draw()
                if base == site:
                    continue
                n = r.randrange(1, 12)
                a, b = base, act(twist_about(site, n), base)
            else:
                a, b = draw(), draw()
            if a == b:
                continue
            path = farey.farey_geodesic(a, b)
            if site in path:
                continue
            rep = bgit_scan(site, path)
            if rep.all_project and rep.diameter > worst:
                worst = rep.diameter
        return worst

    return scan(random.Random(seed + 2)), scan(random.Random(seed + 1003))


def estimate_constants(seed: int = 0, n_triples: int = 2000,
                       n_geodesics: int = 400, qmax: int = 1000) -> ConstantEstimates:
    """Deterministic seeded estimation of (M, B, c) for the torus system.

    Each constant is the least value making its axiom hold on the sample and
    is re-validated on a disjoint fresh sample; `stable` records agreement.
    """
    def scan_B(r):
        return behrstock_scan(sample_overlapping_triples(n_triples, r, qmax)).B_emp

    def scan_c(r):
        # a draw with beta = site is skipped; a slope of `random_slopes(r, 50)`
        # repeats with probability 0.0013, so all 200 draws skip with
        # probability below 10^-577 and the minimum is over a nonempty sample.
        # In the site's link T^n is x -> x + n, and beta projects to {x} when
        # adjacent to the site, else to {floor x, floor x + 1}, so
        # d_site(T^n beta, beta) = n + [beta not adjacent], read with no kernel
        ratios = []
        draw = random_slopes(r, 50).__next__
        for _ in range(200):
            site = draw()
            beta = draw()
            if beta == site:
                continue
            n = r.randrange(1, 100)
            ratios.append(Fraction(n + (not farey.adjacent(site, beta)), n))
        return min(ratios)

    # estimate on one sample, re-validate on a disjoint fresh one: stable
    # means the fresh sample demands nothing beyond the first estimate
    b1, b2 = scan_B(random.Random(seed)), scan_B(random.Random(seed + 1001))
    m1, m2 = geodesic_image_bounds(seed, n_geodesics, qmax)
    c1, c2 = scan_c(random.Random(seed + 4)), scan_c(random.Random(seed + 1005))
    stable = (b2 <= b1) and (m2 <= m1) and (c2 >= c1)
    return ConstantEstimates(
        M_emp=max(m1, m2),
        B_emp=max(b1, b2),
        c_emp=min(c1, c2),
        samples={"B": (b1, b2), "M": (m1, m2), "c": (c1, c2)},
        stable=stable,
    )
