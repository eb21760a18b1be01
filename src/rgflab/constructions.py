"""Certificate checkers for families of reducible torus subgroups: pairwise
separation, misalignment (tripod configurations of reducing systems), and
displacing elements; empirical constant scans; and generators for the two
benchmark families (the twist-orbit family around a distant curve, and the
conjugate-twist triple that fails to be a free product).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import farey
from .farey import INFINITY, MappingClass, Slope, act, twist_about
from .bassserre import FactorSpec, free_product_check
from .projections import TorusAnnuli, geodesic_image_bounds


@dataclass
class FamilySpec:
    """Free-product factors with reducing systems and optional displacing
    curves, one slope each (each beta_i must be fixed by its factor)."""

    factors: list
    betas: list | None = None

    def boundaries(self) -> list:
        return [f.boundary for f in self.factors]

    def beta(self, i: int) -> Slope:
        if self.betas is not None:
            return self.betas[i]
        return self.factors[i].boundary


@dataclass
class SeparationReport:
    matrix: list
    minimum: int | None
    ok: bool


def _distance_table(bs: list) -> list:
    """The matrix of Farey distances between the reducing systems `bs`: each
    pair is computed once, above the diagonal, and mirrored."""
    n = len(bs)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = farey.slope_set_distance(bs[i], bs[j])
    return table


def check_separated(family: FamilySpec, D: int) -> SeparationReport:
    """Pairwise curve-graph distances of the reducing systems against the
    threshold D.  Vacuous for a single factor."""
    matrix = _distance_table(family.boundaries())
    n = len(matrix)
    minimum = min((matrix[i][j] for i in range(n) for j in range(i + 1, n)), default=None)
    return SeparationReport(matrix, minimum, minimum is None or minimum >= D)


@dataclass
class MisalignmentReport:
    table: dict
    minimum: Fraction | None
    ok: bool
    vacuous: bool = False


def check_misaligned(family: FamilySpec, A) -> MisalignmentReport:
    """Gromov products over all distinct ordered triples of reducing systems
    against the threshold; vacuous below three factors.  Each product
    (x_i | x_j)_{x_k} = (d_ik + d_jk - d_ij) / 2 is `hypgraph.gromov_product`
    read from one `_distance_table`, so each pair's distance is computed once."""
    A = Fraction(A)
    bs = family.boundaries()
    n = len(bs)
    if n < 3:
        return MisalignmentReport({}, None, True, vacuous=True)
    d = _distance_table(bs)
    table = {(i, j, k): Fraction(d[i][k] + d[j][k] - d[i][j], 2)
             for k in range(n) for i in range(n) for j in range(n) if len({i, j, k}) == 3}
    minimum = min(table.values())
    return MisalignmentReport(table, minimum, minimum >= A)


@dataclass
class DisplacingReport:
    stabilize_ok: bool
    separation_ok: bool          # d(beta_i, beta_j) >= 5 pairwise
    min_margin: int | None
    misses: list                 # tuples with no witness inside the shell
    ok: bool


def _shell_sites(beta: Slope, shell_bound: int) -> list:
    """Annuli within distance one of the curve: the curve itself and the
    stretch of its link within `shell_bound` positions of zero (the link of
    a vertex is the conjugated integer line, so this enumerates bona fide
    Farey neighbors whatever the denominators)."""
    minv = farey.conjugator_to_infinity(beta).inv()
    sites = {beta}.union(act(minv, Slope(k, 1)) for k in range(-shell_bound, shell_bound + 1))
    return sorted(sites, key=lambda s: (s.q, abs(s.p), s.p))


def check_displacing(family: FamilySpec, L: int, shell_bound: int = 40) -> DisplacingReport:
    """Existence, for every nontrivial factor element, of a nearby annulus
    displacing the neighboring curves by at least L.

    For all ordered (i, j, k) with i != j != k (i = k allowed) and every
    enumerated nontrivial h in the j-th factor, search annuli Y with
    d(core Y, beta_j) <= 1 for d_Y(beta_i, h beta_k) >= L.  Misses are
    reported as not-found-within-shell, never as disproof.
    """
    torus = TorusAnnuli()
    n = len(family.factors)
    stab_ok = all(act(h, family.beta(j)) == family.beta(j)
                  for j, f in enumerate(family.factors) for h in f.elements)
    sep_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            if farey.slope_set_distance(family.beta(i), family.beta(j)) < 5:
                sep_ok = False

    misses = []
    min_margin = None
    for j in range(n):
        bj = family.beta(j)
        shell = _shell_sites(bj, shell_bound)
        elements = family.factors[j].elements
        for i in range(n):
            for k in range(n):
                if i == j or k == j:
                    continue
                bi, bk = family.beta(i), family.beta(k)
                for e_idx, h in enumerate(elements):
                    hbk = act(h, bk)
                    best = None
                    for site in shell:
                        if not torus.projects(site, bi) or not torus.projects(site, hbk):
                            continue
                        d = torus.proj_dist(site, bi, hbk)
                        if best is None or d > best:
                            best = d
                    if best is None or best < L:
                        misses.append((i, j, k, e_idx, best))
                    elif min_margin is None or best < min_margin:
                        min_margin = best
    ok = stab_ok and sep_ok and not misses
    return DisplacingReport(stab_ok, sep_ok, min_margin, misses, ok)


# ---------------------------------------------------------------------------
# Constant scans for single reducible factors.


@dataclass
class DefiniteDistanceReport:
    K_emp: Fraction
    K_closed_form: Fraction      # (M + 3) / 2 on the torus: least m with m c - 2 > M, c = 1, N = 1
    samples: int


def definite_distance_scan(factor: FactorSpec, sample_curves, M_emp: int) -> DefiniteDistanceReport:
    """Least K with d(a, g a) >= (d(a, dH) - 3) / K over the sample; vacuous
    samples (right side <= 0) are skipped."""
    worst = Fraction(1)
    count = 0
    boundary = factor.boundary
    for a in sample_curves:
        d_bdry = farey.slope_set_distance(a, boundary)
        if d_bdry <= 3:
            continue
        for g in factor.elements:
            moved = farey.farey_distance(a, act(g, a))
            count += 1
            if moved == 0:
                raise AssertionError("infinite-order element fixed a far curve")
            k = Fraction(d_bdry - 3, moved)
            if k > worst:
                worst = k
    closed = Fraction(M_emp + 3, 2)
    return DefiniteDistanceReport(worst, closed, count)


@dataclass
class GromovBoundReport:
    Kp_emp: Fraction
    closed_form: Fraction        # 4 delta + (12 delta + 3) K + 5
    within_closed_form: bool
    samples: int


def gromov_bound_scan(factor: FactorSpec, sample_curves, delta, K) -> GromovBoundReport:
    """Max Gromov product (a | g a) based at the reducing system, against the
    closed form 4 delta + (12 delta + 3) K + 5.

    Each element g of the factor fixes its reducing system dH, one slope on
    the torus, and is an isometry, so d(g a, dH) = d(g a, g dH) = d(a, dH), and (a | g a)_dH =
    (d(a, dH) + d(g a, dH) - d(a, g a)) / 2 = d(a, dH) - d(a, g a) / 2: one
    distance per curve and one per element."""
    delta = Fraction(delta)
    K = Fraction(K)
    worst = Fraction(0)
    count = 0
    boundary = factor.boundary
    for a in sample_curves:
        if a == boundary:
            continue
        d_bdry = farey.farey_distance(a, boundary)
        for g in factor.elements:
            gp = Fraction(2 * d_bdry - farey.farey_distance(a, act(g, a)), 2)
            count += 1
            if gp > worst:
                worst = gp
    closed = 4 * delta + (12 * delta + 3) * K + 5
    return GromovBoundReport(worst, closed, worst <= closed, count)


def separation_constants(Kp, delta) -> tuple:
    """Misalignment and separation thresholds sufficient for the free-product
    embedding: A = K' + 5 + delta, D = 4 K' + 11 + 28 delta."""
    Kp = Fraction(Kp)
    delta = Fraction(delta)
    return (Kp + 5 + delta, 4 * Kp + 11 + 28 * delta)


# ---------------------------------------------------------------------------
# Family generators.


def _estimated_M(seed: int) -> int:
    """Geodesic-image bound M_emp from a small seeded torus sample, the M_emp
    of `estimate_constants(seed, 400, 200, 500)`, for the family generators."""
    return max(geodesic_image_bounds(seed, 200, 500))


def slope_at_distance(base: Slope, d: int) -> Slope:
    """Deterministic slope at exact Farey distance d from base.

    In coordinates where base is infinity, the continued fraction
    [0; 2, 2, ..., 2] with d - 1 partial quotients lies at distance d; the
    result is pulled back and verified.
    """
    if d == 0:
        return base
    m_inv = farey.conjugator_to_infinity(base).inv()
    if d == 1:
        return act(m_inv, Slope(0, 1))
    p, q = 0, 1      # [0]
    p1, q1 = 1, 2    # [0; 2]
    for _ in range(d - 2):
        p, q, p1, q1 = p1, q1, 2 * p1 + p, 2 * q1 + q
    target = act(m_inv, Slope(p1, q1))
    if farey.farey_distance(base, target) != d:
        raise AssertionError("distance walk produced a wrong slope")
    return target


@dataclass
class TwistOrbitFamily:
    family: FamilySpec
    center: Slope                # the distant curve y
    dprime: int
    D: int                       # dprime - 8
    N: int
    window: list                 # indices k with factors about g^{kN} alpha
    separation: SeparationReport
    misalignment: MisalignmentReport
    distance_window_ok: bool
    constants: dict = field(default_factory=dict)


def twist_orbit_family(dprime: int, window: int = 5, M_emp: int | None = None,
                       factor_budget: int = 2, seed: int = 0) -> TwistOrbitFamily:
    """Family of twist groups about the orbit of a curve under a twist about
    a curve at distance exactly D'.

    The annulus about the center y displaces alpha_0 by more than M under
    g^n for |n| >= N, so every pairwise geodesic stops near y and distances
    land in [2D' - 6, 2D' + 4]; the Gromov products then exceed D' - 8 = D.
    The window lists the twist exponents k N for k centered at zero.  The
    base curve alpha_0 is 0/1, and N is doubled at most six times.
    """
    if dprime <= 8:
        raise ValueError("need D' > 8")
    if M_emp is None:
        M_emp = _estimated_M(seed)
    base = Slope(0, 1)
    y = slope_at_distance(base, dprime)
    D = dprime - 8
    ks = [k - (window - 1) // 2 for k in range(window)]

    N = M_emp + 1
    for _ in range(6):
        if farey.annular_distance(y, base, act(twist_about(y, N), base)) <= M_emp:
            raise AssertionError("twist depth fails its defining displacement")
        factors = []
        for k in ks:
            alpha_k = act(twist_about(y, k * N), base)
            factors.append(FactorSpec.twist(f"H{k}N", alpha_k, budget=factor_budget))
        fam = FamilySpec(factors)
        sep = check_separated(fam, D)
        mis = check_misaligned(fam, D)
        window_ok = all(
            2 * dprime - 6 <= sep.matrix[i][j] <= 2 * dprime + 4
            for i in range(len(ks)) for j in range(i + 1, len(ks)))
        if sep.ok and (mis.vacuous or mis.ok) and window_ok:
            return TwistOrbitFamily(fam, y, dprime, D, N, ks, sep, mis, window_ok,
                                    {"M_emp": M_emp})
        N *= 2
    raise AssertionError(
        f"distance window failed for all twist depths up to {N}; "
        "the geodesic-image bound was underestimated")


@dataclass
class ConjugateTwistFindings:
    family: FamilySpec
    T: MappingClass
    separation: SeparationReport
    misalignment: MisalignmentReport
    relation_witness: tuple | None
    relation_found: bool
    D: int


def conjugate_twist_family(D: int, factor_budget: int = 1, relation_budget: int = 6,
                           seed: int = 0) -> ConjugateTwistFindings:
    """The separated-but-not-misaligned triple {H_a, H_b, T H_b T^-1}, with
    alpha = 1/0 and beta the slope at distance D from it.

    T, the (M_emp + 2)-th power of the twist in the first factor, with M_emp
    the seeded geodesic-image bound, is large, so the conjugate factor's
    curve T(beta) is far from beta on the other side of alpha; the triple
    passes separation at D yet its Gromov product at alpha stays tiny, and
    the generated group satisfies the visible relation T h T^-1 = (ThT^-1).
    """
    if D < 8:
        raise ValueError("need D >= 8 so that 2D - 8 >= D")
    alpha = INFINITY
    beta = slope_at_distance(alpha, D)
    M_emp = _estimated_M(seed)
    t_power = M_emp + 2
    T = twist_about(alpha, t_power)
    t_beta = act(T, beta)
    if farey.annular_distance(alpha, beta, t_beta) < M_emp:
        raise AssertionError("conjugating twist fails its defining displacement")

    budget_a = max(factor_budget, t_power)
    f_alpha = FactorSpec.twist("Ha", alpha, budget=budget_a)
    f_beta = FactorSpec.twist("Hb", beta, budget=factor_budget)
    f_conj = FactorSpec.twist("THbT^-1", t_beta, budget=factor_budget)
    fam = FamilySpec([f_alpha, f_beta, f_conj])

    sep = check_separated(fam, D)
    mis = check_misaligned(fam, 2)

    rep = free_product_check(fam.factors, budget=relation_budget)
    return ConjugateTwistFindings(fam, T, sep, mis, rep.witness,
                                  not rep.no_relation, D)
