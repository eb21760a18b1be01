import random
from fractions import Fraction

import pytest

from rgflab.farey import INFINITY, Slope, farey_distance
from rgflab.bassserre import FactorSpec, word_matrix
from rgflab.constructions import (FamilySpec, check_displacing, check_misaligned,
                                  check_separated, conjugate_twist_family,
                                  definite_distance_scan, gromov_bound_scan,
                                  gromov_product_sets, separation_constants,
                                  slope_at_distance, twist_orbit_family)
from rgflab.projections import random_slope


class TestSeparation:
    def test_adjacent_twist_groups_fail(self):
        fam = FamilySpec([FactorSpec.twist("A", INFINITY),
                          FactorSpec.twist("B", Slope(0, 1))])
        rep = check_separated(fam, 5)
        assert rep.minimum == 1 and not rep.ok

    def test_single_factor_vacuous(self):
        fam = FamilySpec([FactorSpec.twist("A", INFINITY)])
        rep = check_separated(fam, 100)
        assert rep.ok and rep.minimum is None

    def test_diameter_of_union_convention(self):
        # a reducing system on the torus is one slope, so the diameter of
        # the union of two systems is their Farey distance, 0 when they agree
        fam = FamilySpec([FactorSpec.twist("A", Slope(5, 8)), FactorSpec.twist("B", INFINITY),
                          FactorSpec.twist("C", Slope(5, 8), power=2)])
        rep = check_separated(fam, 1)
        assert rep.matrix == [[0, 3, 0], [3, 0, 3], [0, 3, 0]]
        assert rep.matrix[0][1] == farey_distance(Slope(5, 8), INFINITY)
        assert (rep.minimum, rep.ok) == (0, False)


class TestMisalignment:
    def test_vacuous_below_three(self):
        fam = FamilySpec([FactorSpec.twist("A", INFINITY),
                          FactorSpec.twist("B", Slope(0, 1))])
        rep = check_misaligned(fam, 10)
        assert rep.ok and rep.vacuous

    def test_collinear_middle_fails(self):
        # three reducing systems along one geodesic: the middle-centered
        # product vanishes
        a = Slope(0, 1)
        far = slope_at_distance(a, 8)
        mid = slope_at_distance(a, 4)
        fam = FamilySpec([FactorSpec.twist("A", a), FactorSpec.twist("M", mid),
                          FactorSpec.twist("B", far)])
        rep = check_misaligned(fam, 2)
        assert not rep.ok
        assert min(rep.table[(0, 2, 1)], rep.table[(2, 0, 1)]) <= 1

    def test_gromov_product_sets_arithmetic(self):
        a, b, c = Slope(0, 1), slope_at_distance(Slope(0, 1), 6), INFINITY
        g = gromov_product_sets(a, b, c)
        want = Fraction(farey_distance(c, a) + farey_distance(b, c) - farey_distance(a, b), 2)
        assert g == want


class TestDisplacing:
    def test_twist_powers_displace(self):
        # the annulus about beta_j moves the twisted side by the exponent;
        # for i = k the margin is at least exponent - 1, and distinct i, k
        # cost at most their mutual projection offset on top of that
        a = Slope(0, 1)
        b = slope_at_distance(a, 5)
        c = slope_at_distance(a, 10)
        L = 6
        power = L + 5
        fam = FamilySpec([FactorSpec.twist("A", a, power=power, budget=1),
                          FactorSpec.twist("B", b, power=power, budget=1),
                          FactorSpec.twist("C", c, power=power, budget=1)])
        rep = check_displacing(fam, L)
        assert rep.stabilize_ok and rep.separation_ok
        assert rep.ok, rep.misses
        assert rep.min_margin >= L
        for (i, j, k, _), (_, margin) in rep.witnesses.items():
            if i == k:
                assert margin >= power - 1

    def test_close_betas_fail_condition_two(self):
        a = Slope(0, 1)
        b = slope_at_distance(a, 4)
        fam = FamilySpec([FactorSpec.twist("A", a, power=9, budget=1),
                          FactorSpec.twist("B", b, power=9, budget=1)])
        rep = check_displacing(fam, 3)
        assert not rep.separation_ok
        assert not rep.ok

    def test_weak_twists_miss(self):
        a = Slope(0, 1)
        b = slope_at_distance(a, 5)
        fam = FamilySpec([FactorSpec.twist("A", a, power=1, budget=1),
                          FactorSpec.twist("B", b, power=1, budget=1)])
        rep = check_displacing(fam, 50, shell_bound=12)
        assert rep.misses           # reported as not-found, not as disproof

    def test_missing_beta_raises(self):
        fam = FamilySpec([FactorSpec.twist("A", INFINITY)], betas=None)
        # betas default to the reducing systems; explicit empty list is an error
        with pytest.raises(IndexError):
            FamilySpec([FactorSpec.twist("A", INFINITY)], betas=[]).beta(0)


class TestConstantScans:
    def test_definite_distance_far_curves(self):
        factor = FactorSpec.twist("H", INFINITY, power=1, budget=2)
        rng = random.Random(0)
        curves = [random_slope(rng, 100) for _ in range(60)]
        rep = definite_distance_scan(factor, curves, M_emp=3)
        assert rep.K_emp >= 1
        assert rep.K_closed_form == Fraction(3 + 3, 2)

    def test_close_curves_vacuous(self):
        factor = FactorSpec.twist("H", INFINITY, power=2, budget=1)
        rep = definite_distance_scan(factor, [Slope(0, 1), Slope(1, 1)], M_emp=3)
        assert rep.samples == 0 and rep.K_emp == 1

    def test_gromov_bound_scan(self):
        factor = FactorSpec.twist("H", INFINITY, power=2, budget=3)
        rng = random.Random(1)
        curves = [random_slope(rng, 200) for _ in range(80)]
        dd = definite_distance_scan(factor, curves, M_emp=3)
        rep = gromov_bound_scan(factor, curves, delta=1, K=dd.K_emp)
        assert rep.within_closed_form
        assert rep.Kp_emp >= 0

    def test_kp_monotone_in_sample(self):
        factor = FactorSpec.twist("H", INFINITY, power=2, budget=2)
        rng = random.Random(2)
        curves = [random_slope(rng, 100) for _ in range(60)]
        small = gromov_bound_scan(factor, curves[:20], delta=1, K=1).Kp_emp
        big = gromov_bound_scan(factor, curves, delta=1, K=1).Kp_emp
        assert big >= small


class TestSeparationConstants:
    def test_at_zero(self):
        assert separation_constants(0, 0) == (5, 11)

    def test_arithmetic(self):
        assert separation_constants(10, 2) == (17, 107)


class TestSlopeAtDistance:
    def test_exact_distances(self):
        for base in (Slope(0, 1), INFINITY, Slope(3, 7)):
            for d in (0, 1, 2, 3, 7, 15):
                s = slope_at_distance(base, d)
                assert farey_distance(base, s) == d

    def test_deterministic(self):
        assert slope_at_distance(Slope(0, 1), 9) == slope_at_distance(Slope(0, 1), 9)


class TestTwistOrbitFamily:
    def test_small_family_certificates(self):
        tw = twist_orbit_family(12, window=3, M_emp=3)
        assert tw.D == 4
        assert tw.separation.ok and tw.separation.minimum >= 2 * 12 - 6
        assert tw.misalignment.ok
        assert tw.distance_window_ok

    def test_rejects_small_dprime(self):
        with pytest.raises(ValueError):
            twist_orbit_family(8)

    def test_misaligned_implies_separated(self):
        # min separation >= 2 A_measured - 4 - 16 delta with delta = 1
        tw = twist_orbit_family(15, window=3, M_emp=3)
        A_measured = tw.misalignment.minimum
        assert tw.separation.minimum >= 2 * A_measured - 4 - 16


class TestConjugateTwistFamily:
    def test_findings(self):
        cf = conjugate_twist_family(8, M_emp=3)
        assert cf.separation.ok
        assert not cf.misalignment.ok
        assert cf.misalignment.minimum <= 3
        assert cf.relation_found
        assert len(cf.relation_witness) <= 6
        assert word_matrix(cf.relation_witness).is_identity()

    def test_witness_mixes_conjugate_factors(self):
        cf = conjugate_twist_family(8, M_emp=3)
        factors_used = {i for i, _ in cf.relation_witness}
        assert {1, 2} <= factors_used     # both twist factors appear
        assert 0 in factors_used          # threaded through the twisting factor

    def test_precondition(self):
        with pytest.raises(ValueError):
            conjugate_twist_family(8, alpha=INFINITY, beta=Slope(0, 1), M_emp=3)
