"""Coarse-geometry machinery for free products of reducible torus mapping
classes: exact Farey-graph model, hyperbolicity toolkit, projection-system
axioms, Bass-Serre orbit maps, and certificate checkers.
"""

from .farey import INFINITY, MappingClass, Slope, act, adjacent, annular_distance, \
    farey_distance, farey_geodesic, twist_about
from .hypgraph import estimate_delta, gromov_product
from .raag import PresentationGraph, components, normal_form, power_threshold
from .subgroups import MatrixGroup, canonical_reducing_system, nielsen_thurston_type
from .projections import TorusAnnuli, behrstock_scan, bgit_scan, \
    estimate_constants, persistence_check
from .bassserre import FactorSpec, build_ball, free_product_check, \
    loxodromic_scan, phi, pingpong_certificate, qi_certificate, tree_distance
from .constructions import check_displacing, check_misaligned, check_separated, \
    conjugate_twist_family, definite_distance_scan, displacement_table, \
    gromov_bound_scan, separation_constants, twist_orbit_family

__version__ = "0.1.0"
