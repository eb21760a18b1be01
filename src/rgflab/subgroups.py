"""Reducible-subgroup machinery on the torus model.

Subgroups of the matrix group are given by generator lists with an
enumeration budget.  Orbit computations are budgeted semi-decisions: an
overflowing orbit is reported as budget-limited, never claimed infinite,
except where a parabolic strict-growth certificate upgrades the answer to
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .farey import INFINITY, MappingClass, Slope, act
from .hypgraph import bfs

PERIODIC = "periodic"
REDUCIBLE = "reducible"
PSEUDO_ANOSOV = "pseudo_anosov"
CENTRAL = "central"

EXACT = "exact"
BUDGET_LIMITED = "budget-limited"

OVERFLOW = "overflow"


@dataclass(frozen=True)
class NTType:
    tag: str
    fixed_slope: Slope | None = None


def nielsen_thurston_type(m: MappingClass) -> NTType:
    """Trichotomy by trace: |tr| < 2 periodic, |tr| = 2 parabolic hence
    reducible with a unique fixed slope, |tr| > 2 pseudo-Anosov.  The center
    gets its own tag since it acts trivially on slopes."""
    if m.is_identity():
        return NTType(CENTRAL)
    t = abs(m.trace)
    if t < 2:
        return NTType(PERIODIC)
    if t > 2:
        return NTType(PSEUDO_ANOSOV)
    # parabolic: unique eigenvector; normalize to trace +2
    a, b, c, d = (m.a, m.b, m.c, m.d) if m.trace == 2 else (-m.a, -m.b, -m.c, -m.d)
    if b or a - 1:
        fixed = Slope.of(b, 1 - a) if b else Slope.of(a - 1, c)
    else:
        fixed = Slope.of(1 - d, c)
    return NTType(REDUCIBLE, fixed)


@dataclass(frozen=True)
class MatrixGroup:
    """Finitely generated subgroup with a deterministic enumeration order."""

    generators: tuple
    budget: int = 6

    @staticmethod
    def of(*gens) -> "MatrixGroup":
        mats = tuple(g if isinstance(g, MappingClass) else MappingClass.from_entries(g)
                     for g in gens)
        if not mats:
            raise ValueError("a group needs at least one generator")
        return MatrixGroup(mats)

    def step_generators(self) -> list:
        out = []
        for g in self.generators:
            out.append(g)
            out.append(g.inv())
        return out


def _ball(group: MatrixGroup, length: int | None) -> tuple:
    """BFS ball {entries: matrix} of the given radius (the group's budget by
    default), and whether it closed: some sphere inside the radius was empty."""
    length = group.budget if length is None else length
    steps = group.step_generators()
    seen = {}
    deepest = 0     # distances arrive in nondecreasing order
    for m, _, deepest in bfs([MappingClass.identity()],
                             lambda m: [m.mul(s) for s in steps], length):
        seen[m.entries()] = m
    return seen, deepest < length


def enumerate_ball(group: MatrixGroup, length: int | None = None) -> dict:
    """Shortlex ball {word: matrix} over generators and inverses.

    Keys are exact matrix entries (no projective collapsing); the identity is
    enumerated first.
    """
    return _ball(group, length)[0]


def group_is_finite(group: MatrixGroup, length: int | None = None):
    """(finite?, size_or_None): exact when the ball closes within the budget."""
    seen, closed = _ball(group, length)
    return (True, len(seen)) if closed else (False, None)


def _parabolic_generators(group: MatrixGroup) -> tuple:
    """([(generator, fixed slope)] over the parabolic generators, skipping
    central ones; or (None, (tag, generator)) for the first generator that is
    neither parabolic nor central."""
    parabolics = []
    for g in group.generators:
        t = nielsen_thurston_type(g)
        if t.tag == CENTRAL:
            continue
        if t.tag != REDUCIBLE:
            return None, (t.tag, g)
        parabolics.append((g, t.fixed_slope))
    return parabolics, None


def common_parabolic_fixed_slope(group: MatrixGroup) -> Slope | None:
    """The common fixed slope when every generator is parabolic or central
    and the parabolic ones agree; None otherwise."""
    parabolics, _ = _parabolic_generators(group)
    if not parabolics or len({s for _, s in parabolics}) > 1:
        return None
    return parabolics[0][1]


@dataclass
class OrbitResult:
    slopes: frozenset | None      # exact orbit when finite
    overflowed: bool
    certified_infinite: bool
    visited: int

    @property
    def finite(self) -> bool:
        return self.slopes is not None


def orbit(group: MatrixGroup, s: Slope, budget: int = 200) -> OrbitResult:
    """BFS slope orbit, halting once more than `budget` slopes are seen.

    A common-fixed-slope parabolic group moving s certifies an infinite
    orbit without enumeration: the powers of a shear translate the link.
    """
    fixed = common_parabolic_fixed_slope(group)
    if fixed is not None and s != fixed:
        return OrbitResult(None, False, True, 0)
    steps = group.step_generators()
    seen = set()
    for v, _, d in bfs([s], lambda v: [act(g, v) for g in steps]):
        if d and len(seen) >= budget:
            return OrbitResult(None, True, False, len(seen))
        seen.add(v)
    return OrbitResult(frozenset(seen), False, False, len(seen))


@dataclass
class ReducingSystemReport:
    """Canonical reducing system of a budgeted group.

    On the torus any two distinct curves intersect, so the system is the
    unique verified finite-orbit slope when exactly one exists and empty
    otherwise; `confidence` records whether every candidate was resolved.
    """

    boundary: frozenset
    confidence: str
    orbit_witnesses: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


DEFAULT_SEEDS = (INFINITY, Slope(0, 1), Slope(1, 1))


def candidate_slopes(group: MatrixGroup, seeds=DEFAULT_SEEDS, closure_budget: int = 25) -> list:
    """Fixed slopes of parabolic generators plus a budgeted orbit closure of
    the seed set: the walk from the seeds adds slopes until `closure_budget`
    are held (the seeds and fixed slopes are always kept)."""
    seen = set()
    for g in group.generators:
        t = nielsen_thurston_type(g)
        if t.tag == REDUCIBLE:
            seen.add(t.fixed_slope)
    steps = group.step_generators()
    for v, _, d in bfs(seeds, lambda v: [act(g, v) for g in steps]):
        if d and len(seen) >= closure_budget:
            break
        seen.add(v)
    return sorted(seen, key=lambda v: (v.q, v.p))


def canonical_reducing_system(group: MatrixGroup, candidates=None,
                              budget: int = 200) -> ReducingSystemReport:
    notes = []
    ball = enumerate_ball(group, min(group.budget, 4))
    for m in ball.values():
        if nielsen_thurston_type(m).tag == PSEUDO_ANOSOV:
            notes.append(f"pseudo-Anosov word with trace {m.trace}")
            return ReducingSystemReport(frozenset(), EXACT, {}, notes)
    finite, size = group_is_finite(group)
    if finite:
        notes.append(f"group is finite of order {size}")
        return ReducingSystemReport(frozenset(), EXACT, {}, notes)

    if candidates is None:
        candidates = candidate_slopes(group)
    witnesses = {}
    finite_orbit = []
    unresolved = []
    for s in candidates:
        res = orbit(group, s, budget)
        if res.finite:
            witnesses[s] = len(res.slopes)
            finite_orbit.append(s)
        elif res.certified_infinite:
            witnesses[s] = "infinite"
        else:
            witnesses[s] = OVERFLOW
            unresolved.append(s)

    confidence = EXACT if not unresolved else BUDGET_LIMITED
    if len(finite_orbit) == 1:
        return ReducingSystemReport(frozenset(finite_orbit), confidence, witnesses, notes)
    if len(finite_orbit) > 1:
        notes.append("multiple finite-orbit slopes intersect pairwise")
    return ReducingSystemReport(frozenset(), confidence, witnesses, notes)


@dataclass
class MultitwistReport:
    is_multitwist: bool
    common_slope: Slope | None = None
    witness: object = None


def is_multitwist(group: MatrixGroup) -> MultitwistReport:
    """A subgroup lies in a twist group iff every generator is parabolic or
    central and the parabolic ones share a fixed slope (one curve suffices on
    the torus).  Failing pairs get, when possible, a short word of trace
    above 2, of at most four letters, as an explicit witness."""
    parabolics, offender = _parabolic_generators(group)
    if offender is not None:
        return MultitwistReport(False, None, offender)
    slope = parabolics[0][1] if parabolics else None
    for g, s in parabolics:
        if s != slope:
            first = parabolics[0][0]
            witness = _pseudo_anosov_word(MatrixGroup((first, g)), 4)
            return MultitwistReport(False, None, witness if witness else (first, g))
    return MultitwistReport(True, slope, None)


def _pseudo_anosov_word(group: MatrixGroup, length: int) -> MappingClass | None:
    for m in enumerate_ball(group, length).values():
        if abs(m.trace) > 2:
            return m
    return None
