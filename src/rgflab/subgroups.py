"""Reducible subgroups on the torus model.

A subgroup of SL(2, Z) is given by its generators.  Each element is typed
by its trace (Nielsen-Thurston), the Bass-Serre factors walk their balls
here, and the canonical reducing system of a subgroup has a closed form:
the common fixed slope of its parabolic generators (proved in
`canonical_reducing_system`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .farey import MappingClass, Slope
from .hypgraph import bfs

PERIODIC = "periodic"
REDUCIBLE = "reducible"
PSEUDO_ANOSOV = "pseudo_anosov"
CENTRAL = "central"


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


def _ball(group: MatrixGroup, length: int) -> tuple:
    """BFS ball {entries: matrix} of the given radius, and whether it closed:
    some sphere inside the radius was empty."""
    steps = group.step_generators()
    seen = {}
    deepest = 0     # distances arrive in nondecreasing order
    for m, deepest in bfs(MappingClass.identity(), lambda m: [m.mul(s) for s in steps],
                          length):
        seen[m.entries()] = m
    return seen, deepest < length


def enumerate_ball(group: MatrixGroup, length: int) -> dict:
    """Shortlex ball {word: matrix} over generators and inverses.

    Keys are exact matrix entries (no projective collapsing); the identity is
    enumerated first.
    """
    return _ball(group, length)[0]


def group_is_finite(group: MatrixGroup, length: int):
    """(finite?, size_or_None): exact when the ball closes within `length`."""
    seen, closed = _ball(group, length)
    return (True, len(seen)) if closed else (False, None)


def canonical_reducing_system(group: MatrixGroup) -> Slope | None:
    """The canonical reducing system of `group` in closed form: the common
    fixed slope of the parabolic generators when every generator is
    parabolic or central and the parabolic ones agree, and None otherwise.

    On the torus any two distinct curves meet, so the system is the unique
    slope with a finite orbit when G is infinite, and empty otherwise.

    Let G be infinite and let the slope a have a finite G-orbit.
    Then Stab_G(a) has finite index, so it is infinite; it lies in
    Stab(a) = {+-T_a^n}, so it holds a nontrivial parabolic.  For g in G,
    Stab_G(a) & Stab_G(ga) also has finite index, as ga has a finite orbit
    too, so it holds a nontrivial parabolic fixing a and ga.  A parabolic
    fixes one slope only, so ga = a: the finite-orbit slopes are the slopes
    G fixes.  G fixes a exactly when every generator is central or
    parabolic about a; some generator is then parabolic, or G would be
    finite.  And a parabolic generator makes G infinite.
    """
    slopes = set()
    for g in group.generators:
        t = nielsen_thurston_type(g)
        if t.tag == REDUCIBLE:
            slopes.add(t.fixed_slope)
        elif t.tag != CENTRAL:
            return None
    return slopes.pop() if len(slopes) == 1 else None
