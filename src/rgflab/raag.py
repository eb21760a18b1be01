"""Right-angled Artin groups: canonical normal forms, free-product pieces,
and the exponent threshold beyond which alternating powers keep every
consecutive projection large.

Words are tuples of syllables (generator index, nonzero exponent).  The
normal form is the lexicographically least reduced spelling: syllables of the
same generator merge whenever only commuting syllables separate them, and
among the commutation-equivalent reduced spellings the canonical one emits,
at every step, the least available generator.  It is built in one insertion
pass: each syllable merges into the last syllable of its generator that only
commuting ones follow, or is inserted before the first of those commuting
followers with a larger generator, so the prefix read so far is always in
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .hypgraph import bfs


@dataclass(frozen=True)
class PresentationGraph:
    """Graph with vertices 0..n-1; an edge means the generators commute."""

    n: int
    edges: frozenset

    @staticmethod
    def of(n: int, edge_pairs) -> "PresentationGraph":
        es = set()
        for i, j in edge_pairs:
            if not (type(i) is type(j) is int) or i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i!r}, {j!r})")
            es.add((min(i, j), max(i, j)))
        return PresentationGraph(n, frozenset(es))

    @cached_property
    def neighbours(self) -> tuple:
        """neighbours[i]: the generators that commute with i (not a field, so
        equality, hashing and repr are unchanged)."""
        near = [set() for _ in range(self.n)]
        for i, j in self.edges:
            near[i].add(j)
            near[j].add(i)
        return tuple(frozenset(s) for s in near)

    def check_word(self, word):
        for g, _ in word:
            if not 0 <= g < self.n:
                raise ValueError(f"generator x{g + 1} outside graph with {self.n} vertices")


Word = tuple  # tuple of (generator, exponent) pairs


def normal_form(graph: PresentationGraph, w: Word) -> Word:
    """The unique reduced spelling; equal outputs iff equal group elements.

    One insertion pass keeps `out` in normal form after every syllable (the
    lexicographic trace normal form of Anisimov and Knuth, "Inhomogeneous
    sorting", 1979).  The normal form is the greedy least-generator linear
    extension of the dependence order, in which an earlier syllable precedes
    a later one unless their generators commute.  For a syllable (g, e), scan
    `out` back over the syllables whose generators are in
    `graph.neighbours[g]`, noting the earliest of them with a generator
    above g:
    - if the scan stops on a syllable of g, merge the exponents there, which
      keeps the order, and drop the syllable when they cancel.  It is then
      maximal in the order, since every later syllable commutes with it, and
      deleting a maximal element leaves the greedy order of the rest
      unchanged;
    - otherwise (g, e) is a new maximal element.  Greedy order restricted to
      the old syllables is unchanged, and the new one is emitted as soon as it
      is available and less than the old choice: right before the earliest
      scanned syllable with a larger generator, or at the end.  A plain
      tuple syllable goes in as itself, so the output shares it with `w`.
    """
    graph.check_word(w)
    neighbours = graph.neighbours
    out = []
    for s in w:
        g, e = s
        if not e:
            continue
        near = neighbours[g]
        j = ins = len(out)
        while j and out[j - 1][0] in near:
            j -= 1
            if out[j][0] > g:
                ins = j
        if j and out[j - 1][0] == g:
            e += out[j - 1][1]
            if e:
                out[j - 1] = (g, e)
            else:
                del out[j - 1]
        else:
            out.insert(ins, s if type(s) is tuple else (g, e))
    return tuple(out)


# --- components -------------------------------------------------------------


def components(graph: PresentationGraph) -> list:
    """Connected components as vertex sets, ordered by least vertex."""
    seen = set()
    comps = []
    for v in range(graph.n):
        if v not in seen:
            comp = frozenset(u for u, _ in bfs(v, graph.neighbours.__getitem__))
            seen |= comp
            comps.append(comp)
    return comps


# --- alternating powers -----------------------------------------------------


def power_threshold(c, B: int, M: int, D: int):
    """Exponent threshold (B + 6M + D) / c beyond which alternating powers
    keep all consecutive projections large."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("translation constant must be positive")
    return (B + 6 * M + D) / c
