"""Right-angled Artin groups: canonical normal forms, free-product pieces,
admissible support families, and the letter bookkeeping used to track
supports along alternating words.

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
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j})")
            es.add((min(i, j), max(i, j)))
        return PresentationGraph(n, frozenset(es))

    def commute(self, i: int, j: int) -> bool:
        return i != j and (min(i, j), max(i, j)) in self.edges

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
      scanned syllable with a larger generator, or at the end.
    """
    graph.check_word(w)
    neighbours = graph.neighbours
    out = []
    for g, e in w:
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
            out.insert(ins, (g, e))
    return tuple(out)


# --- components -------------------------------------------------------------


def components(graph: PresentationGraph) -> list:
    """Connected components as vertex sets, ordered by least vertex."""
    seen = set()
    comps = []
    for v in range(graph.n):
        if v not in seen:
            comp = frozenset(u for u, _, _ in bfs([v], graph.neighbours.__getitem__))
            seen |= comp
            comps.append(comp)
    return comps


# --- abstract support families ---------------------------------------------

DISJOINT = "disjoint"
OVERLAP = "overlap"
NESTED = "nested"
BOUNDARY_ANNULUS = "boundary-annulus"
EQUAL = "equal"


@dataclass(frozen=True)
class AbstractFamily:
    """Declared pairwise relations among abstract supports S_1..S_n.

    The realization graph has an edge exactly where supports are disjoint;
    admissibility bars nesting and boundary annuli between distinct members.
    """

    n: int
    relations: tuple  # ((i, j, relation), ...) for i < j

    @staticmethod
    def of(n: int, rels: dict) -> "AbstractFamily":
        table = []
        for (i, j), r in sorted(rels.items()):
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i}, {j})")
            if r not in (DISJOINT, OVERLAP, NESTED, BOUNDARY_ANNULUS, EQUAL):
                raise ValueError(f"unknown relation {r!r}")
            table.append((i, j, r))
        if len(table) != n * (n - 1) // 2:
            raise ValueError("every unordered pair needs a declared relation")
        return AbstractFamily(n, tuple(table))

    def realization_graph(self) -> PresentationGraph:
        edges = [(i, j) for i, j, r in self.relations if r == DISJOINT]
        return PresentationGraph.of(self.n, edges)


def admissibility_check(family: AbstractFamily):
    """(ok, violating_pair): no distinct pair may be nested or a boundary annulus."""
    for i, j, r in family.relations:
        if r in (NESTED, BOUNDARY_ANNULUS, EQUAL):
            return False, (i, j)
    return True, None


# --- support bookkeeping along alternating words ----------------------------


@dataclass
class Bookkeeping:
    """Letters of an alternating word with their support indices.

    nu[t] = generator of letter t of the flattened word (the subwords' normal
    forms, concatenated); sigma[s] = index of the first letter of subword s; iota/tau give, for each
    letter, the nearest earlier/later letter whose support overlaps it (None
    at the ends).  Every letter strictly between iota(j) and tau(j) equals
    or commutes with letter j, by definition: iota(j) and tau(j) are the
    nearest letters that overlap j, and a letter overlaps j unless it
    equals or commutes with it.  Such a letter also shares j's subword
    (`support_bookkeeping` shows why).
    """

    nu: list
    sigma: list
    iota: list
    tau: list


def letters_overlap(graph: PresentationGraph, gi: int, gj: int) -> bool:
    """Supports overlap iff distinct and not disjoint (no realization edge)."""
    return gi != gj and not graph.commute(gi, gj)


def nearest_overlaps(n: int, overlap) -> tuple:
    """(iota, tau) for positions 0..n-1: iota[j] is the largest t < j and
    tau[j] the least t > j with overlap(min(j, t), max(j, t)), None where no
    such t exists."""
    iota = [None] * n
    tau = [None] * n
    for j in range(n):
        for t in range(j - 1, -1, -1):
            if overlap(t, j):
                iota[j] = t
                break
        for t in range(j + 1, n):
            if overlap(j, t):
                tau[j] = t
                break
    return iota, tau


def support_bookkeeping(graph: PresentationGraph, parts: list, subwords: list) -> Bookkeeping:
    """Flatten an alternating word over a free-product decomposition.

    `parts` partitions the vertices of `graph` into blocks with no edges
    between distinct blocks; `subwords` is a list of (part_index, word) with
    consecutive part indices distinct.  Subwords are put in normal form
    before concatenation.

    Once the partition is validated, every letter t strictly between iota(j)
    and tau(j) lies in letter j's subword.  Say
    t < j, with t in subword a and j in subword b > a.  Subword b - 1 lies in
    a part other than b's, and no edge joins distinct parts, so its letters
    overlap letter j.  If b - 1 = a, that makes t <= iota(j); otherwise
    subword b - 1 lies between t and j, and again iota(j) > t.  The case
    t > j is the mirror image.
    """
    part_of = {}
    for k, block in enumerate(parts):
        for v in block:
            if v in part_of:
                raise ValueError(f"vertex {v} in two parts")
            part_of[v] = k
    if set(part_of) != set(range(graph.n)):
        raise ValueError("parts must partition the vertices")
    for i, j in graph.edges:
        if part_of[i] != part_of[j]:
            raise ValueError(f"edge ({i}, {j}) crosses distinct parts")

    nu = []
    sigma = []
    prev_part = None
    for k, w in subwords:
        if k == prev_part:
            raise ValueError("consecutive subwords from the same part")
        prev_part = k
        nf = normal_form(graph, w)
        if not nf:
            raise ValueError("empty subword after reduction breaks alternation")
        for g, _ in nf:
            if part_of[g] != k:
                raise ValueError(f"generator x{g + 1} not in part {k}")
        sigma.append(len(nu))
        nu.extend(g for g, _ in nf)

    iota, tau = nearest_overlaps(len(nu), lambda i, j: letters_overlap(graph, nu[i], nu[j]))
    return Bookkeeping(nu, sigma, iota, tau)


def power_threshold(c, B: int, M: int, D: int):
    """Exponent threshold (B + 6M + D) / c beyond which alternating powers
    keep all consecutive projections large."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("translation constant must be positive")
    return (B + 6 * M + D) / c
