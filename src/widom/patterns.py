"""Induced-pattern detection and antisimplicial vertices.

Fixed patterns are matched by ordered backtracking over host vertices:
pattern positions are filled in id order, candidates are tried in
increasing host id, and every partial assignment must reproduce the
pattern's edges *and* non-edges.  The first complete assignment found
is therefore the lexicographically smallest witness tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import Graph, bits


@dataclass(frozen=True)
class Pattern:
    """A fixed labeled graph to be found as an induced subgraph."""

    name: str
    n: int
    edges: frozenset[tuple[int, int]]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class Occurrence:
    """An induced embedding: vertices[i] hosts pattern vertex i."""

    pattern_name: str
    vertices: tuple[int, ...]


def _pattern(name: str, n: int, edges: Sequence[tuple[int, int]]) -> Pattern:
    return Pattern(name, n, frozenset(tuple(sorted(e)) for e in edges))


def cycle_pattern(k: int) -> Pattern:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return _pattern(f"C{k}", k, [(i, (i + 1) % k) for i in range(k)])


P5 = _pattern("P5", 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
CO_P5 = _pattern(
    "CO_P5", 5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
)
C3 = cycle_pattern(3)
C4 = cycle_pattern(4)
C5 = cycle_pattern(5)
C6 = cycle_pattern(6)

# Two squares sharing an edge; the shared edge is 2-3 (the degree-3 pair).
DOMINO = _pattern(
    "DOMINO", 6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
)
# Triangle 0,1,2 with private degree-2 tips 3,4,5 (3~0,1; 4~0,2; 5~1,2).
SUN3 = _pattern(
    "SUN3", 6,
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5)],
)


def _match_fixed(g: Graph, pat: Pattern, yield_all: bool) -> Iterator[tuple[int, ...]]:
    k = pat.n
    if g.n < k:
        return
    # quick size prune: an induced copy needs at least the pattern's edges
    if len(g.edges) < len(pat.edges):
        return
    padj = [0] * k
    for u, v in pat.edges:
        padj[u] |= 1 << v
        padj[v] |= 1 << u
    pdeg = [padj[i].bit_count() for i in range(k)]
    gdeg = [g.degree(v) for v in range(g.n)]
    # req[i] = bitmask over earlier pattern positions that i must see
    req = [padj[i] & ((1 << i) - 1) for i in range(k)]

    assign = [0] * k
    used = 0

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        for c in range(g.n):
            bit = 1 << c
            if used & bit or gdeg[c] < pdeg[i]:
                continue
            ok = True
            for j in range(i):
                adj_here = bool(g.adj_bits(c) >> assign[j] & 1)
                if adj_here != bool(req[i] >> j & 1):
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = c
            used |= bit
            if i + 1 == k:
                yield tuple(assign)
            else:
                yield from extend(i + 1)
            used ^= bit

    if yield_all:
        yield from extend(0)
    else:
        for hit in extend(0):
            yield hit
            return


def find_induced(g: Graph, pattern: Pattern) -> Occurrence | None:
    """First induced occurrence of ``pattern`` in ``g``, or None."""
    for hit in _match_fixed(g, pattern, yield_all=False):
        return Occurrence(pattern.name, hit)
    return None


def iter_induced(g: Graph, pattern: Pattern) -> Iterator[Occurrence]:
    """All induced embeddings of a fixed pattern, lexicographic order."""
    for hit in _match_fixed(g, pattern, yield_all=True):
        yield Occurrence(pattern.name, hit)


def is_free(g: Graph, patterns: Sequence[Pattern]) -> bool:
    return all(find_induced(g, p) is None for p in patterns)


def is_antisimplicial(g: Graph, v: int) -> bool:
    """True iff the antineighborhood of v induces an edgeless graph."""
    anti = g.full_bits & ~g.adj_bits(v)
    for u in bits(anti):
        if g.adj_bits(u) & anti:
            return False
    return True


def find_antisimplicial(g: Graph) -> int | None:
    for v in range(g.n):
        if is_antisimplicial(g, v):
            return v
    return None


def is_c5(g: Graph) -> bool:
    """Isomorphism test against the 5-cycle: n=5, 2-regular, connected."""
    if g.n != 5 or len(g.edges) != 5:
        return False
    if any(g.degree(v) != 2 for v in range(5)):
        return False
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in bits(g.adj_bits(v) & ~seen):
            seen |= 1 << u
            frontier.append(u)
    return seen == g.full_bits
