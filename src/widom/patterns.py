"""Induced-pattern detection and antisimplicial vertices.

Fixed patterns are matched on any vertex mask by backtracking over
pattern positions in id order.  The candidates for position i are one
mask: the unused hosts of high enough degree, ANDed with N(host j) for
each earlier pattern neighbour j of i and with its complement for each
earlier non-neighbour, so partial assignments keep edges *and*
non-edges.  Candidates are tried in increasing host id, so the first
embedding is the lexicographically smallest witness tuple.

The search over a whole graph is exhaustive when the pattern is absent,
about n^4 steps for P5 on a split graph.  Class membership therefore
does not start here: ``decomposition.find_obstruction`` cuts the graph
at components, co-components and modules, which an induced P5 or co-P5
(both prime) meets in one vertex or not at all unless it lies inside,
and drops the prime pieces that are split graphs, which hold no 2K2 and
no C4 and so neither pattern.  Only the rest go to ``induced_in_mask``,
and ``find_induced`` runs on the whole graph only for a pattern known
to be there, so its witness stays the record.  ``is_free`` and
``find_induced`` are the tests' oracles for that walk.
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


def induced_in_mask(
    adj: Sequence[int], mask: int, pat: Pattern
) -> Iterator[tuple[int, ...]]:
    """Every induced embedding of ``pat`` in the subgraph of ``adj`` on
    ``mask``, in lexicographic order; entry i hosts pattern vertex i."""
    k = pat.n
    padj = [0] * k
    for u, v in pat.edges:
        padj[u] |= 1 << v
        padj[v] |= 1 << u
    # roomy[i]: hosts with at least pattern vertex i's degree inside mask
    degree = {v: (adj[v] & mask).bit_count() for v in bits(mask)}
    roomy = [sum(1 << v for v, d in degree.items() if d >= p.bit_count()) for p in padj]
    hosts = [0] * k

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        cand = roomy[i] & ~used
        for j in range(i):
            a = adj[hosts[j]]
            cand &= a if padj[i] >> j & 1 else ~a
        while cand:
            low = cand & -cand
            cand ^= low
            hosts[i] = low.bit_length() - 1
            if i + 1 == k:
                yield tuple(hosts)
            else:
                yield from extend(i + 1, used | low)

    yield from extend(0, 0)


def iter_induced(g: Graph, pattern: Pattern) -> Iterator[Occurrence]:
    """All induced embeddings of a fixed pattern, lexicographic order."""
    for hit in induced_in_mask(g._adj, g.full_bits, pattern):
        yield Occurrence(pattern.name, hit)


def find_induced(g: Graph, pattern: Pattern) -> Occurrence | None:
    """First induced occurrence of ``pattern`` in ``g``, or None."""
    return next(iter_induced(g, pattern), None)


def is_free(g: Graph, patterns: Sequence[Pattern]) -> bool:
    return all(find_induced(g, p) is None for p in patterns)


def is_antisimplicial(g: Graph, v: int) -> bool:
    """True iff the antineighborhood of v induces an edgeless graph."""
    anti = g.full_bits & ~g.adj_bits(v)
    return not any(g.adj_bits(u) & anti for u in bits(anti))


def find_antisimplicial(g: Graph) -> int | None:
    for v in range(g.n):
        if is_antisimplicial(g, v):
            return v
    return None


def is_c5(g: Graph) -> bool:
    """Isomorphism test against the 5-cycle."""
    return g.n == 5 and find_induced(g, C5) is not None
