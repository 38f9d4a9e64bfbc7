"""Immutable simple graphs with bitmask adjacency, plus weighted wrappers.

Vertices are 0..n-1.  Adjacency is kept as one Python int per vertex
(bit v set on adj[u] iff u ~ v), which makes neighborhood algebra,
independence tests and subgraph extraction cheap at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_full")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                u, v = v, u
            norm.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = frozenset(norm)
        self._adj = tuple(adj)
        self._full = (1 << n) - 1

    # -- basic queries ------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def adj_bits(self, v: int) -> int:
        """Neighborhood of v as a bitmask (v itself excluded)."""
        return self._adj[v]

    @property
    def full_bits(self) -> int:
        return self._full

    def neighborhood(self, v: int) -> frozenset[int]:
        return frozenset(bits(self._adj[v]))

    def antineighborhood(self, v: int) -> frozenset[int]:
        """All vertices with no edge to v, including v itself."""
        return frozenset(bits(self._full & ~self._adj[v]))

    def vertices(self) -> range:
        return range(self.n)

    # -- predicates ----------------------------------------------------

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return not self.edges

    def is_independent(self, vertices: Iterable[int]) -> bool:
        m = mask_of(vertices)
        if m & ~self._full:
            raise ValueError("vertex out of range")
        for v in bits(m):
            if self._adj[v] & m:
                return False
        return True

    def is_maximal_independent(self, vertices: Iterable[int]) -> bool:
        m = mask_of(vertices)
        if m & ~self._full:
            raise ValueError("vertex out of range")
        covered = m
        for v in bits(m):
            if self._adj[v] & m:
                return False
            covered |= self._adj[v]
        return covered == self._full

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``vertices`` plus the old->new id map.

    New ids follow the sorted order of the kept vertices, so extraction
    is deterministic and the map is monotone.
    """
    kept = sorted(set(vertices))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError("vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    inside = mask_of(kept)
    edges = []
    for new, u in enumerate(kept):
        later = g._adj[u] & inside & -(2 << u)
        while later:
            low = later & -later
            edges.append((new, remap[low.bit_length() - 1]))
            later ^= low
    return Graph(len(kept), edges), remap


def remove_vertices(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    drop = set(vertices)
    return induced_subgraph(g, (v for v in range(g.n) if v not in drop))


def complement(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.adjacent(u, v)
    ]
    return Graph(g.n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for (u, v) in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def set_precedes(a: Iterable[int], b: Iterable[int]) -> bool:
    """Deterministic total order on vertex sets used for every tie-break.

    ``a`` precedes ``b`` iff the smallest vertex on which they differ
    belongs to ``a``.  Unlike sorted-tuple comparison this order is
    stable under unioning both sides with a common disjoint set, which
    the solver's splice step relies on.
    """
    sa, sb = set(a), set(b)
    diff = sa ^ sb
    if not diff:
        return False
    return min(diff) in sa


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with one integer weight per vertex."""

    graph: Graph
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.n:
            raise ValueError("need exactly one weight per vertex")
        for w in self.weights:
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError("weights must be integers")

    @property
    def n(self) -> int:
        return self.graph.n

    def weight_of(self, vertices: Iterable[int]) -> int:
        return sum(self.weights[v] for v in vertices)


def unit_weights(g: Graph) -> WeightedGraph:
    return WeightedGraph(g, (1,) * g.n)
