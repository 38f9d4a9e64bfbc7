"""Immutable simple graphs with bitmask adjacency, plus weighted wrappers.

Vertices are 0..n-1.  Adjacency is kept as one Python int per vertex
(bit v set on adj[u] iff u ~ v), which makes neighborhood algebra,
independence tests and subgraph extraction cheap at desk scale.  The
masks are all a graph stores; its edge set is read off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order.

    Clearing the low bit copies the whole remaining integer, so past
    1,024 bits a mask of more than 16 vertices is walked on its reversed
    binary text instead, in time linear in the mask's length; a sparser
    one (a small component at high ids) is cheaper bit by bit.
    """
    if mask.bit_length() > 1024 and mask.bit_count() > 16:
        text = bin(mask)[:1:-1]
        i = text.find("1")
        while i >= 0:
            yield i
            i = text.find("1", i + 1)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def demand_masks(n: int, demands: Iterable[Iterable[int]]) -> list[int]:
    """Each demand as a bitmask; ValueError on an empty one or on a
    vertex outside 0..n-1."""
    out = []
    for d in demands:
        hitset = frozenset(d)
        if not hitset:
            raise ValueError("empty demand hitset")
        if any(not (0 <= u < n) for u in hitset):
            raise ValueError(f"demand hitset {sorted(hitset)} out of range")
        out.append(mask_of(hitset))
    return out


class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_full")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n, self._adj, self._full = n, tuple(adj), (1 << n) - 1

    @classmethod
    def from_masks(cls, adj: Sequence[int]) -> Graph:
        """The graph with these masks, taken as symmetric, loop-free and in range."""
        g = cls.__new__(cls)
        g.n, g._adj, g._full = len(adj), tuple(adj), (1 << len(adj)) - 1
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as (u, v) with u < v, read off the adjacency masks."""
        return frozenset(
            (u, v) for u, nbrs in enumerate(self._adj) for v in bits(nbrs >> u + 1 << u + 1)
        )

    def edge_count(self) -> int:
        return sum(nbrs.bit_count() for nbrs in self._adj) // 2

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

    # -- predicates ----------------------------------------------------

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return not any(self._adj)

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
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``vertices`` plus the old->new id map.

    New ids follow the sorted order of the kept vertices, so extraction
    is deterministic and the map is monotone.
    """
    kept = sorted(set(vertices))
    if kept and not (0 <= kept[0] and kept[-1] < g.n):
        raise ValueError("vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    keep = mask_of(kept)
    adj = [mask_of(remap[u] for u in bits(g._adj[v] & keep)) for v in kept]
    return Graph.from_masks(adj), remap


def complement(g: Graph) -> Graph:
    return Graph.from_masks([g.full_bits ^ nbrs ^ 1 << v for v, nbrs in enumerate(g._adj)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph.from_masks(g._adj + tuple(nbrs << g.n for nbrs in h._adj))


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
