"""Sat-graphs: recognition, the edge-replacement transforms, and checkers.

A sat-graph partitions V into a clique A and a set B inducing a perfect
matching ("B-edges"), such that no A-vertex sees both endpoints of one
B-edge.  Each gamma step below rewires one A-B edge in a way that
raises the independent domination number by exactly one; applied to
every original A-B edge, the steps destroy all induced dominoes and
3-suns.  One call runs its steps on one list of adjacency masks, then
builds the output graph and verifies its partition once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, bits, mask_of
from .oracle import OracleBoundError
from .patterns import DOMINO, SUN3, iter_induced


@dataclass(frozen=True)
class SatPartition:
    """A verified sat-partition; b_matching lists B-edges sorted."""

    a: frozenset[int]
    b: frozenset[int]
    b_matching: tuple[tuple[int, int], ...]

    @property
    def s(self) -> int:
        return len(self.b_matching)


@dataclass(frozen=True)
class TransformMarkers:
    """Which vertices/edges were added by gamma applications."""

    alpha_new: frozenset[int]
    beta_new_edges: tuple[tuple[int, int], ...]

    @property
    def beta_new(self) -> frozenset[int]:
        return frozenset(v for e in self.beta_new_edges for v in e)


def verify_sat_partition(g: Graph, a: Iterable[int], b: Iterable[int]) -> str | None:
    """None if (A, B) is a valid sat-partition, else the first violation."""
    aset, bset = frozenset(a), frozenset(b)
    if aset & bset:
        return f"A and B overlap on {sorted(aset & bset)}"
    outside = sorted(v for v in aset | bset if not 0 <= v < g.n)
    if outside:
        return f"partition has vertices {outside} out of range for n={g.n}"
    adj, amask, bmask = g._adj, mask_of(aset), mask_of(bset)
    if amask | bmask != g.full_bits:
        return f"partition misses vertices {list(bits(g.full_bits & ~(amask | bmask)))}"
    above = amask
    for u in bits(amask):
        above ^= 1 << u
        if above & ~adj[u]:
            return f"A is not a clique: {u} !~ {next(bits(above & ~adj[u]))}"
    for v in bits(bmask):
        d = (adj[v] & bmask).bit_count()
        if d != 1:
            return f"B vertex {v} has {d} B-neighbors, expected 1"
    for v in bits(bmask):
        partner = next(bits(adj[v] & bmask))
        common = adj[v] & adj[partner] & amask
        if partner > v and common:
            return f"triangle ({next(bits(common))},{v},{partner}) over a B-edge"
    return None


def sat_partition(g: Graph, a: Iterable[int], b: Iterable[int]) -> SatPartition:
    """Build a SatPartition, raising ValueError when (A, B) is invalid."""
    violation = verify_sat_partition(g, a, b)
    if violation is not None:
        raise ValueError(f"not a sat-partition: {violation}")
    aset, bset = frozenset(a), frozenset(b)
    bmask = mask_of(bset)
    matching = tuple((v, w) for v in bits(bmask) for w in bits(g.adj_bits(v) & bmask) if v < w)
    return SatPartition(aset, bset, matching)


def find_sat_partition(g: Graph) -> SatPartition | None:
    """Exhaustive search for a valid sat-partition (first one found).

    B is a union of vertex-disjoint edges, tried in lexicographic order.
    Only edges on no triangle can be B-edges: a common neighbour of both
    ends would be an A-vertex seeing both, or a second B-neighbour.
    Exponential, hence the bound of 20 vertices, past which it raises
    OracleBoundError.
    """
    if g.n > 20:
        raise OracleBoundError(
            f"sat-partition search limited to n <= 20, got n = {g.n}; "
            "give a known partition instead (--partition)"
        )
    adj = g._adj
    all_edges = sorted((u, v) for u, v in g.edges if not adj[u] & adj[v])

    def candidates(idx: int, used: int, chosen: list[tuple[int, int]]):
        yield tuple(chosen)
        for i in range(idx, len(all_edges)):
            u, v = all_edges[i]
            if used >> u & 1 or used >> v & 1:
                continue
            chosen.append((u, v))
            yield from candidates(i + 1, used | 1 << u | 1 << v, chosen)
            chosen.pop()

    for matching in candidates(0, 0, []):
        bset = frozenset(v for e in matching for v in e)
        aset = frozenset(range(g.n)) - bset
        if verify_sat_partition(g, aset, bset) is None:
            return SatPartition(aset, bset, tuple(sorted(matching)))
    return None


@dataclass(frozen=True)
class GammaResult:
    graph: Graph
    partition: SatPartition
    markers: TransformMarkers
    v: int
    x: int
    y: int


@dataclass(frozen=True)
class StarResult:
    graph: Graph
    partition: SatPartition
    markers: TransformMarkers
    applied_edges: tuple[tuple[int, int], ...]


def _apply_gamma(g: Graph, part: SatPartition, todo: list[tuple[int, int]]) -> StarResult:
    """Gamma on each (a, b) of ``todo`` in turn, step i adding vertices
    n+3i, n+3i+1, n+3i+2: one list of masks, one graph, one verification.

    Every new A-vertex ends up seeing all of the final A, so the clique
    rows are set once after the loop."""
    adj, n, new_edges = list(g._adj), g.n, []
    for a, b in todo:
        if a not in part.a or b not in part.b or not adj[a] >> b & 1:
            raise ValueError(f"({a},{b}) is not an A-B edge of the partition")
        v, x, y = n, n + 1, n + 2
        adj[a] ^= 1 << b | 1 << y
        adj[b] ^= 1 << a | 1 << v
        adj += [1 << b | 1 << x, 1 << v | 1 << y, 1 << x | 1 << a]
        new_edges.append((x, y))
        n += 3
    markers = TransformMarkers(frozenset(range(g.n, n, 3)), tuple(new_edges))
    alpha_new, a_side = mask_of(markers.alpha_new), part.a | markers.alpha_new
    for u in part.a:
        adj[u] |= alpha_new
    clique = mask_of(a_side)
    for v in markers.alpha_new:
        adj[v] |= clique ^ 1 << v
    g2 = Graph.from_masks(adj)
    part2 = sat_partition(g2, a_side, part.b | markers.beta_new)
    return StarResult(g2, part2, markers, tuple(todo))


def gamma_transform(g: Graph, part: SatPartition, a: int, b: int) -> GammaResult:
    """Rewire one A-B edge: new A-vertex v, new B-edge (x,y), and
    (a,b) replaced by the path edges (v,b), (v,x), (a,y).

    Original vertices keep their ids; the three new vertices take
    n, n+1, n+2.  Raises ValueError unless (a, b) is an A-B edge.
    """
    res = _apply_gamma(g, part, [(a, b)])
    return GammaResult(res.graph, res.partition, res.markers, g.n, g.n + 1, g.n + 2)


def ab_edges(g: Graph, part: SatPartition) -> list[tuple[int, int]]:
    """The (a, b) pairs with a in A, b in B, ab an edge; sorted."""
    bmask = mask_of(part.b)
    return [(a, b) for a in sorted(part.a) for b in bits(g.adj_bits(a) & bmask)]


def star_transform(g: Graph, part: SatPartition) -> StarResult:
    """Apply gamma to every *original* A-B edge, in lexicographic order.

    Edges created by earlier gamma steps are left alone; only the input
    graph's A-B edges are rewired, which is what makes the result free
    of induced dominoes and 3-suns.
    """
    return _apply_gamma(g, part, ab_edges(g, part))


def check_obs1(g: Graph, part: SatPartition) -> str | None:
    """Forced-placement check for induced dominoes and 3-suns.

    Every induced domino must have its two degree-3 vertices in A and
    the other four in B; every induced 3-sun must have its triangle in
    A and its three tips in B.  Returns the first violation, else None.
    """
    for occ in iter_induced(g, DOMINO):
        hosts = occ.vertices
        for i in (2, 3):
            if hosts[i] not in part.a:
                return f"domino {hosts}: vertex {hosts[i]} should be in A"
        for i in (0, 1, 4, 5):
            if hosts[i] not in part.b:
                return f"domino {hosts}: vertex {hosts[i]} should be in B"
    for occ in iter_induced(g, SUN3):
        hosts = occ.vertices
        for i in (0, 1, 2):
            if hosts[i] not in part.a:
                return f"sun3 {hosts}: vertex {hosts[i]} should be in A"
        for i in (3, 4, 5):
            if hosts[i] not in part.b:
                return f"sun3 {hosts}: vertex {hosts[i]} should be in B"
    return None


def _adjacent_to_edge(g: Graph, v: int, edge: tuple[int, int]) -> bool:
    return g.adjacent(v, edge[0]) or g.adjacent(v, edge[1])


def check_gstar_properties(
    g: Graph, part: SatPartition, markers: TransformMarkers
) -> str | None:
    """Verify the three structural properties of a star-transform output.

    (1) no old A-vertex is adjacent to an old B-edge;
    (2) every new A-vertex is adjacent to exactly one new B-edge and
        exactly one old B-edge;
    (3) each new B-edge has one endpoint whose only A-neighbor is a new
        A-vertex and one whose only A-neighbor is an old A-vertex.
    """
    new_edges = set(markers.beta_new_edges)
    old_edges = [e for e in part.b_matching if e not in new_edges]
    alpha_old = part.a - markers.alpha_new

    for v in sorted(alpha_old):
        for e in old_edges:
            if _adjacent_to_edge(g, v, e):
                return f"old A-vertex {v} adjacent to old B-edge {e}"

    for v in sorted(markers.alpha_new):
        cnt_new = sum(1 for e in markers.beta_new_edges if _adjacent_to_edge(g, v, e))
        cnt_old = sum(1 for e in old_edges if _adjacent_to_edge(g, v, e))
        if cnt_new != 1:
            return f"new A-vertex {v} adjacent to {cnt_new} new B-edges, expected 1"
        if cnt_old != 1:
            return f"new A-vertex {v} adjacent to {cnt_old} old B-edges, expected 1"

    amask = mask_of(part.a)
    for x, y in markers.beta_new_edges:
        sides = []
        for end in (x, y):
            anbrs = list(bits(g.adj_bits(end) & amask))
            if len(anbrs) != 1:
                return f"B-edge endpoint {end} has {len(anbrs)} A-neighbors, expected 1"
            sides.append(anbrs[0] in markers.alpha_new)
        if sorted(sides) != [False, True]:
            return f"new B-edge ({x},{y}) lacks the new/old A-neighbor split"
    return None
