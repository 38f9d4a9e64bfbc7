"""Sat-graphs: recognition, the edge-replacement transforms, and checkers.

A sat-graph partitions V into a clique A and a set B inducing a perfect
matching ("B-edges"), such that no A-vertex sees both endpoints of one
B-edge.  The transforms below rewire one A-B edge at a time in a way
that raises the independent domination number by exactly one and, once
applied to every original A-B edge, destroys all induced dominoes and
3-suns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

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
    beta_new: frozenset[int]
    beta_new_edges: tuple[tuple[int, int], ...]


EMPTY_MARKERS = TransformMarkers(frozenset(), frozenset(), ())


def verify_sat_partition(g: Graph, a: Iterable[int], b: Iterable[int]) -> str | None:
    """None if (A, B) is a valid sat-partition, else the first violation."""
    aset, bset = frozenset(a), frozenset(b)
    if aset & bset:
        return f"A and B overlap on {sorted(aset & bset)}"
    if aset | bset != frozenset(range(g.n)):
        missing = sorted(frozenset(range(g.n)) - (aset | bset))
        return f"partition misses vertices {missing}"
    for u, v in combinations(sorted(aset), 2):
        if not g.adjacent(u, v):
            return f"A is not a clique: {u} !~ {v}"
    bmask = mask_of(bset)
    for v in sorted(bset):
        d = (g.adj_bits(v) & bmask).bit_count()
        if d != 1:
            return f"B vertex {v} has {d} B-neighbors, expected 1"
    for v in sorted(bset):
        partner = next(bits(g.adj_bits(v) & bmask))
        if partner < v:
            continue
        for x in sorted(aset):
            if g.adjacent(x, v) and g.adjacent(x, partner):
                return f"triangle ({x},{v},{partner}) over a B-edge"
    return None


def sat_partition(g: Graph, a: Iterable[int], b: Iterable[int]) -> SatPartition:
    """Build a SatPartition, raising ValueError when (A, B) is invalid."""
    violation = verify_sat_partition(g, a, b)
    if violation is not None:
        raise ValueError(f"not a sat-partition: {violation}")
    aset, bset = frozenset(a), frozenset(b)
    bmask = mask_of(bset)
    matching = []
    for v in sorted(bset):
        partner = next(bits(g.adj_bits(v) & bmask))
        if v < partner:
            matching.append((v, partner))
    return SatPartition(aset, bset, tuple(matching))


def find_sat_partition(g: Graph, bound: int = 20) -> SatPartition | None:
    """Exhaustive search for a valid sat-partition (first one found).

    Candidate B sets are built from the set of edges both of whose
    endpoints could still be matched; exponential, hence the bound,
    past which it raises OracleBoundError.
    """
    if g.n > bound:
        raise OracleBoundError(
            f"sat-partition search limited to n <= {bound}, got n = {g.n}; "
            "give a known partition instead (--partition)"
        )
    # B is a union of vertex-disjoint edges; enumerate matchings.
    all_edges = sorted(g.edges)

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
    old_to_new: tuple[int, ...]


@dataclass(frozen=True)
class StarResult:
    graph: Graph
    partition: SatPartition
    markers: TransformMarkers
    old_to_new: tuple[int, ...]
    applied_edges: tuple[tuple[int, int], ...]


def _one_gamma(
    g: Graph, part: SatPartition, markers: TransformMarkers, a: int, b: int
) -> tuple[Graph, SatPartition, TransformMarkers, tuple[int, int, int]]:
    if a not in part.a or b not in part.b or not g.adjacent(a, b):
        raise ValueError(f"({a},{b}) is not an A-B edge of the partition")
    v, x, y = g.n, g.n + 1, g.n + 2
    edges = set(g.edges)
    edges.discard((min(a, b), max(a, b)))
    for other in part.a:
        edges.add((other, v))
    edges.update({(x, y), (min(v, b), max(v, b)), (v, x), (a, y)})
    g2 = Graph(g.n + 3, edges)
    part2 = sat_partition(g2, part.a | {v}, part.b | {x, y})
    markers2 = TransformMarkers(
        markers.alpha_new | {v},
        markers.beta_new | {x, y},
        markers.beta_new_edges + ((x, y),),
    )
    return g2, part2, markers2, (v, x, y)


def gamma_transform(g: Graph, part: SatPartition, a: int, b: int) -> GammaResult:
    """Rewire one A-B edge: new A-vertex v, new B-edge (x,y), and
    (a,b) replaced by the path edges (v,b), (v,x), (a,y).

    Original vertices keep their ids; the three new vertices take
    n, n+1, n+2.  Raises ValueError unless (a, b) is an A-B edge.
    """
    g2, part2, markers, (v, x, y) = _one_gamma(g, part, EMPTY_MARKERS, a, b)
    return GammaResult(g2, part2, markers, v, x, y, tuple(range(g.n)))


def ab_edges(g: Graph, part: SatPartition) -> list[tuple[int, int]]:
    """The (a, b) pairs with a in A, b in B, ab an edge; sorted."""
    return sorted(
        (a, b) for (u, w) in g.edges
        for a, b in ((u, w), (w, u))
        if a in part.a and b in part.b
    )


def star_transform(g: Graph, part: SatPartition) -> StarResult:
    """Apply gamma to every *original* A-B edge, in lexicographic order.

    Edges created by earlier gamma steps are left alone; only the input
    graph's A-B edges are rewired, which is what makes the result free
    of induced dominoes and 3-suns.
    """
    todo = ab_edges(g, part)
    cur, cur_part, markers = g, part, EMPTY_MARKERS
    for a, b in todo:
        cur, cur_part, markers, _ = _one_gamma(cur, cur_part, markers, a, b)
    return StarResult(cur, cur_part, markers, tuple(range(g.n)), tuple(todo))


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
