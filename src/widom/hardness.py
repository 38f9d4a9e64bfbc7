"""Hardness gadget: dominating set reduced to weighted independent domination.

Each source vertex v becomes a three-vertex column v1-v2-v3 with weights
1, 2, 2n.  Columns are tied together by cross edges (w2,v3) and (w3,v2)
for every source edge wv, and the third layer forms a clique.  A source
dominating set of size k then corresponds exactly to an independent
dominating set of weight n+k in the target, and for sources without
cycles of length 3..6 the target lands in the C4-free, 3-sun-free
sat-graph class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, WeightedGraph, bits, mask_of
from .oracle import OracleBoundError, OracleReport, oracle_min_dominating, oracle_wid
from .patterns import C3, C4, C5, C6, SUN3, Occurrence, find_induced
from .satgraph import SatPartition, sat_partition, verify_sat_partition


@dataclass(frozen=True)
class WidReduction:
    source: Graph
    target: WeightedGraph
    # layer_map[v] = (v1, v2, v3) target ids for source vertex v
    layer_map: tuple[tuple[int, int, int], ...]
    partition: SatPartition


def build_wid_reduction(source: Graph) -> WidReduction:
    """Construct the weighted target instance for a source graph.

    Target ids are contiguous per column: source vertex v maps to
    (3v, 3v+1, 3v+2).  Works for any source; the class guarantees
    only hold when the source has no cycles of length 3 through 6.
    """
    n = source.n
    clique = mask_of(range(2, 3 * n, 3))
    adj = []
    for v in range(n):
        nbrs = list(bits(source.adj_bits(v)))
        v1, v2, v3 = 3 * v, 3 * v + 1, 3 * v + 2
        adj.append(1 << v2)
        adj.append(1 << v1 | 1 << v3 | mask_of(3 * w + 2 for w in nbrs))
        adj.append(clique ^ 1 << v3 | 1 << v2 | mask_of(3 * w + 1 for w in nbrs))
    target = Graph.from_masks(adj)
    weights = (1, 2, 2 * n) * n
    part = sat_partition(target, range(2, 3 * n, 3), [u for u in range(3 * n) if u % 3 != 2])
    layer = tuple((3 * v, 3 * v + 1, 3 * v + 2) for v in range(n))
    return WidReduction(source, WeightedGraph(target, weights), layer, part)


@dataclass(frozen=True)
class ReductionClassReport:
    partition_violation: str | None
    c4: Occurrence | None
    source_short_cycle: Occurrence | None
    sun3: Occurrence | None

    @property
    def source_in_class(self) -> bool:
        return self.source_short_cycle is None

    @property
    def ok(self) -> bool:
        """Everything the construction guarantees actually holds.

        Sun3-freeness is only promised for sources without cycles of
        length 3..6; for other sources the Sun3 outcome is recorded but
        not judged.
        """
        if self.partition_violation is not None or self.c4 is not None:
            return False
        if self.source_in_class and self.sun3 is not None:
            return False
        return True


def check_reduction_class(red: WidReduction) -> ReductionClassReport:
    g = red.target.graph
    violation = verify_sat_partition(g, red.partition.a, red.partition.b)
    c4 = find_induced(g, C4)
    short = None
    for pat in (C3, C4, C5, C6):
        short = find_induced(red.source, pat)
        if short is not None:
            break
    sun3 = find_induced(g, SUN3)
    return ReductionClassReport(violation, c4, short, sun3)


@dataclass(frozen=True)
class EquivalenceReport:
    gamma_dom: OracleReport
    idw_target: OracleReport
    equal: bool


def check_reduction_equivalence(source: Graph, bound: int = 16) -> EquivalenceReport:
    """Brute-force both sides of the value equation id_w(G') = n + gamma(G),
    for sources with at most ``bound`` vertices (OracleBoundError past it).

    When the values agree, the witness maps carry each optimum across:
    the minimum dominating set forward to an optimal IDS of the target,
    and the optimal IDS back to a minimum dominating set of the source.
    A map that fails raises AssertionError.
    """
    if source.n > bound:
        raise OracleBoundError(f"equivalence check limited to n <= {bound}, got n = {source.n}")
    red = build_wid_reduction(source)
    dom = oracle_min_dominating(source)
    idw = oracle_wid(red.target, bound=3 * max(source.n, 1))
    equal = idw.value == source.n + dom.value
    if equal:
        target = red.target
        ids = dominating_to_ids(red, dom.witness)
        if not (target.graph.is_maximal_independent(ids) and target.weight_of(ids) == idw.value):
            raise AssertionError(f"{sorted(dom.witness)} maps to {sorted(ids)}, no optimal IDS")
        back = ids_to_dominating(red, idw.witness)
        covered = mask_of(back)
        for v in back:
            covered |= source.adj_bits(v)
        if len(back) != dom.value or covered != source.full_bits:
            raise AssertionError(f"{sorted(idw.witness)} maps to {sorted(back)}, no minimum dominating set")
    return EquivalenceReport(dom, idw, equal)


def dominating_to_ids(red: WidReduction, dom: frozenset[int]) -> frozenset[int]:
    """The forward witness map: v2 for chosen vertices, v1 otherwise."""
    out = set()
    for v in range(red.source.n):
        v1, v2, _ = red.layer_map[v]
        out.add(v2 if v in dom else v1)
    return frozenset(out)


def ids_to_dominating(red: WidReduction, ids: frozenset[int]) -> frozenset[int]:
    """The backward witness map; valid when the IDS weight is below 2n."""
    chosen = set()
    for v in range(red.source.n):
        _, v2, _ = red.layer_map[v]
        if v2 in ids:
            chosen.add(v)
    return frozenset(chosen)
