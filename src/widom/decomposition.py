"""Homogeneous sets, good vertices, and the binary decomposition tree.

Graphs in scope either are leaves (complete, or at most one edge), have
a homogeneous set (a nontrivial module), or are prime and then must
contain a vertex whose antineighborhood has at most one edge.  Prime
graphs with no such vertex are outside the guaranteed class; the search
raises NotInClassError carrying a diagnostic witness when one exists.

Internal helpers operate on (adjacency bitmasks, vertex bitmask) so the
solver can reuse them on root-id subsets without relabeling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .graph import Graph, bits, induced_subgraph
from .patterns import CO_P5, P5, Occurrence, find_induced


class NotInClassError(Exception):
    """The input fell outside the guaranteed graph class.

    Carries the offending (sub)graph and, when one exists, an induced
    P5 or co-P5 occurrence as evidence.  This signals bad input, not an
    internal failure.
    """

    def __init__(self, graph: Graph, occurrence: Occurrence | None):
        self.graph = graph
        self.occurrence = occurrence
        detail = (
            f"induced {occurrence.pattern_name} at {occurrence.vertices}"
            if occurrence
            else "no good vertex exists"
        )
        super().__init__(f"graph outside the solvable class: {detail}")


# ---------------------------------------------------------------------------
# mask-level helpers (shared with the solver)
# ---------------------------------------------------------------------------


def edge_count_within(adj: Sequence[int], mask: int, limit: int = 1 << 60) -> int:
    """Number of edges inside ``mask``, early-exiting past ``limit``."""
    count = 0
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        count += (adj[v] & rest).bit_count()
        if count > limit:
            return count
    return count


def is_complete_mask(adj: Sequence[int], mask: int) -> bool:
    size = mask.bit_count()
    return edge_count_within(adj, mask) == size * (size - 1) // 2


def find_module_mask(adj: Sequence[int], mask: int) -> int:
    """Smallest-pair module closure; 0 when the graph on mask is prime.

    For each vertex pair (x, y) in lexicographic order, grow {x, y} into
    the smallest module containing it.  An outside vertex splits the set
    exactly when it tells x apart from some member u, so each new member
    u brings in every outside vertex of adj[x] ^ adj[u].  The first
    closure that is a proper subset of mask is returned as a bitmask.
    """
    verts = list(bits(mask))
    for i, x in enumerate(verts):
        ax = adj[x]
        for y in verts[i + 1:]:
            grown = (1 << x) | (1 << y)
            pending = 1 << y
            while pending:
                low = pending & -pending
                pending ^= low
                new = (ax ^ adj[low.bit_length() - 1]) & mask & ~grown
                if new:
                    grown |= new
                    if grown == mask:
                        break
                    pending |= new
            if grown != mask:
                return grown
    return 0


def find_good_vertex_mask(adj: Sequence[int], mask: int) -> int:
    """Smallest vertex whose antineighborhood within mask has <= 1 edge."""
    for v in bits(mask):
        anti = mask & ~adj[v]
        if edge_count_within(adj, anti, limit=1) <= 1:
            return v
    return -1


# ---------------------------------------------------------------------------
# Graph-level API
# ---------------------------------------------------------------------------


def find_homogeneous_set(g: Graph) -> frozenset[int] | None:
    """A nontrivial module of g (2 <= |M| < n), or None if g is prime."""
    m = find_module_mask(g._adj, g.full_bits)
    return frozenset(bits(m)) if m else None


def is_prime(g: Graph) -> bool:
    return find_homogeneous_set(g) is None


def _raise_not_in_class(g: Graph) -> None:
    occ = find_induced(g, P5) or find_induced(g, CO_P5)
    raise NotInClassError(g, occ)


def find_good_vertex(g: Graph) -> int:
    """Smallest-id vertex v with at most one edge in G - N(v).

    Meant for prime, non-complete graphs with more than one edge; raises
    NotInClassError when no vertex qualifies.
    """
    v = find_good_vertex_mask(g._adj, g.full_bits)
    if v < 0:
        _raise_not_in_class(g)
    return v


class NodeKind(Enum):
    LEAF_COMPLETE = "leaf_complete"
    LEAF_F = "leaf_f"
    HOMOGENEOUS = "homogeneous"
    ANTINEIGHBORHOOD = "antineighborhood"


@dataclass(frozen=True)
class DecompNode:
    kind: NodeKind
    graph: Graph
    to_root: tuple[int, ...]
    label: tuple[int, int] | None = None  # root ids, internal nodes only
    module: frozenset[int] | None = None  # local ids, homogeneous nodes
    rep: int | None = None  # local id: h for homogeneous, v for antineighborhood
    children: tuple["DecompNode", ...] = field(default_factory=tuple)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class DecompTree:
    root: DecompNode
    node_count: int
    internal_count: int


def _build(g: Graph, to_root: tuple[int, ...]) -> DecompNode:
    if g.is_complete():
        return DecompNode(NodeKind.LEAF_COMPLETE, g, to_root)
    if len(g.edges) <= 1:
        return DecompNode(NodeKind.LEAF_F, g, to_root)

    module = find_homogeneous_set(g)
    if module is not None:
        h = min(module)
        a = min(module - {h})
        b = min(v for v in range(g.n) if v not in module)
        inner, in_map = induced_subgraph(g, module)
        outer, out_map = induced_subgraph(
            g, [v for v in range(g.n) if v not in module or v == h]
        )
        inner_root = tuple(to_root[old] for old in sorted(in_map))
        outer_root = tuple(to_root[old] for old in sorted(out_map))
        return DecompNode(
            NodeKind.HOMOGENEOUS,
            g,
            to_root,
            label=(to_root[a], to_root[b]),
            module=module,
            rep=h,
            children=(_build(inner, inner_root), _build(outer, outer_root)),
        )

    v = find_good_vertex(g)  # raises NotInClassError when absent
    b = min(g.neighborhood(v))
    anti_local = sorted(bits(g.full_bits & ~g.adj_bits(v)))
    anti, _ = induced_subgraph(g, anti_local)
    anti_root = tuple(to_root[old] for old in anti_local)
    rest_local = [u for u in range(g.n) if u != v]
    rest, _ = induced_subgraph(g, rest_local)
    rest_root = tuple(to_root[old] for old in rest_local)
    return DecompNode(
        NodeKind.ANTINEIGHBORHOOD,
        g,
        to_root,
        label=(to_root[v], to_root[b]),
        rep=v,
        children=(_build(anti, anti_root), _build(rest, rest_root)),
    )


def build_tree(g: Graph) -> DecompTree:
    """Deterministic decomposition tree of g (root ids in all labels)."""
    root = _build(g, tuple(range(g.n)))
    nodes = list(root.walk())
    internal = sum(1 for node in nodes if node.label is not None)
    return DecompTree(root, len(nodes), internal)


def tree_to_json(tree: DecompTree) -> dict:
    def encode(node: DecompNode) -> dict:
        out: dict = {
            "kind": node.kind.value,
            "n": node.graph.n,
            "vertices": list(node.to_root),
        }
        if node.label is not None:
            out["label"] = list(node.label)
        if node.module is not None:
            out["module"] = sorted(node.to_root[v] for v in node.module)
        if node.rep is not None:
            out["rep"] = node.to_root[node.rep]
        if node.children:
            out["children"] = [encode(c) for c in node.children]
        return out

    return {
        "node_count": tree.node_count,
        "internal_count": tree.internal_count,
        "root": encode(tree.root),
    }


def tree_to_dot(tree: DecompTree) -> str:
    lines = ["digraph decomposition {", "  node [shape=box];"]
    counter = 0

    def emit(node: DecompNode) -> int:
        nonlocal counter
        my_id = counter
        counter += 1
        text = f"{node.kind.value}\\nn={node.graph.n}"
        if node.label is not None:
            text += f"\\nlabel=({node.label[0]},{node.label[1]})"
        lines.append(f'  n{my_id} [label="{text}"];')
        for child in node.children:
            child_id = emit(child)
            lines.append(f"  n{my_id} -> n{child_id};")
        return my_id

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines)


def tree_to_json_text(tree: DecompTree) -> str:
    return json.dumps(tree_to_json(tree), indent=2, sort_keys=True)
