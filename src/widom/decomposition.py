"""Homogeneous sets, good vertices, and the binary decomposition tree.

Graphs in scope either are leaves (complete, or at most one edge), have
a homogeneous set (a nontrivial module), or are prime and then must
contain a vertex whose antineighborhood has at most one edge.  Prime
graphs with no such vertex are outside the guaranteed class; the search
raises NotInClassError carrying a diagnostic witness when one exists.

``classify_mask`` is the one place that decides which case applies.  It
takes the input graph and a bitmask of its vertex ids, so ``build_tree``
and both solver modes walk subsets of the input without relabeling;
the tree relabels only to store each node's own graph.
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

    ``graph`` is the input graph, and ``occurrence``, when one exists,
    is an induced P5 or co-P5 of the offending subgraph, given in the
    vertex ids of ``graph``.  This signals bad input, not an internal
    failure.
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
# mask-level helpers
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


def find_good_vertex(g: Graph) -> int:
    """Smallest-id vertex v with at most one edge in G - N(v).

    Meant for prime, non-complete graphs with more than one edge; raises
    NotInClassError when no vertex qualifies.
    """
    v = find_good_vertex_mask(g._adj, g.full_bits)
    if v < 0:
        _raise_not_in_class(g, g.full_bits)
    return v


class NodeKind(Enum):
    LEAF_COMPLETE = "leaf_complete"
    LEAF_F = "leaf_f"
    HOMOGENEOUS = "homogeneous"
    ANTINEIGHBORHOOD = "antineighborhood"


def _raise_not_in_class(g: Graph, mask: int) -> None:
    """Raise NotInClassError for the subgraph of g on mask, in g's ids."""
    verts = list(bits(mask))
    sub, _ = induced_subgraph(g, verts)
    occ = find_induced(sub, P5) or find_induced(sub, CO_P5)
    if occ is not None:
        occ = Occurrence(occ.pattern_name, tuple(verts[i] for i in occ.vertices))
    raise NotInClassError(g, occ)


def classify_mask(g: Graph, mask: int) -> tuple[NodeKind, int]:
    """The case of the decomposition that applies to g's subgraph on mask.

    The one case chain, read by ``build_tree`` and both solver modes:
    (LEAF_COMPLETE, 0) when complete, else (LEAF_F, 0) when it has at
    most one edge, else (HOMOGENEOUS, module mask) for the first
    smallest-pair module, else (ANTINEIGHBORHOOD, good vertex).  Raises
    NotInClassError, in g's ids, when it is prime with no good vertex.
    """
    adj = g._adj
    size = mask.bit_count()
    edges = edge_count_within(adj, mask)
    if edges == size * (size - 1) // 2:
        return NodeKind.LEAF_COMPLETE, 0
    if edges <= 1:
        return NodeKind.LEAF_F, 0
    module = find_module_mask(adj, mask)
    if module:
        return NodeKind.HOMOGENEOUS, module
    v = find_good_vertex_mask(adj, mask)
    if v < 0:
        _raise_not_in_class(g, mask)
    return NodeKind.ANTINEIGHBORHOOD, v


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


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _build(g: Graph, mask: int) -> DecompNode:
    kind, arg = classify_mask(g, mask)
    graph, local = induced_subgraph(g, bits(mask))
    to_root = tuple(local)
    if kind is NodeKind.HOMOGENEOUS:
        h = _low(arg)
        return DecompNode(
            kind,
            graph,
            to_root,
            label=(_low(arg & ~(1 << h)), _low(mask & ~arg)),
            module=frozenset(local[v] for v in bits(arg)),
            rep=local[h],
            children=(_build(g, arg), _build(g, (mask & ~arg) | 1 << h)),
        )
    if kind is NodeKind.ANTINEIGHBORHOOD:
        v = arg
        return DecompNode(
            kind,
            graph,
            to_root,
            label=(v, _low(g._adj[v] & mask)),
            rep=local[v],
            children=(_build(g, mask & ~g._adj[v]), _build(g, mask & ~(1 << v))),
        )
    return DecompNode(kind, graph, to_root)


def build_tree(g: Graph) -> DecompTree:
    """Deterministic decomposition tree of g (root ids in all labels)."""
    root = _build(g, g.full_bits)
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
