"""Homogeneous sets, good vertices, and the binary decomposition tree.

Graphs in scope either are leaves (complete, or at most one edge), have
a homogeneous set (a nontrivial module), or are prime and then must
contain a vertex whose antineighborhood has at most one edge.  Prime
graphs with no such vertex are outside the guaranteed class; the search
raises NotInClassError carrying a diagnostic witness when one exists.

``classify_mask`` is the tree's case chain: it decides which case
applies and hands out the representative and the two child masks.  It
takes the input graph and a bitmask of its vertex ids, so ``build_tree``
and the naive mode walk subsets of the input without relabeling.  It
tests for the two leaf kinds, complete masks and masks with at most one
edge, by edge count, and hands every other mask to ``nonleaf_split``.
The sound solver, whose answer does not depend on how a mask splits,
shares only ``nonleaf_split``, as its last resort: it takes out
isolated vertices, answers a split mask (``split_clique``) as one leaf,
which covers both of the tree's leaf kinds, splits at its
highest-degree vertex when that vertex is good, and else into
components or co-components (the n-ary PARALLEL and SERIES kinds, which
the tree does not use).  Tree nodes hold root-id masks too, and the
JSON and DOT writers read vertex lists and sizes straight off them.

The module a HOMOGENEOUS split uses is the first pair closure, in
lexicographic pair order, that is a proper subset of the mask.
``find_module_mask`` cuts short only closures that would reach the
whole mask, so that choice, and with it every tree label and the tree
JSON text, is the one a full closure of every pair gives.

``find_obstruction`` decides membership in the class on the same
structure.  P5 and co-P5 are prime: a module of G meets an induced copy
H in a module of H, which is then empty, one vertex or all of H.  So H
lies inside a component, a co-component or a module M, or else meets M
in at most one vertex and, with that vertex moved to M's representative
(same neighbours outside M), lies in the quotient.  Components,
co-components, modules and quotients are induced subgraphs too, so G
holds a pattern exactly when one of the prime pieces this splitting
ends in does.  A split piece holds neither: P5 contains 2K2, co-P5
contains C4, and a split graph has no induced 2K2 or C4 (Hammer and
Simeone, "The splittance of a graph", 1981).  Only the prime pieces
that are not split are searched, and the whole graph never is.  The
representative is M's lowest vertex, so moving H's one vertex of M to
it gives a copy that comes no later than H in lexicographic order.
Hence some piece holds a copy no later than any copy H of G, and since
``induced_in_mask`` yields in lexicographic order, the least of the
pieces' first copies is G's first copy: the obstruction a search of the
whole graph gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import ge
from typing import NamedTuple, Sequence

from .graph import Graph, bits
from .patterns import CO_P5, P5, Occurrence, induced_in_mask


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

    Every pair tried before (x, y) closed to all of mask, so ``whole``
    holds the earlier x' and the earlier partners z of x, each of whose
    pair closures with x is mask.  Every vertex the closure of {x, y}
    takes in lies in every module holding x and y; once one of them is
    in ``whole``, that module holds x and x' (or z), hence all of mask,
    and the pair stops there.  On a prime mask this costs about one
    closure step per pair, O(n^2) adjacency reads instead of O(n^3).
    """
    verts = list(bits(mask))
    done = 0
    for i, x in enumerate(verts):
        ax = adj[x]
        whole = done
        for y in verts[i + 1:]:
            grown = (1 << x) | (1 << y)
            pending = 1 << y
            while pending:
                low = pending & -pending
                pending ^= low
                new = (ax ^ adj[low.bit_length() - 1]) & mask & ~grown
                if new & whole:
                    grown = mask
                    break
                if new:
                    grown |= new
                    if grown == mask:
                        break
                    pending |= new
            if grown != mask:
                return grown
            whole |= 1 << y
        done |= 1 << x
    return 0


def components_mask(adj: Sequence[int], mask: int, co: bool = False) -> list[int]:
    """The components of the subgraph on ``mask`` (of its complement when
    ``co``), lowest vertex first, each grown by frontier BFS on masks."""
    parts = []
    while mask:
        reach = frontier = mask & -mask
        while frontier:
            grow = 0
            for u in bits(frontier):
                grow |= ~adj[u] if co else adj[u]
            frontier = grow & mask & ~reach
            reach |= frontier
        parts.append(reach)
        mask ^= reach
    return parts


def split_clique(mask: int, degrees: Sequence[int], degree_sum: int) -> int | None:
    """A clique K of the subgraph on ``mask`` whose other vertices are
    independent, read off its degrees (in ``bits`` order, summing to
    ``degree_sum``), or None when it is not split.

    Hammer and Simeone: with degrees d_1 >= ... >= d_k and m the largest
    i with d_i >= i - 1, it is split exactly when the first m degrees
    sum to m(m - 1) plus the rest.  The sum over any m vertices is at
    most m(m - 1) plus the edges leaving them, which the others' degrees
    bound, so the bound is tight for any m vertices of highest degree:
    they are K.  Isolated vertices have degree 0 and stay out of K
    unless the mask has no edge.
    """
    ordered = sorted(degrees, reverse=True)
    m = sum(map(ge, ordered, range(len(ordered))))
    if 2 * sum(ordered[:m]) != m * (m - 1) + degree_sum:
        return None
    return sum(1 << v for _, v in sorted(zip(degrees, bits(mask)), reverse=True)[:m])


def is_split_mask(adj: Sequence[int], mask: int) -> bool:
    """Whether the subgraph on ``mask`` splits into a clique and an
    independent set (``split_clique``)."""
    degrees = [(adj[v] & mask).bit_count() for v in bits(mask)]
    return split_clique(mask, degrees, sum(degrees)) is not None


def is_good_vertex(adj: Sequence[int], mask: int, v: int) -> bool:
    """Whether v's antineighborhood within mask has at most one edge."""
    return edge_count_within(adj, mask & ~adj[v], limit=1) <= 1


def find_good_vertex_mask(adj: Sequence[int], mask: int) -> int:
    """Smallest good vertex of mask, or -1."""
    return next((v for v in bits(mask) if is_good_vertex(adj, mask, v)), -1)


# ---------------------------------------------------------------------------
# Graph-level API
# ---------------------------------------------------------------------------


def find_homogeneous_set(g: Graph) -> frozenset[int] | None:
    """A nontrivial module of g (2 <= |M| < n), or None if g is prime."""
    m = find_module_mask(g._adj, g.full_bits)
    return frozenset(bits(m)) if m else None


def is_prime(g: Graph) -> bool:
    return find_homogeneous_set(g) is None


def find_obstruction(g: Graph) -> Occurrence | None:
    """The first induced P5 of g in lexicographic order, else its first
    induced co-P5; None exactly when g is in the class.

    An explicit stack walks g's masks.  One of fewer than 5 vertices is
    dropped, a disconnected or co-disconnected one pushes its parts, and
    one with a module M pushes M and the quotient, which keeps M's lowest
    vertex.  A prime one is kept unless it is split.  Each pattern is
    looked for in the kept pieces, P5 first, and the least of the
    pieces' first occurrences is the whole graph's (see the module
    docstring for why this is exact).
    """
    adj = g._adj
    pieces = []
    stack = [g.full_bits]
    while stack:
        mask = stack.pop()
        if mask.bit_count() < 5:
            continue
        parts = components_mask(adj, mask)
        if len(parts) == 1:
            parts = components_mask(adj, mask, co=True)
        if len(parts) > 1:
            stack += parts
        elif module := find_module_mask(adj, mask):
            stack += (module, (mask & ~module) | (module & -module))
        elif not is_split_mask(adj, mask):
            pieces.append(mask)
    for pat in (P5, CO_P5):
        firsts = [hit for piece in pieces if (hit := next(induced_in_mask(adj, piece, pat), None))]
        if firsts:
            return Occurrence(pat.name, min(firsts))
    return None


class NodeKind(Enum):
    LEAF_COMPLETE = "leaf_complete"
    LEAF_F = "leaf_f"
    HOMOGENEOUS = "homogeneous"
    ANTINEIGHBORHOOD = "antineighborhood"
    # n-ary splits into components and co-components; only the sound
    # solver takes them, the tree's case chain does not
    PARALLEL = "parallel"
    SERIES = "series"


class Split(NamedTuple):
    """How a mask splits.  A leaf has no rep and no children.  A module M
    has rep h, its lowest vertex, and children (M, the quotient, which
    keeps h for all of M).  A good vertex v has rep v and children
    (mask - N(v), mask - v).  A disconnected mask has no rep and its
    components as children (PARALLEL); a mask whose complement is
    disconnected has its co-components, or unions of them (SERIES)."""

    kind: NodeKind
    rep: int | None = None
    children: tuple[int, ...] = ()


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def antineighborhood_split(adj: Sequence[int], mask: int, v: int) -> Split:
    """The split of mask at v into mask - N(v), where the MIS holding v
    live, and mask - v."""
    return Split(NodeKind.ANTINEIGHBORHOOD, v, (mask & ~adj[v], mask & ~(1 << v)))


def nonleaf_split(g: Graph, mask: int) -> Split:
    """The split of a mask that is no leaf: a HOMOGENEOUS split at the
    first smallest-pair module, else an ANTINEIGHBORHOOD split at the
    smallest good vertex.  Raises NotInClassError, in g's ids, when the
    mask is prime with no good vertex."""
    adj = g._adj
    module = find_module_mask(adj, mask)
    if module:
        h = _low(module)
        return Split(NodeKind.HOMOGENEOUS, h, (module, (mask & ~module) | 1 << h))
    v = find_good_vertex_mask(adj, mask)
    if v < 0:
        for pat in (P5, CO_P5):
            hit = next(induced_in_mask(adj, mask, pat), None)
            if hit is not None:
                raise NotInClassError(g, Occurrence(pat.name, hit))
        raise NotInClassError(g, None)
    return antineighborhood_split(adj, mask, v)


def classify_mask(g: Graph, mask: int) -> Split:
    """The case of the decomposition that applies to g's subgraph on mask.

    The tree's case chain, read by ``build_tree`` and the naive mode: a
    complete leaf (LEAF_COMPLETE), else a leaf with at most one edge
    (LEAF_F), else ``nonleaf_split``'s module or good vertex.
    """
    size, edges = mask.bit_count(), edge_count_within(g._adj, mask)
    if edges == size * (size - 1) // 2:
        return Split(NodeKind.LEAF_COMPLETE)
    return Split(NodeKind.LEAF_F) if edges <= 1 else nonleaf_split(g, mask)


@dataclass(frozen=True)
class DecompNode:
    """A tree node: its vertices, and on an internal node the rep and the
    subtrees on ``classify_mask``'s child masks, all in root ids."""

    kind: NodeKind
    mask: int
    rep: int | None = None  # h for homogeneous, v for antineighborhood
    children: tuple["DecompNode", ...] = ()

    @property
    def module(self) -> int | None:
        """The module's bitmask, on homogeneous nodes only."""
        return self.children[0].mask if self.kind is NodeKind.HOMOGENEOUS else None

    @property
    def label(self) -> tuple[int, int] | None:
        """On internal nodes, the module's second vertex, or v, paired with
        the lowest vertex outside the first child: outside the module, or
        in N(v)."""
        if not self.children:
            return None
        first, rep = self.children[0].mask, self.rep
        left = rep if self.kind is NodeKind.ANTINEIGHBORHOOD else _low(first & ~(1 << rep))
        return (left, _low(self.mask & ~first))

    def walk(self):
        """Every node of the subtree in preorder, one stack step each."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class DecompTree:
    root: DecompNode

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    @property
    def internal_count(self) -> int:
        return sum(1 for node in self.root.walk() if node.children)


def build_node(g: Graph, mask: int, split: Split) -> DecompNode:
    """The subtree on mask whose root splits as ``split``; every node
    below it splits as ``classify_mask`` says."""
    kind, rep, children = split
    if not children:
        return DecompNode(kind, mask)
    first, second = children
    return DecompNode(kind, mask, rep, (
        build_node(g, first, classify_mask(g, first)),
        build_node(g, second, classify_mask(g, second)),
    ))


def build_tree(g: Graph) -> DecompTree:
    """Deterministic decomposition tree of g (root ids in all labels)."""
    full = g.full_bits
    return DecompTree(build_node(g, full, classify_mask(g, full)))


def tree_to_json(tree: DecompTree) -> dict:
    def encode(node: DecompNode) -> dict:
        out: dict = {
            "kind": node.kind.value,
            "n": node.mask.bit_count(),
            "vertices": list(bits(node.mask)),
        }
        if node.children:
            out.update(label=list(node.label), rep=node.rep)
            out["children"] = [encode(c) for c in node.children]
        if node.module is not None:
            out["module"] = list(bits(node.module))
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
        text = f"{node.kind.value}\\nn={node.mask.bit_count()}"
        if node.children:
            text += "\\nlabel=({},{})".format(*node.label)
        lines.append(f'  n{my_id} [label="{text}"];')
        for child in node.children:
            child_id = emit(child)
            lines.append(f"  n{my_id} -> n{child_id};")
        return my_id

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines)
