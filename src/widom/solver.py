"""Exact weighted independent domination via decomposition.

Two modes live here.

``solve_wid``/``solve_constrained`` is the sound mode.  It answers one
query, ``_topk(ctx, mask, forb, k)``: the k best maximal independent
sets (MIS) of the subgraph on ``mask`` that avoid ``forb``, in rank
order.  The case analysis of the decomposition tree splits that query
into smaller ones of the same form:

* a split mask, a clique K and an independent set I, is a leaf that
  lists its few MIS (``_split_sets``) and filters them: a MIS holds at
  most one vertex k of K, and is then {k} + (I - N(k)), or it is I,
  when every vertex of K has a neighbor in I, so there are at most
  |K| + 1.  A complete mask (K = the mask) and a mask with at most one
  edge (K = the edge's ends) are split too;
* the isolated vertices of a mask are in every MIS of it, so a state
  that forbids one has no set, and otherwise adds them to each set of
  the rest;
* at a good vertex v, the MIS holding v are the MIS of the
  antineighborhood X, where v is isolated; X has at most one edge, so
  it is split, and its ``_split_sets`` are at most two; the rest are
  the MIS of G - v that meet N(v).  The MIS of G - v missing N(v) are
  the MIS of X that dominate N(v), so with s of those the first
  ``k + s`` sets of G - v hold the first k that meet it;
* at a module M with representative h, a MIS either avoids M, and is
  then a MIS of the quotient with h forbidden, or is a MIS of M joined
  with a MIS of the quotient that avoids N(h), and so contains h; the
  k best joins come from the two k-best lists;
* a disjoint union (PARALLEL) has as MIS the unions of one MIS per
  component, so the components' k-best lists fold pairwise as a module
  join does, and an empty one empties the result;
* a join (SERIES) has as MIS the MIS of each co-component, since an
  independent set lies in one of them and sees every vertex outside
  it, so the co-components' lists merge; a co-component whose every
  vertex is forbidden has no MIS to merge.

A set's rank orders by weight, then by ``set_precedes``, and adds up
over disjoint unions, so a join's rank is the sum of its parts' ranks
and lists merge by rank alone.  A state is (mask, forb), both root-id
bitmasks, and the memo keeps the longest list computed for it.  A
MIS holds f exactly when it avoids N(f), so requiring f is forbidding
N(f).  ``solve_constrained`` runs one top-1 query per way of picking a
vertex from each demand, with the picked vertices' neighbors forbidden.
The answer is the unique rank-minimum set, whichever split each mask
takes, so the solver picks its own.  ``_split`` makes one degree pass
over the mask, takes out its isolated vertices, and tries, in order:

1. the empty split leaf, when no vertex is left;
2. when the rest's highest-degree vertex v is good, with X its
   antineighborhood (v included, at most one edge):

   a. a split leaf, if X has no edge and the degrees pass the split
      test (Hammer and Simeone);
   b. a PARALLEL split into X's edge xy and the other vertices, when
      neither x nor y sees N(v).  No search is needed: with no vertex
      isolated, every other vertex of X sees N(v), and N(v) + v is
      connected, so that is the only way the rest is disconnected;
   c. a SERIES split into the rest's co-components, when a search in
      the complement from X, which is connected there since v sees
      none of it, stops short of the rest;
   d. else a split at v;
3. a PARALLEL split into the rest's components, when it is disconnected;
4. a SERIES split into its co-components, when its complement is;
5. ``decomposition.nonleaf_split``, the module search and smallest good
   vertex of the tree's ``classify_mask``.

A split graph, and so a threshold graph, is then one state, and a
cograph splits a union or join of m parts at one node, not m - 1
module steps.  A cograph of two or more vertices is a union or a join,
so its masks never split at a good vertex, whose held sets would grow
k: every cograph state has k = 1.  Trying the union and join tests on
every mask first, not only past a good vertex, was measured to cost
composed graphs more work than it saves.  A split mask always reaches
the split test: its highest-degree vertex lies in a clique K of
highest-degree vertices, so its non-neighbors lie in I, with no edge
between them.  So a complete mask gives K = the mask, and one edge xy
gives K = {x, y}.  Other masks skip the test's sort.  The isolated
vertices, the case, the representative and the child masks depend only
on the mask; ``_shape`` asks for them lazily, once per mask per solve,
so masks that forbidden vertices prune away are never classified.  The
tree (``build_tree``) keeps its binary case chain and its two leaf
kinds.

``solve_naive_eq1`` is the deliberately literal mode, a fold over the
nodes of the decomposition tree, whose leaves are split masks listed by
``_split_sets`` too: it evaluates the two-term antineighborhood minimum
and the bare module weight substitution with no demand tracking,
patching undominated deleted vertices greedily into the witness.  Its
value can undershoot the true optimum; the divergence
is pinned by regression tests and surfaced via ``witness_is_mis`` and
value comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .decomposition import (
    DecompNode,
    NodeKind,
    Split,
    antineighborhood_split,
    build_node,
    classify_mask,
    components_mask,
    edge_count_within,
    nonleaf_split,
    split_clique,
)
from .graph import Graph, WeightedGraph, bits, demand_masks, set_precedes, unit_weights

# The sound solver's own leaf kind: a split mask, with children (K, I),
# a clique and an independent set.  The tree never takes it.
SPLIT_LEAF = "split_leaf"


@dataclass(frozen=True)
class Solution:
    vertices: frozenset[int]
    weight: int


def _split_sets(adj: Sequence[int], clique: int, indep: int) -> list[int]:
    """The MIS of a split mask, a clique and an independent set.

    A MIS holds at most one vertex c of the clique, and then is c and the
    independent vertices c misses, maximal since the clique sees c; one
    with none is the independent set, maximal when every clique vertex
    has a neighbor in it.
    """
    sets = [1 << c | indep & ~adj[c] for c in bits(clique)]
    if all(adj[c] & indep for c in bits(clique)):
        sets.append(indep)
    return sets


def _edge_ends(adj: Sequence[int], mask: int) -> int:
    """The two ends of the one edge inside ``mask``, or 0 when it has none."""
    return next((1 << u | adj[u] & mask for u in bits(mask) if adj[u] & mask), 0)


def _co_reach(adj: Sequence[int], mask: int, seed: int) -> int:
    """The co-component of ``seed``, a set connected in the complement, in
    the complement of the subgraph on ``mask``.

    A vertex not reached yet stays unreached by a round exactly when it
    sees every vertex of the frontier, so each round intersects the
    frontier's neighborhoods, and stops once that is empty: then every
    vertex is reached.
    """
    reach = frontier = seed
    while frontier and reach != mask:
        unseen = missed = mask ^ reach
        for u in bits(frontier):
            missed &= adj[u]
            if not missed:
                break
        frontier = unseen ^ missed
        reach |= frontier
    return reach


class _Ctx:
    """Per-solve state of the sound mode: the graph, the shape cache, the
    memo and the weights.

    A set's rank is its weight above n low bits, minus its mask with the
    bit order reversed.  On equal weight, the set holding the smallest
    vertex on which two sets differ has the larger reversed mask, so
    rank order is (weight, ``set_precedes``) order, and ranks add up
    over disjoint unions.
    """

    __slots__ = ("graph", "adj", "shapes", "memo", "stats", "n", "weights")

    def __init__(self, wg: WeightedGraph, stats: dict | None = None):
        self.graph = wg.graph
        self.adj = wg.graph._adj
        self.shapes: dict[int, tuple] = {}
        self.memo: dict = {}
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("subproblems", 0)
        self.stats.setdefault("max_k", 0)
        self.n = wg.n
        self.weights = wg.weights


def _split(ctx: _Ctx, mask: int) -> tuple:
    """How the solver splits ``mask``: (lone, its rank, kind, rep,
    children), ``lone`` being the mask's isolated vertices, which every
    MIS holds, and the rest (kind, rep, children) the ``Split`` of the
    mask without them, or ``SPLIT_LEAF`` with no rep and children (K, I).
    A flat tuple, since a state reads it every time.

    One pass over the mask gives each vertex's degree inside it, hence
    ``lone`` and the highest-degree vertex v (the smallest such id).
    ``lone`` is taken out; an empty rest is the ``SPLIT_LEAF`` (0, 0),
    whose one MIS is empty.  Else, when v is good, the rest is a
    ``SPLIT_LEAF`` if it is split, complete and one-edge masks among
    them, else a union or a join when it is one, else splits at v.  When
    v is not good, the rest splits into its components when it is
    disconnected, or into its co-components when its complement is;
    else it takes the tree's ``nonleaf_split``.
    """
    adj = ctx.adj
    top, top_degree, lone = -1, 0, 0
    degrees = []
    for u in bits(mask):
        d = (adj[u] & mask).bit_count()
        degrees.append(d)
        if d > top_degree:
            top, top_degree = u, d
        elif not d:
            lone |= 1 << u
    rest = mask ^ lone
    if not rest:
        split = (SPLIT_LEAF, None, (0, 0))
    elif (anti_edges := edge_count_within(adj, anti := rest & ~adj[top], limit=1)) <= 1:
        # v is good; when the rest is split, v is in its clique and no edge
        # joins two of its non-neighbors
        clique = None if anti_edges else split_clique(mask, degrees, sum(degrees))
        ends = _edge_ends(adj, anti) if anti_edges else 0
        if clique:
            split = (SPLIT_LEAF, None, (clique, rest ^ clique))
        elif ends and all(adj[u] & rest == ends ^ 1 << u for u in bits(ends)):
            # with no vertex isolated, only that edge can be a component
            split = Split(NodeKind.PARALLEL, None, (ends, rest ^ ends))
        elif _co_reach(adj, rest, anti) != rest:
            # v sees none of its antineighborhood, so that is connected in
            # the complement, and the search from it finds its co-component
            split = Split(NodeKind.SERIES, None, tuple(components_mask(adj, rest, co=True)))
        else:
            split = antineighborhood_split(adj, rest, top)
    elif len(parts := components_mask(adj, rest)) > 1:
        split = Split(NodeKind.PARALLEL, None, tuple(parts))
    elif len(parts := components_mask(adj, rest, co=True)) > 1:
        split = Split(NodeKind.SERIES, None, tuple(parts))
    else:
        split = nonleaf_split(ctx.graph, rest)
    return (lone, _rank(ctx, lone) if lone else 0, *split)


def _shape(ctx: _Ctx, mask: int) -> tuple:
    """``_split`` on ``mask``, computed once per solve."""
    shape = ctx.shapes.get(mask)
    if shape is None:
        shape = ctx.shapes[mask] = _split(ctx, mask)
    return shape


def _rank(ctx: _Ctx, s: int) -> int:
    n, weights = ctx.n, ctx.weights
    w = rev = 0
    for u in bits(s):
        w += weights[u]
        rev |= 1 << (n - 1 - u)
    return (w << n) - rev


def _ranked(ctx: _Ctx, sets: Iterable[int]) -> list[tuple[int, int]]:
    return sorted((_rank(ctx, s), s) for s in sets)


def _product(a: list[tuple[int, int]], b: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """The k best disjoint unions of a set from ``a`` and one from ``b``,
    two lists of (rank, set mask) in rank order.  Ranks add up over the
    union, and pair (i, j) has (i + 1)(j + 1) - 1 pairs ranked above it,
    so row i needs only the first k // (i + 1) sets of ``b``."""
    return sorted((ra + rb, ma | mb) for i, (ra, ma) in enumerate(a) for rb, mb in b[: k // (i + 1)])[:k]


def _topk(ctx: _Ctx, mask: int, forb: int, k: int) -> list[tuple[int, int]]:
    """The k best MIS of the subgraph on ``mask`` that avoid ``forb``, as
    (rank, set mask) pairs in rank order.

    ``forb`` lies inside ``mask``; forbidding N(f) asks for sets holding
    f.  A list shorter than the k it was computed for holds every such
    set, so the memo answers any later k from it; a longer k than stored
    is recomputed.

    A good vertex v asks one state below it, (mask - v, forb - v), so a
    chain of good-vertex splits from forb = 0 has one state per mask,
    and k grows at v only by the held sets that dominate N(v), at most
    two.  The count through module steps is measured, not bounded.
    """
    state = (mask, forb)
    hit = ctx.memo.get(state)
    if hit is not None and (hit[0] >= k or len(hit[1]) < hit[0]):
        return hit[1][:k]
    stats = ctx.stats
    stats["subproblems"] += 1
    stats["max_k"] = max(stats["max_k"], k)
    adj = ctx.adj
    lone, lone_rank, kind, rep, children = _shape(ctx, mask)
    # every MIS holds the isolated vertices: answer for the rest, add them
    mask ^= lone

    if lone & forb:
        out = []

    elif kind is NodeKind.HOMOGENEOUS:
        module, quotient = children
        bh = 1 << rep
        # N(M) outside M: the same for every vertex of the module
        outside = adj[rep] & quotient
        out: list[tuple[int, int]] = []
        # avoid: an outside neighbor dominates the module, and rep,
        # standing in for all of it in the quotient, is not chosen
        if outside & ~forb:
            out = _topk(ctx, quotient, (forb & ~module) | bh, k)
        # meet: a MIS of the module, joined with a quotient MIS avoiding
        # N(rep), which is one holding rep
        inner = _topk(ctx, module, forb & module, k)
        if inner:
            drop = _rank(ctx, bh)
            outer = _topk(ctx, quotient, (forb & ~module) | outside, k)
            joins = _product(inner, [(ro - drop, mo ^ bh) for ro, mo in outer], k)
            out = sorted(out + joins)[:k]

    elif kind is NodeKind.ANTINEIGHBORHOOD:
        anti, without_v = children
        bv = 1 << rep
        nv = adj[rep] & mask
        # the MIS holding v are those of the antineighborhood, where v is
        # isolated: at most two, since it is split with at most one edge
        ends = _edge_ends(adj, anti)
        held = [s for s in _split_sets(adj, ends, anti ^ ends) if not s & forb & ~bv]
        out = [] if forb & bv else _ranked(ctx, held)
        if nv & ~forb:
            # v not chosen, so a neighbor must be; the MIS of G - v that
            # miss N(v) are the held sets less v that dominate N(v)
            missing = sum(all(adj[u] & (s ^ bv) for u in bits(nv)) for s in held)
            rest = _topk(ctx, without_v, forb & ~bv, k + missing)
            out = sorted(out + [e for e in rest if e[1] & nv])[:k]

    elif kind is NodeKind.PARALLEL:
        # a MIS of a disjoint union is a union of one MIS per component
        out = [(0, 0)]
        for part in children:
            out = _product(out, _topk(ctx, part, forb & part, k), k)
            if not out:
                break

    elif kind is NodeKind.SERIES:
        # an independent set of a join lies in one co-component, and a MIS
        # of that co-component sees every vertex outside it; a loop, not a
        # generator, keeps this at one stack frame per level; a part that
        # is wholly forbidden has no MIS and is not walked
        out = []
        for part in children:
            if part & ~forb:
                out += _topk(ctx, part, forb & part, k)
        out = sorted(out)[:k]

    else:
        # a split leaf, children (K, I)
        out = _ranked(ctx, (s for s in _split_sets(adj, *children) if not s & forb))[:k]

    if lone:
        out = [(r + lone_rank, s | lone) for r, s in out]
    ctx.memo[state] = (k, out)
    return out


def _solution(wg: WeightedGraph, found: int) -> Solution:
    return Solution(frozenset(bits(found)), sum(wg.weights[u] for u in bits(found)))


def solve_constrained(
    wg: WeightedGraph,
    demands: Iterable[Iterable[int]] = (),
    stats: dict | None = None,
) -> Solution | None:
    """Minimum-weight MIS intersecting every demand, or None.

    Each demand is a nonempty collection of vertex ids; an empty or
    out-of-range one raises ValueError.  A MIS meets every demand iff it
    contains an independent set F built by taking, demand by demand, one
    vertex of each demand F does not meet yet, and it contains F iff it
    avoids N(F).  The answer is the best of the top-1 queries with N(F)
    forbidden, all under one memo.  There are at most as many F as the
    product of the demand sizes, so the cost is exponential in the
    number of demands only.

    Raises NotInClassError when the recursion meets a prime subgraph
    with no good vertex.  Forbidden vertices prune the walk, so this
    can answer on a graph where ``solve_wid`` raises.  ``stats``, when
    given, is filled with instrumentation counters (subproblems, max_k).
    """
    hitsets = demand_masks(wg.n, demands)
    ctx = _Ctx(wg, stats)
    adj = ctx.adj
    forces = {0: 0}  # each independent set F to N(F)
    for h in hitsets:
        grown = {}
        for f, nf in forces.items():
            if f & h:
                grown[f] = nf
            else:
                grown.update((f | 1 << u, nf | adj[u]) for u in bits(h & ~nf))
        forces = grown
    full = wg.graph.full_bits
    found = min((e for nf in forces.values() for e in _topk(ctx, full, nf, 1)), default=None)
    return None if found is None else _solution(wg, found[1])


def solve_wid(wg: WeightedGraph, stats: dict | None = None) -> Solution:
    return solve_constrained(wg, (), stats)


def solve_id(g: Graph, stats: dict | None = None) -> Solution:
    return solve_wid(unit_weights(g), stats)


# ---------------------------------------------------------------------------
# the literal mode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaiveReport:
    value: int
    witness: frozenset[int]
    witness_is_mis: bool


class _NSol(NamedTuple):
    value: int  # substituted weights, the naive value arithmetic
    foot: frozenset[int]  # root vertices


def _naive(
    node: DecompNode, attrs: dict[int, _NSol], adj: Sequence[int], base: list[_NSol]
) -> _NSol:
    """The literal recurrence folded over ``node``'s subtree.

    A vertex stands for the solution in ``base``, its own, unless a
    module substitution put its module's solution in ``attrs``.  The
    fold keeps only root vertices: a vertex outside a module sees all of
    the module or none of it, and every module's solution is nonempty,
    so v sees a solution's root vertices exactly when it sees the
    vertices that stand for them.
    """
    kind, v = node.kind, node.rep
    if kind is NodeKind.HOMOGENEOUS:
        module, quotient = node.children
        return _naive(quotient, {**attrs, v: _naive(module, attrs, adj, base)}, adj, base)
    if kind is NodeKind.ANTINEIGHBORHOOD:
        # the literal two-term minimum at v, with the greedy witness patch
        keep_node, drop_node = node.children
        keep = _naive(keep_node, attrs, adj, base)
        drop = _naive(drop_node, attrs, adj, base)
        if keep.value <= drop.value:
            return keep
        if not any(adj[v] >> u & 1 for u in drop.foot):
            # v ended up undominated; patch it in (independence is safe:
            # none of its neighbors were chosen), but keep the two-term value.
            a = attrs.get(v) or base[v]
            return _NSol(drop.value, drop.foot | a.foot)
        return drop
    # a leaf is split, with the whole mask or its one edge as the clique
    clique = node.mask if kind is NodeKind.LEAF_COMPLETE else _edge_ends(adj, node.mask)
    best: _NSol | None = None
    for cand in _split_sets(adj, clique, node.mask ^ clique):
        chosen = [attrs.get(u) or base[u] for u in bits(cand)]
        sol = _NSol(
            sum(a.value for a in chosen),
            frozenset().union(*(a.foot for a in chosen)),
        )
        if best is None or sol.value < best.value or (
            sol.value == best.value and set_precedes(sol.foot, best.foot)
        ):
            best = sol
    assert best is not None
    return best


def solve_naive_eq1(wg: WeightedGraph, pin: int | None = None) -> NaiveReport:
    """Literal two-term/substitution-only recursion; unsound by design.

    ``pin`` forces the root step to branch on that vertex regardless of
    the usual case order, which is how the pinned divergence
    regressions drive the recurrence into its failure modes.
    """
    g = wg.graph
    full = g.full_bits
    if pin is None:
        split = classify_mask(g, full)
    elif 0 <= pin < wg.n:
        split = antineighborhood_split(g._adj, full, pin)
    else:
        raise ValueError(f"pin vertex {pin} out of range")
    base = [_NSol(w, frozenset({v})) for v, w in enumerate(wg.weights)]
    sol = _naive(build_node(g, full, split), {}, g._adj, base)
    return NaiveReport(sol.value, sol.foot, g.is_maximal_independent(sol.foot))


def eq1_literal(wg: WeightedGraph, v: int) -> int:
    """min(id_w(G - N(v)), id_w(G - v)) with exact child values.

    This is the two-term recurrence evaluated faithfully; it is *not*
    a correct expression for id_w(G) and exists to demonstrate that.
    Both children are vertex masks of G, solved under one memo.  Raises
    ValueError when v is not a vertex of G.
    """
    if not 0 <= v < wg.n:
        raise ValueError(f"vertex {v} out of range")
    ctx = _Ctx(wg)
    children = antineighborhood_split(ctx.adj, wg.graph.full_bits, v).children
    return min(_solution(wg, _topk(ctx, child, 0, 1)[0][1]).weight for child in children)
