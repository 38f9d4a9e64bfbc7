"""Exact weighted independent domination via decomposition.

Two modes live here.

``solve_wid``/``solve_constrained`` is the sound mode: it walks the
same case analysis as the decomposition tree but threads *demands*
through every branch -- a demand is a hitset the final solution must
intersect, created whenever a vertex is deleted and must still end up
dominated.  Branching a module "out" marks its representative
forbidden; solutions are compared lexicographically on
(forbidden_used, weight), so a branch whose best answer still uses a
forbidden vertex is recognized as infeasible without sentinel weights.

``solve_naive_eq1`` is the deliberately literal mode: it evaluates the
two-term antineighborhood minimum and the bare module weight
substitution with no demand tracking, patching undominated deleted
vertices greedily into the witness.  Its value can undershoot the true
optimum; the divergence is pinned by regression tests and surfaced via
``witness_is_mis`` and value comparison.

Subproblems never relabel: every branch works on a bitmask of root
ids, so adjacency is shared and solutions splice by footprint union.
Which case applies (leaf, module, good vertex) depends only on that
mask and is decided by ``decomposition.classify_mask``, the case chain
the tree uses too; ``_shape`` caches its answer once per mask per solve
and both modes read it.  Vertex attributes live in a root list shared
by the whole solve; the ``attrs`` dict a branch carries holds only the
representatives whose attributes a module substitution overrode, and
the memo key names just those overrides inside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .decomposition import NodeKind, classify_mask
from .graph import Graph, WeightedGraph, bits, induced_subgraph, set_precedes


@dataclass(frozen=True)
class Solution:
    vertices: frozenset[int]
    weight: int
    forbidden_used: int = 0


class _VAttr(NamedTuple):
    weight: int  # current (possibly substituted) weight
    fu: int  # forbidden marks this vertex would contribute if chosen
    foot: frozenset[int]  # root vertices this one expands to


class _Sol(NamedTuple):
    fu: int
    weight: int
    foot: frozenset[int]


def _better(a: _Sol, b: _Sol | None) -> bool:
    if b is None:
        return True
    if a.fu != b.fu:
        return a.fu < b.fu
    if a.weight != b.weight:
        return a.weight < b.weight
    return set_precedes(a.foot, b.foot)


def _canon(hitsets: Iterable[frozenset[int]]) -> frozenset[frozenset[int]] | None:
    """Dedupe and drop supersets; None signals an unsatisfiable demand."""
    pool = sorted(set(hitsets), key=len)
    kept: list[frozenset[int]] = []
    for h in pool:
        if not h:
            return None
        if any(k <= h for k in kept):
            continue
        kept.append(h)
    return frozenset(kept)


def _leaf_candidates(adj: Sequence[int], mask: int, kind: NodeKind) -> list[int]:
    """The maximal independent sets of a leaf mask.

    A complete leaf has its single vertices (the empty mask has only the
    empty set); a <=1-edge leaf has V, or V minus either endpoint.
    """
    if kind is NodeKind.LEAF_COMPLETE:
        return [1 << u for u in bits(mask)] or [0]
    for u in bits(mask):
        inside = adj[u] & mask
        if inside:
            x, y = u, next(bits(inside))
            return [mask & ~(1 << x), mask & ~(1 << y)]
    return [mask]


class _Ctx:
    __slots__ = ("graph", "adj", "base", "shapes", "memo", "stats")

    def __init__(self, graph: Graph, base: Sequence, stats: dict | None = None):
        self.graph = graph
        self.adj = graph._adj
        self.base = base  # root attributes, indexed by vertex
        self.shapes: dict[int, tuple[NodeKind, int]] = {}
        self.memo: dict = {}
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("subproblems", 0)
        self.stats.setdefault("max_demands", 0)
        self.stats.setdefault("assignments", 0)


def _shape(ctx: _Ctx, mask: int) -> tuple[NodeKind, int]:
    """``classify_mask`` on ``mask``, computed once per solve."""
    shape = ctx.shapes.get(mask)
    if shape is None:
        shape = ctx.shapes[mask] = classify_mask(ctx.graph, mask)
    return shape


def _override(ctx: _Ctx, attrs: dict, mask: int, v: int, attr) -> dict:
    """The overrides inside ``mask`` with v's attributes set to ``attr``.

    An override equal to v's root attributes is dropped, so that one
    state never has two memo keys.
    """
    out = {u: a for u, a in attrs.items() if mask >> u & 1}
    if attr == ctx.base[v]:
        out.pop(v, None)
    else:
        out[v] = attr
    return out


def _eval(ctx: _Ctx, attrs: dict[int, _VAttr], cand: int) -> _Sol:
    base = ctx.base
    fu = weight = 0
    foot: frozenset[int] = frozenset()
    for v in bits(cand):
        a = attrs.get(v) or base[v]
        fu += a.fu
        weight += a.weight
        foot |= a.foot
    return _Sol(fu, weight, foot)


def _best_candidate(
    ctx: _Ctx,
    attrs: dict[int, _VAttr],
    cands: list[int],
    demands: frozenset[frozenset[int]],
) -> _Sol | None:
    """The best of ``cands`` that meets every demand, or None."""
    best: _Sol | None = None
    for cand in cands:
        if all(any(cand >> u & 1 for u in h) for h in demands):
            sol = _eval(ctx, attrs, cand)
            if _better(sol, best):
                best = sol
    return best


def _solve(
    ctx: _Ctx,
    mask: int,
    attrs: dict[int, _VAttr],
    demands: frozenset[frozenset[int]],
) -> _Sol | None:
    key = (mask, tuple(sorted((v, a) for v, a in attrs.items() if mask >> v & 1)), demands)
    if key in ctx.memo:
        return ctx.memo[key]
    ctx.stats["subproblems"] += 1
    ctx.stats["max_demands"] = max(ctx.stats["max_demands"], len(demands))
    adj = ctx.adj
    best: _Sol | None = None
    kind, arg = _shape(ctx, mask)

    if kind is NodeKind.HOMOGENEOUS:
        module = arg
        m_set = frozenset(bits(module))
        h = min(m_set)
        out_mask = (mask & ~module) | (1 << h)

        # OUT: the solution avoids the module entirely; h stands in for
        # it in the quotient-side graph and must not be chosen.
        out_demands = _canon(hs - m_set for hs in demands)
        if out_demands is not None:
            a = attrs.get(h) or ctx.base[h]
            out_attrs = _override(ctx, attrs, out_mask, h, _VAttr(a.weight, a.fu + 1, a.foot))
            sol = _solve(ctx, out_mask, out_attrs, out_demands)
            if sol is not None and sol.fu == 0 and _better(sol, best):
                best = sol

        # IN: the solution meets the module; its trace on the module is
        # a MIS of the module, compressed into h by weight substitution.
        inside = [hs for hs in demands if hs <= m_set]
        outside = [hs for hs in demands if not hs & m_set]
        mixed = [hs for hs in demands if hs & m_set and not hs <= m_set]
        for pick in range(1 << len(mixed)):
            ctx.stats["assignments"] += 1
            inner_hs = list(inside)
            outer_hs = list(outside)
            for i, hs in enumerate(mixed):
                if pick >> i & 1:
                    inner_hs.append(hs & m_set)
                else:
                    outer_hs.append(hs - m_set)
            inner_demands = _canon(inner_hs)
            if inner_demands is None:
                continue
            inner = _solve(ctx, module, attrs, inner_demands)
            if inner is None:
                continue
            in_attrs = _override(
                ctx, attrs, out_mask, h, _VAttr(inner.weight, inner.fu, inner.foot)
            )
            outer_hs.append(frozenset({h}))
            outer_demands = _canon(outer_hs)
            assert outer_demands is not None
            sol = _solve(ctx, out_mask, in_attrs, outer_demands)
            if sol is not None and _better(sol, best):
                best = sol

    elif kind is NodeKind.ANTINEIGHBORHOOD:
        v = arg
        nv = adj[v] & mask

        # v chosen: every MIS of the antineighborhood graph contains v
        # and is automatically maximal in the whole graph.
        anti = _leaf_candidates(adj, mask & ~nv, NodeKind.LEAF_F)
        best = _best_candidate(ctx, attrs, anti, demands)

        # v not chosen: it must still be dominated, hence a new demand.
        shrunk = _canon(
            [hs - {v} for hs in demands] + [frozenset(bits(nv))]
        )
        if shrunk is not None:
            sol = _solve(ctx, mask & ~(1 << v), attrs, shrunk)
            if sol is not None and _better(sol, best):
                best = sol

    else:
        cands = _leaf_candidates(adj, mask, kind)
        best = _best_candidate(ctx, attrs, cands, demands)

    ctx.memo[key] = best
    return best


def _validated_hitsets(
    wg: WeightedGraph, demands: Iterable[Iterable[int]]
) -> list[frozenset[int]]:
    out = []
    for d in demands:
        hitset = frozenset(d)
        if not hitset:
            raise ValueError("empty demand hitset")
        if any(not (0 <= u < wg.n) for u in hitset):
            raise ValueError(f"demand hitset {sorted(hitset)} out of range")
        out.append(hitset)
    return out


def solve_constrained(
    wg: WeightedGraph,
    demands: Iterable[Iterable[int]] = (),
    stats: dict | None = None,
) -> Solution | None:
    """Minimum-weight MIS intersecting every demand, or None.

    Each demand is a nonempty collection of vertex ids; an empty or
    out-of-range one raises ValueError.

    Raises NotInClassError when the recursion meets a prime subgraph
    with no good vertex.  ``stats``, when given, is filled with
    instrumentation counters (subproblems, max_demands, assignments).
    """
    base = [_VAttr(w, 0, frozenset({v})) for v, w in enumerate(wg.weights)]
    ctx = _Ctx(wg.graph, base, stats)
    canon = _canon(_validated_hitsets(wg, demands))
    if canon is None:
        return None
    sol = _solve(ctx, wg.graph.full_bits, {}, canon)
    if sol is None:
        return None
    return Solution(sol.foot, sol.weight, sol.fu)


def solve_wid(wg: WeightedGraph, stats: dict | None = None) -> Solution:
    sol = solve_constrained(wg, (), stats)
    assert sol is not None  # unconstrained instances always have an MIS
    return sol


def solve_id(g: Graph, stats: dict | None = None) -> Solution:
    return solve_wid(WeightedGraph(g, (1,) * g.n), stats)


# ---------------------------------------------------------------------------
# the literal mode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaiveReport:
    value: int
    witness: frozenset[int]
    witness_is_mis: bool


class _NAttr(NamedTuple):
    weight: int  # substituted weight, feeds the naive value arithmetic
    foot: frozenset[int]
    foot_weight: int  # true weight of foot under the input weights


class _NSol(NamedTuple):
    value: int
    chosen: frozenset[int]  # vertices at the current level
    foot: frozenset[int]
    foot_weight: int


def _naive(ctx: _Ctx, mask: int, attrs: dict[int, _NAttr]) -> _NSol:
    adj = ctx.adj

    def eval_cand(cand: int) -> _NSol:
        chosen = [attrs.get(v) or ctx.base[v] for v in bits(cand)]
        return _NSol(
            sum(a.weight for a in chosen),
            frozenset(bits(cand)),
            frozenset().union(*(a.foot for a in chosen)),
            sum(a.foot_weight for a in chosen),
        )

    def pick_best(cands: list[int]) -> _NSol:
        best: _NSol | None = None
        for cand in cands:
            sol = eval_cand(cand)
            if (
                best is None
                or sol.value < best.value
                or (sol.value == best.value and set_precedes(sol.foot, best.foot))
            ):
                best = sol
        assert best is not None
        return best

    kind, arg = _shape(ctx, mask)
    if kind is NodeKind.HOMOGENEOUS:
        module = arg
        h = min(bits(module))
        out_mask = (mask & ~module) | (1 << h)
        inner = _naive(ctx, module, attrs)
        out_attrs = _override(
            ctx, attrs, out_mask, h, _NAttr(inner.value, inner.foot, inner.foot_weight)
        )
        outer = _naive(ctx, out_mask, out_attrs)
        if h in outer.chosen:
            chosen = (outer.chosen - {h}) | inner.chosen
        else:
            chosen = outer.chosen
        return _NSol(outer.value, chosen, outer.foot, outer.foot_weight)
    if kind is NodeKind.ANTINEIGHBORHOOD:
        return _naive_two_term(ctx, mask, attrs, arg)
    return pick_best(_leaf_candidates(adj, mask, kind))


def _naive_two_term(
    ctx: _Ctx, mask: int, attrs: dict[int, _NAttr], v: int
) -> _NSol:
    """The literal two-term minimum at v, with the greedy witness patch."""
    adj = ctx.adj
    nv = adj[v] & mask
    keep = _naive(ctx, mask & ~nv, attrs)
    drop = _naive(ctx, mask & ~(1 << v), attrs)
    if keep.value <= drop.value:
        return keep
    if not any(nv >> u & 1 for u in drop.chosen):
        # v ended up undominated; patch it in (independence is safe:
        # none of its neighbors were chosen), but keep the two-term value.
        a = attrs.get(v) or ctx.base[v]
        return _NSol(
            drop.value,
            drop.chosen | {v},
            drop.foot | a.foot,
            drop.foot_weight + a.foot_weight,
        )
    return drop


def solve_naive_eq1(wg: WeightedGraph, pin: int | None = None) -> NaiveReport:
    """Literal two-term/substitution-only recursion; unsound by design.

    ``pin`` forces the root step to branch on that vertex regardless of
    the usual case order, which is how the pinned divergence
    regressions drive the recurrence into its failure modes.
    """
    base = [_NAttr(w, frozenset({v}), w) for v, w in enumerate(wg.weights)]
    ctx = _Ctx(wg.graph, base)
    mask = wg.graph.full_bits
    if pin is not None:
        if not (0 <= pin < wg.n):
            raise ValueError(f"pin vertex {pin} out of range")
        sol = _naive_two_term(ctx, mask, {}, pin)
    else:
        sol = _naive(ctx, mask, {})
    return NaiveReport(
        sol.value, sol.foot, wg.graph.is_maximal_independent(sol.foot)
    )


def eq1_literal(wg: WeightedGraph, v: int) -> int:
    """min(id_w(G - N(v)), id_w(G - v)) with exact child values.

    This is the two-term recurrence evaluated faithfully; it is *not*
    a correct expression for id_w(G) and exists to demonstrate that.
    """
    g = wg.graph
    anti_vs = sorted(g.antineighborhood(v))
    anti, amap = induced_subgraph(g, anti_vs)
    rest_vs = [u for u in range(g.n) if u != v]
    rest, rmap = induced_subgraph(g, rest_vs)
    w_anti = tuple(wg.weights[u] for u in anti_vs)
    w_rest = tuple(wg.weights[u] for u in rest_vs)
    return min(
        solve_wid(WeightedGraph(anti, w_anti)).weight,
        solve_wid(WeightedGraph(rest, w_rest)).weight,
    )
