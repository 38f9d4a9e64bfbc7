"""Brute-force ground truth for maximal independent sets.

Everything here trades time for obviousness: enumeration visits every
maximal independent set (pivoting recursion, each output re-verified),
and the optimizers scan that list with one shared tie-break.  Intended
for n up to ~25; guarded by an explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Graph, WeightedGraph, bits, demand_masks, mask_of, set_precedes, unit_weights

DEFAULT_BOUND = 25


class OracleBoundError(ValueError):
    """Raised when an input exceeds the enumeration size bound."""


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise OracleBoundError(f"oracle limited to n <= {bound}, got n = {n}")


def enumerate_mis(g: Graph, bound: int = DEFAULT_BOUND) -> list[frozenset[int]]:
    """All maximal independent sets of g, each one verified, in
    increasing order of their bitmasks (sum of 2**v over the set).

    Pivoting recursion over (chosen R, candidates P, excluded X) where
    the branching relation is non-adjacency: maximal independent sets
    of g are exactly the maximal cliques of its complement.
    """
    _check_bound(g.n, bound)
    full = g.full_bits
    # "neighbors" in the complement, self excluded
    nbar = [full & ~g.adj_bits(v) & ~(1 << v) for v in range(g.n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        # pivot: candidate from P|X maximizing |P & nbar[u]|
        pivot, best = -1, -1
        for u in bits(p | x):
            score = (p & nbar[u]).bit_count()
            if score > best:
                pivot, best = u, score
        for v in bits(p & ~nbar[pivot]):
            bv = 1 << v
            expand(r | bv, p & nbar[v], x & nbar[v])
            p ^= bv
            x |= bv

    expand(0, full, 0)
    sets = [frozenset(bits(m)) for m in sorted(out)]
    for s in sets:
        if not g.is_maximal_independent(s):
            raise AssertionError(f"enumeration produced a non-MIS: {sorted(s)}")
    return sets


@dataclass(frozen=True)
class OracleReport:
    value: int
    witness: frozenset[int]
    enumeration_size: int


def oracle_wid(wg: WeightedGraph, bound: int = DEFAULT_BOUND) -> OracleReport:
    return oracle_constrained(wg, (), bound)


def oracle_id(g: Graph, bound: int = DEFAULT_BOUND) -> OracleReport:
    return oracle_wid(unit_weights(g), bound)


def oracle_constrained(
    wg: WeightedGraph,
    hitsets: Iterable[frozenset[int]],
    bound: int = DEFAULT_BOUND,
) -> OracleReport | None:
    """Minimum-weight MIS meeting every hitset, or None if none does;
    an empty or out-of-range hitset raises ValueError."""
    demands = demand_masks(wg.n, hitsets)
    sets = enumerate_mis(wg.graph, bound)
    best: tuple[int, frozenset[int]] | None = None
    for s in sets:
        if not all(mask_of(s) & h for h in demands):
            continue
        w = wg.weight_of(s)
        if best is None or w < best[0] or (w == best[0] and set_precedes(s, best[1])):
            best = (w, s)
    return None if best is None else OracleReport(best[0], best[1], len(sets))


def oracle_min_dominating(g: Graph, bound: int = DEFAULT_BOUND) -> OracleReport:
    """Minimum dominating set size by subset enumeration, smallest first."""
    _check_bound(g.n, bound)
    full = g.full_bits
    closed = [g.adj_bits(v) | (1 << v) for v in range(g.n)]
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return OracleReport(size, frozenset(combo), 0)
    raise AssertionError("unreachable: V itself dominates")
