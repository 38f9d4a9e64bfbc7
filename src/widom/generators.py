"""Seeded instance generators and named graphs.

Everything is deterministic given its seed.  Rejection samplers raise
GenerationBudgetError instead of spinning forever on filters that the
requested density cannot satisfy.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Sequence

from .graph import Graph
from .io import emit_graph
from .patterns import DOMINO, SUN3, Pattern, cycle_pattern, is_free
from .satgraph import SatPartition, sat_partition


class GenerationBudgetError(RuntimeError):
    """The rejection sampler ran out of attempts."""


# -- named graphs -----------------------------------------------------------


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, cycle_pattern(n).edges)


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty(n: int) -> Graph:
    return Graph(n, [])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def domino() -> Graph:
    """Two squares sharing the edge 2-3."""
    return Graph(DOMINO.n, DOMINO.edges)


def sun3() -> Graph:
    """Triangle 0,1,2 with tips 3 (~0,1), 4 (~0,2), 5 (~1,2)."""
    return Graph(SUN3.n, SUN3.edges)


def bull() -> Graph:
    """Pendants 0,1 on triangle vertices 2,3; apex 4."""
    return Graph(5, [(0, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def k2_plus_k1() -> Graph:
    return Graph(3, [(0, 1)])


_NAMED_RE = re.compile(r"^(P|C|K|STAR)(\d+)$")


def named(name: str) -> Graph:
    """Look up a graph by its conventional name (P5, C6, K3, STAR4, ...)."""
    key = name.strip().upper()
    fixed = {
        "DOMINO": domino,
        "SUN3": sun3,
        "BULL": bull,
        "K2+K1": k2_plus_k1,
        "K2_PLUS_K1": k2_plus_k1,
    }
    if key in fixed:
        return fixed[key]()
    m = _NAMED_RE.match(key)
    if not m:
        raise ValueError(f"unknown graph name: {name!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "P":
        return path(num)
    if kind == "C":
        return cycle(num)
    if kind == "K":
        return complete(num)
    return star(num)


# -- random families --------------------------------------------------------


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def gnp_filtered(
    n: int,
    p: float,
    forbidden: Sequence[Pattern],
    seed: int,
    count: int,
    budget: int = 2000,
) -> list[Graph]:
    """``count`` seeded G(n,p) samples avoiding every forbidden pattern.

    Raises GenerationBudgetError after ``budget`` total rejections.
    """
    rng = random.Random(seed)
    out: list[Graph] = []
    rejected = 0
    while len(out) < count:
        g = gnp(n, p, rng)
        if is_free(g, forbidden):
            out.append(g)
        else:
            rejected += 1
            if rejected >= budget:
                raise GenerationBudgetError(
                    f"gave up after {rejected} rejections "
                    f"(n={n}, p={p}, got {len(out)}/{count})"
                )
    return out


def sat_random(
    size_a: int, match_b: int, p_ab: float, seed: int
) -> tuple[Graph, SatPartition]:
    """A random sat-graph, valid by construction.

    A is the clique 0..size_a-1; B holds ``match_b`` matched pairs.
    Each A-B edge is added with probability p_ab in deterministic scan
    order, skipped whenever the A-vertex already sees the partner.
    """
    rng = random.Random(seed)
    n = size_a + 2 * match_b
    adj = [(1 << size_a) - 1 ^ 1 << u for u in range(size_a)]
    for x in range(size_a, n, 2):
        adj += [1 << x + 1, 1 << x]
    for u in range(size_a):
        for x in range(size_a, n, 2):
            for b_vertex, partner in ((x, x + 1), (x + 1, x)):
                if adj[u] >> partner & 1:
                    continue
                if rng.random() < p_ab:
                    adj[u] |= 1 << b_vertex
                    adj[b_vertex] |= 1 << u
    g = Graph.from_masks(adj)
    part = sat_partition(g, range(size_a), range(size_a, n))
    return g, part


def substitute(host: Graph, slot: int, plug: Graph) -> Graph:
    """Replace ``slot`` in the host by a full copy of ``plug``.

    Host vertices other than the slot keep their relative order at ids
    0..host.n-2; the copy occupies the trailing plug.n ids and forms a
    module whose outside neighborhood is the slot's old neighborhood.
    """
    g, copy_ids, _ = substitute_with_map(host, slot, plug)
    return g


def substitute_with_map(
    host: Graph, slot: int, plug: Graph
) -> tuple[Graph, tuple[int, ...], dict[int, int]]:
    """``substitute``, plus the copy's ids and the host's old->new id map."""
    if not (0 <= slot < host.n):
        raise ValueError(f"slot {slot} out of range")
    base = host.n - 1
    low, block = (1 << slot) - 1, (1 << plug.n) - 1 << base
    # each host mask drops the slot bit (the bits above it move down one)
    # and, where it held the slot, gains the copy's block; the slot's own
    # mask holds no slot bit, so popping it gives the copy's outside neighbours
    adj = [m & low | m >> slot + 1 << slot | (block if m >> slot & 1 else 0) for m in host._adj]
    outside = adj.pop(slot)
    adj += [m << base | outside for m in plug._adj]
    outer_map = {old: old - (old > slot) for old in range(host.n) if old != slot}
    return Graph.from_masks(adj), tuple(range(base, base + plug.n)), outer_map


def graph_hash(g: Graph) -> str:
    """Stable content hash over the canonical GraphFile text."""
    return hashlib.sha256(emit_graph(g).removesuffix("\n").encode()).hexdigest()
