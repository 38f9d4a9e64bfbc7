"""Reference answers and output properties, written apart from widom.

Nothing here imports widom.  Graphs are plain ``(n, edges)`` pairs with
optional weight tuples; adjacency is rebuilt locally as int bitmasks.
The optimum references are:

* a closed form for split graphs (clique K plus independent set I):
  every maximal independent set is {k} + (I - N(k)) for one k in K,
  or I itself when every clique vertex has a neighbour in I, so there
  are at most |K| + 1 of them and demands are checked on each;
* a cotree dynamic programme for cographs and threshold graphs: the
  best maximal independent set of a disjoint union is the union of the
  parts' best sets (sum), that of a join lies in one side (min);
* networkx maximal-clique enumeration on the complement, as a third
  enumerator of maximal independent sets at small n.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations


class CheckError(AssertionError):
    """An output of the program broke a property or disagreed with a reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- graphs -------------------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def edges_within(adj: list[int], vertices) -> int:
    vs = list(vertices)
    m = mask_of(vs)
    return sum((adj[v] & m).bit_count() for v in vs) // 2


def is_mis(adj: list[int], n: int, chosen) -> bool:
    """Independent and dominating: a maximal independent set."""
    s = mask_of(chosen)
    if s >> n:
        return False
    covered = s
    for v in chosen:
        if adj[v] & s:
            return False
        covered |= adj[v]
    return covered == (1 << n) - 1


def check_witness(adj, n, weights, witness, value, demands=()) -> None:
    require(len(set(witness)) == len(witness), f"witness {witness} repeats a vertex")
    require(is_mis(adj, n, witness), f"witness {sorted(witness)} is not a maximal independent set")
    for h in demands:
        require(bool(set(h) & set(witness)), f"witness {sorted(witness)} misses demand {sorted(h)}")
    require(sum(weights[v] for v in witness) == value,
            f"witness weight {sum(weights[v] for v in witness)} != reported value {value}")


# -- optimum references ---------------------------------------------------------


def _best(candidates, weights, demands):
    best = None
    for cand in candidates:
        if all(cand & set(h) for h in demands):
            w = sum(weights[v] for v in cand)
            if best is None or w < best:
                best = w
    return best


def split_mis(adj: list[int], n: int, clique) -> list[set[int]]:
    """Every maximal independent set of a split graph with clique ``clique``."""
    kset = set(clique)
    indep = [v for v in range(n) if v not in kset]
    imask = mask_of(indep)
    out = [{k} | set(members(imask & ~adj[k])) for k in sorted(kset)]
    if all(adj[k] & imask for k in kset):
        out.append(set(indep))
    return out


def split_optimum(adj, n, weights, clique, demands=()):
    """Minimum weight of a maximal independent set meeting every demand, or None."""
    return _best(split_mis(adj, n, clique), weights, demands)


def cotree_optimum(tree, weights) -> int:
    """Cotree DP: ``tree`` is an int leaf or ``("union"|"join", left, right)``."""
    if isinstance(tree, int):
        return weights[tree]
    op, left, right = tree
    a, b = cotree_optimum(left, weights), cotree_optimum(right, weights)
    return a + b if op == "union" else min(a, b)


def nx_mis(n: int, edges) -> list[set[int]]:
    """Maximal independent sets as maximal cliques of the complement (networkx)."""
    import networkx as nx

    comp = nx.Graph()
    comp.add_nodes_from(range(n))
    have = {tuple(sorted(e)) for e in edges}
    comp.add_edges_from((u, v) for u, v in combinations(range(n), 2) if (u, v) not in have)
    return [set(c) for c in nx.find_cliques(comp)]


def nx_optimum(n, edges, weights, demands=()):
    return _best(nx_mis(n, edges), weights, demands)


def min_dominating_size(adj: list[int], n: int) -> int:
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            cov = 0
            for v in combo:
                cov |= closed[v]
            if cov == full:
                return size
    raise CheckError("no dominating set")


# -- constructions from the paper ---------------------------------------------


def sat_partition_problem(adj: list[int], n: int, a_side) -> str | None:
    """None if A is a clique and B = V - A induces a perfect matching with no
    A-vertex adjacent to both ends of one B-edge, else what is wrong."""
    aset = set(a_side)
    if not aset <= set(range(n)):
        return f"A side {sorted(aset)} names vertices outside 0..{n - 1}"
    bset = set(range(n)) - aset
    for u, v in combinations(sorted(aset), 2):
        if not adj[u] >> v & 1:
            return f"A is not a clique at ({u},{v})"
    bmask = mask_of(bset)
    for v in bset:
        if (adj[v] & bmask).bit_count() != 1:
            return f"B vertex {v} does not have exactly one B-neighbour"
        partner = members(adj[v] & bmask)[0]
        if any(adj[x] >> v & 1 and adj[x] >> partner & 1 for x in aset):
            return f"an A-vertex sees both ends of B-edge ({v},{partner})"
    return None


def cross_edges(n, edges, a_side) -> list[tuple[int, int]]:
    """(a, b) with a in A, b in B and ab an edge, sorted."""
    aset = set(a_side)
    out = []
    for u, v in edges:
        if (u in aset) != (v in aset):
            out.append((u, v) if u in aset else (v, u))
    return sorted(out)


def star_reference(n, edges, a_side):
    """The edge replacement applied to every original cross edge, in order.

    For cross edge (a, b), with new ids v, x, y = next three: remove ab,
    add v to the clique, and add the edges vb, vx, xy, ay.
    """
    es = {tuple(sorted(e)) for e in edges}
    clique = set(a_side)
    size = n
    for a, b in cross_edges(n, edges, a_side):
        v, x, y = size, size + 1, size + 2
        size += 3
        es.discard(tuple(sorted((a, b))))
        es.update((c, v) for c in clique)
        es.update({(min(v, b), max(v, b)), (v, x), (x, y), (a, y)})
        clique.add(v)
    return size, es


def wid_gadget_reference(n, edges):
    """Columns v -> (3v, 3v+1, 3v+2) with weights 1, 2, 2n; per source edge wv
    the cross edges (w2, v3) and (w3, v2); the third layer is a clique."""
    es = set()
    for v in range(n):
        es.add((3 * v, 3 * v + 1))
        es.add((3 * v + 1, 3 * v + 2))
    for w, v in edges:
        for a, b in ((3 * w + 1, 3 * v + 2), (3 * w + 2, 3 * v + 1)):
            es.add((min(a, b), max(a, b)))
    for w, v in combinations(range(n), 2):
        es.add((3 * w + 2, 3 * v + 2))
    weights = tuple(w for _ in range(n) for w in (1, 2, 2 * n))
    return 3 * n, es, weights


# -- induced patterns ---------------------------------------------------------

PATTERNS = {
    "P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "CO_P5": (5, [(u, v) for u, v in combinations(range(5), 2) if v - u != 1]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "C6": (6, [(i, (i + 1) % 6) for i in range(6)]),
    "DOMINO": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]),
    "SUN3": (6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]),
}


def is_induced_copy(adj: list[int], hosts, pattern: str) -> bool:
    """True iff the listed host vertices induce a graph isomorphic to ``pattern``."""
    k, pedges = PATTERNS[pattern]
    if len(hosts) != k or len(set(hosts)) != k:
        return False
    want = {frozenset(e) for e in pedges}
    pairs = list(combinations(range(k), 2))
    for order in permutations(hosts):
        if all(bool(adj[order[i]] >> order[j] & 1) == (frozenset((i, j)) in want)
               for i, j in pairs):
            return True
    return False


def has_induced(n, edges, pattern: str) -> bool:
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    k, pedges = PATTERNS[pattern]
    host = nx.Graph()
    host.add_nodes_from(range(n))
    host.add_edges_from(edges)
    pat = nx.Graph()
    pat.add_nodes_from(range(k))
    pat.add_edges_from(pedges)
    return GraphMatcher(host, pat).subgraph_is_isomorphic()


# -- decomposition tree -------------------------------------------------------


def check_tree(adj: list[int], n: int, doc: dict) -> int:
    """Check every node's invariant; returns the number of nodes."""
    root = doc["root"]
    require(root["vertices"] == list(range(n)), "tree root does not span the graph")
    count = internal = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        vs = node["vertices"]
        vset = set(vs)
        require(node["n"] == len(vs) == len(vset), f"tree node size mismatch at {vs}")
        kids = node.get("children", [])
        kind = node["kind"]
        if kind == "leaf_complete":
            require(not kids and edges_within(adj, vs) == len(vs) * (len(vs) - 1) // 2,
                    f"leaf_complete {vs} is not complete")
        elif kind == "leaf_f":
            require(not kids and edges_within(adj, vs) <= 1, f"leaf_f {vs} has more than one edge")
        elif kind == "homogeneous":
            internal += 1
            mod = node["module"]
            mset = set(mod)
            require(mset < vset and len(mset) >= 2, f"module {mod} is not a proper part of {vs}")
            mmask = mask_of(mod)
            for z in vset - mset:
                seen = adj[z] & mmask
                require(seen in (0, mmask), f"vertex {z} splits module {mod}")
            rep = node["rep"]
            require(rep in mset and len(kids) == 2, f"homogeneous node {vs} has bad rep or children")
            require(kids[0]["vertices"] == sorted(mset), f"module child of {vs} is not {mod}")
            require(kids[1]["vertices"] == sorted((vset - mset) | {rep}), f"outer child of {vs} is wrong")
        elif kind == "antineighborhood":
            internal += 1
            v = node["rep"]
            anti = sorted(u for u in vs if not adj[v] >> u & 1)
            require(v in vset and len(kids) == 2, f"antineighborhood node {vs} has bad rep or children")
            require(kids[0]["vertices"] == anti, f"anti({v}) child of {vs} is wrong")
            require(kids[1]["vertices"] == sorted(vset - {v}), f"V-{v} child of {vs} is wrong")
        else:
            raise CheckError(f"unknown tree node kind {kind!r}")
        stack.extend(kids)
    require(doc["node_count"] == count and doc["internal_count"] == internal,
            "tree node counts disagree with the nodes")
    return count


# -- GraphFile text -------------------------------------------------------------


def emit_text(n: int, edges, weights=None) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    if weights is not None:
        lines.append("weights")
        lines.extend(f"{v} {w}" for v, w in enumerate(weights))
    return "\n".join(lines) + "\n"


def read_text(text: str):
    """(n, edges, weights or None, meta or None) from GraphFile text."""
    meta = None
    rows = []
    for raw in text.splitlines():
        if raw.startswith("# meta "):
            meta = json.loads(raw[len("# meta "):])
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    n, m = map(int, rows[0].split())
    edges = [tuple(map(int, r.split())) for r in rows[1:1 + m]]
    weights = None
    if len(rows) > 1 + m:
        require(rows[1 + m] == "weights", "unexpected section after the edges")
        weights = [0] * n
        for r in rows[2 + m:]:
            v, w = map(int, r.split())
            weights[v] = w
        weights = tuple(weights)
    return n, edges, weights, meta
