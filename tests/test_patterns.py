import random
from itertools import combinations, permutations

from widom.generators import bull, complete, cycle, domino, gnp, path, star, sun3
from widom.graph import Graph
from widom.patterns import (
    C3,
    C4,
    C5,
    C6,
    CO_P5,
    DOMINO,
    P5,
    SUN3,
    Occurrence,
    cycle_pattern,
    find_antisimplicial,
    find_induced,
    induced_in_mask,
    is_antisimplicial,
    is_c5,
    is_free,
    iter_induced,
)


def test_pattern_constants_are_sane():
    assert P5.n == 5 and len(P5.edges) == 4
    assert CO_P5.n == 5 and len(CO_P5.edges) == 6
    assert DOMINO.n == 6 and len(DOMINO.edges) == 7
    assert SUN3.n == 6 and len(SUN3.edges) == 9


def test_domino_contains_c4():
    occ = find_induced(domino(), C4)
    assert occ is not None
    assert occ.vertices == (0, 1, 3, 2)


def test_path5_is_p5():
    occ = find_induced(path(5), P5)
    assert occ is not None and occ.vertices == (0, 1, 2, 3, 4)
    assert find_induced(path(4), P5) is None


def test_co_p5_complement_relation():
    from widom.graph import complement

    assert find_induced(complement(path(5)), CO_P5) is not None
    assert find_induced(complement(path(5)), P5) is None


def test_c6_contains_p5_not_c4():
    g = cycle(6)
    assert find_induced(g, P5) is not None
    assert find_induced(g, C4) is None
    assert find_induced(g, C6) is not None


def test_is_free():
    assert is_free(domino(), (SUN3,))
    assert not is_free(domino(), (C4,))
    assert is_free(sun3(), (DOMINO, C4))
    assert not is_free(sun3(), (C3,))


def test_sun3_and_domino_disjoint():
    assert find_induced(sun3(), DOMINO) is None
    assert find_induced(domino(), SUN3) is None


def test_iter_induced_counts_labeled_c4s_in_domino():
    occs = list(iter_induced(domino(), C4))
    # two induced squares, each with 8 automorphic embeddings
    hosts = {frozenset(o.vertices) for o in occs}
    assert hosts == {frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5})}
    assert len(occs) == 16


def _brute_embeddings(g: Graph, pat) -> list[tuple[int, ...]]:
    """Every host tuple that induces ``pat``, in lexicographic order."""
    want = {(min(u, v), max(u, v)) for u, v in pat.edges}
    pairs = [((i, j), (i, j) in want) for i, j in combinations(range(pat.n), 2)]
    return [
        t
        for t in permutations(range(g.n), pat.n)
        if all(g.adjacent(t[i], t[j]) == edge for (i, j), edge in pairs)
    ]


def test_matcher_agrees_with_permutation_bruteforce():
    rng, masks = random.Random(3), random.Random(4)
    pats = (P5, CO_P5, C4, C5, DOMINO, SUN3)
    for _ in range(150):
        n = rng.randint(4, 7)
        g = gnp(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng)
        sub = masks.getrandbits(n)
        for pat in pats:
            if pat.n > n:
                continue
            brute = _brute_embeddings(g, pat)
            assert [o.vertices for o in iter_induced(g, pat)] == brute
            assert find_induced(g, pat) == (Occurrence(pat.name, brute[0]) if brute else None)
            # the mask-level matcher sees only the subgraph on ``sub``
            inside = [t for t in brute if all(sub >> v & 1 for v in t)]
            assert list(induced_in_mask(g._adj, sub, pat)) == inside


def test_occurrence_is_really_induced():
    rng = random.Random(5)
    found = 0
    while found < 60:
        g = gnp(7, 0.5, rng)
        occ = find_induced(g, P5)
        if occ is None:
            continue
        found += 1
        want = {(min(u, v), max(u, v)) for u, v in P5.edges}
        for i, j in combinations(range(5), 2):
            assert g.adjacent(occ.vertices[i], occ.vertices[j]) == ((i, j) in want)


def test_antisimplicial():
    # star center: every other vertex is pairwise nonadjacent
    g = star(3)
    assert is_antisimplicial(g, 0)
    assert find_antisimplicial(g) == 0
    # C5 has none
    assert find_antisimplicial(cycle(5)) is None
    # complete graph: everyone qualifies (lone antineighborhood)
    assert find_antisimplicial(complete(4)) == 0


def test_is_c5():
    assert is_c5(cycle(5))
    relabeled = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert is_c5(relabeled)
    assert not is_c5(cycle(4))
    assert not is_c5(path(5))
    # 2-regular but disconnected is impossible at n=5; spot-check n mismatch
    assert not is_c5(cycle(6))


def test_cycle_pattern_builder():
    assert cycle_pattern(4).edges == C4.edges
    assert cycle_pattern(5).n == 5


def test_bull_has_no_p5():
    assert is_free(bull(), (P5, CO_P5))
