import json
import random

import pytest

from widom.decomposition import (
    NodeKind,
    NotInClassError,
    build_tree,
    classify_mask,
    find_good_vertex,
    find_homogeneous_set,
    find_module_mask,
    is_prime,
    tree_to_dot,
    tree_to_json,
    tree_to_json_text,
)
from widom.generators import bull, complete, cycle, empty, gnp, path, star, sun3
from widom.graph import Graph, bits, mask_of
from widom.solver import solve_id


def test_c4_first_module():
    # both ends of a diagonal see exactly {1, 3}
    assert find_homogeneous_set(cycle(4)) == frozenset({0, 2})


def test_module_examples():
    assert find_homogeneous_set(complete(3)) == frozenset({0, 1})
    assert find_homogeneous_set(empty(3)) == frozenset({0, 1})
    assert find_homogeneous_set(path(4)) is None
    assert find_homogeneous_set(bull()) is None
    assert is_prime(bull())
    assert is_prime(path(4))
    assert not is_prime(cycle(4))
    # tiny graphs have no room for a proper 2+ module
    assert is_prime(Graph(2, [(0, 1)]))
    assert is_prime(Graph(2, []))
    assert is_prime(Graph(1, []))


def test_good_vertex_p4():
    # vertex 0 leaves {0,2,3} with the single edge (2,3)
    assert find_good_vertex(path(4)) == 0


def test_good_vertex_p5_and_c5():
    # the second path vertex sees {0,2}; the rest {1,3,4} has one edge
    assert find_good_vertex(path(5)) == 1
    assert find_good_vertex(cycle(5)) == 0


def test_good_vertex_none_on_c6():
    # no vertex works, and the failure is explained by an obstruction
    with pytest.raises(NotInClassError):
        find_good_vertex(cycle(6))
    from widom.decomposition import find_good_vertex_mask

    g = cycle(6)
    assert find_good_vertex_mask(g._adj, g.full_bits) == -1


def test_p4_tree_shape():
    t = build_tree(path(4))
    root = t.root
    assert root.kind is NodeKind.ANTINEIGHBORHOOD
    assert root.rep == 0
    assert root.label == (0, 1)
    anti, rest = root.children
    assert anti.kind is NodeKind.LEAF_F
    assert anti.to_root == (0, 2, 3)
    assert rest.to_root == (1, 2, 3)
    assert t.node_count == 5
    assert t.internal_count == 2


def test_complete_is_single_leaf():
    t = build_tree(complete(4))
    assert t.root.kind is NodeKind.LEAF_COMPLETE
    assert t.node_count == 1


def test_leaf_f_when_one_edge():
    t = build_tree(Graph(3, [(1, 2)]))
    assert t.root.kind is NodeKind.LEAF_F
    assert t.node_count == 1


def test_homogeneous_node_labels():
    # C4: module {0,2}, so h=0, a=2, b = smallest outside = 1
    t = build_tree(cycle(4))
    root = t.root
    assert root.kind is NodeKind.HOMOGENEOUS
    assert root.module == frozenset({0, 2})
    assert root.rep == 0
    assert root.label == (2, 1)
    inner, outer = root.children
    assert inner.to_root == (0, 2)
    assert outer.to_root == (0, 1, 3)


def test_not_in_class_diagnostic():
    with pytest.raises(NotInClassError) as err:
        build_tree(cycle(6))
    occ = err.value.occurrence
    assert occ.pattern_name == "P5"
    assert occ.vertices == (0, 1, 2, 3, 4)
    assert "P5" in str(err.value)


def test_not_in_class_names_root_vertices(c6_module):
    # the obstruction lies inside a module, yet is reported in input ids
    for run in (build_tree, solve_id):
        with pytest.raises(NotInClassError) as err:
            run(c6_module)
        assert err.value.graph is c6_module
        assert err.value.occurrence.vertices == (3, 4, 5, 6, 7)


def test_empty_graph_tree():
    t = build_tree(Graph(0, []))
    assert t.root.kind is NodeKind.LEAF_COMPLETE
    assert t.root.to_root == () and t.node_count == 1


def test_sun3_tree_builds():
    # in class even though it defeats the clique/matched split
    t = build_tree(sun3())
    assert t.node_count >= 1


def test_label_distinctness_and_bound(inclass_corpus):
    for wg in inclass_corpus[:150]:
        g = wg.graph
        t = build_tree(g)
        labels = [n.label for n in t.root.walk() if n.label is not None]
        assert len(labels) == len(set(labels))
        assert len(labels) == t.internal_count
        assert t.internal_count <= max(1, g.n * (g.n - 1))


def test_leaf_partition_of_vertices(inclass_corpus):
    # every leaf carries root ids; together the internal-node splits
    # cover each vertex a bounded number of times, and each leaf is
    # complete or has at most one edge
    for wg in inclass_corpus[:60]:
        t = build_tree(wg.graph)
        for node in t.root.walk():
            if node.kind is NodeKind.LEAF_COMPLETE:
                assert node.graph.is_complete()
                assert not node.children
            elif node.kind is NodeKind.LEAF_F:
                assert len(node.graph.edges) <= 1
                assert not node.children
            else:
                assert len(node.children) == 2


def test_json_and_dot_outputs():
    t = build_tree(path(4))
    data = tree_to_json(t)
    assert data["node_count"] == 5
    assert data["root"]["kind"] == "antineighborhood"
    text = tree_to_json_text(t)
    assert json.loads(text) == data
    dot = tree_to_dot(t)
    assert dot.startswith("digraph") and "antineighborhood" in dot


def test_star_center_tree():
    t = build_tree(star(3))
    assert t.root.kind in (NodeKind.HOMOGENEOUS, NodeKind.ANTINEIGHBORHOOD)


def test_every_inclass_graph_decomposes(inclass_corpus):
    rng = random.Random(1)
    for wg in rng.sample(inclass_corpus, 120):
        build_tree(wg.graph)


def _fixpoint_module_mask(adj, mask):
    """Reference: rescan every outside vertex until none splits the set."""
    verts = list(bits(mask))
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            grown = (1 << x) | (1 << y)
            changed = True
            while changed and grown != mask:
                changed = False
                for z in bits(mask & ~grown):
                    inside = adj[z] & grown
                    if inside and inside != grown:
                        grown |= 1 << z
                        changed = True
            if grown != mask:
                return grown
    return 0


def test_module_mask_matches_fixpoint_closure(family_graphs):
    rng = random.Random(1414)
    graphs = [gnp(rng.randint(1, 14), rng.random(), rng) for _ in range(200)]
    for g in graphs + family_graphs:
        masks = [g.full_bits] + [rng.getrandbits(g.n) for _ in range(5)]
        for mask in masks:
            assert find_module_mask(g._adj, mask) == _fixpoint_module_mask(g._adj, mask)


def test_classify_mask_agrees_with_tree_nodes(inclass_corpus, family_graphs):
    for g in [wg.graph for wg in inclass_corpus[:60]] + family_graphs:
        for node in build_tree(g).root.walk():
            kind, arg = classify_mask(g, mask_of(node.to_root))
            assert kind is node.kind
            if kind is NodeKind.HOMOGENEOUS:
                assert {node.to_root[v] for v in node.module} == set(bits(arg))
                assert node.to_root[node.rep] == min(bits(arg))
            elif kind is NodeKind.ANTINEIGHBORHOOD:
                assert node.to_root[node.rep] == arg
