import json
import random
from dataclasses import fields

import pytest
from conftest import _split, _threshold

from widom import decomposition
from widom.cli import main
from widom.decomposition import (
    NodeKind,
    NotInClassError,
    build_tree,
    classify_mask,
    find_good_vertex_mask,
    find_homogeneous_set,
    find_module_mask,
    is_prime,
    nonleaf_split,
    tree_to_dot,
    tree_to_json,
)
from widom.generators import bull, complete, cycle, empty, gnp, path, star, sun3
from widom.graph import Graph, bits, induced_subgraph, mask_of
from widom.io import emit_graph
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


def _good_vertex(g: Graph) -> int:
    return find_good_vertex_mask(g._adj, g.full_bits)


def test_good_vertex_p4():
    # vertex 0 leaves {0,2,3} with the single edge (2,3)
    assert _good_vertex(path(4)) == 0


def test_good_vertex_p5_and_c5():
    # the second path vertex sees {0,2}; the rest {1,3,4} has one edge
    assert _good_vertex(path(5)) == 1
    assert _good_vertex(cycle(5)) == 0


def test_good_vertex_none_on_c6():
    # no vertex works, and the failure is explained by an obstruction
    g = cycle(6)
    assert _good_vertex(g) == -1
    with pytest.raises(NotInClassError):
        nonleaf_split(g, g.full_bits)


def test_p4_tree_shape():
    t = build_tree(path(4))
    root = t.root
    assert root.kind is NodeKind.ANTINEIGHBORHOOD
    assert root.rep == 0
    assert root.label == (0, 1)
    anti, rest = root.children
    assert anti.kind is NodeKind.LEAF_F
    assert anti.mask == mask_of((0, 2, 3))
    assert rest.mask == mask_of((1, 2, 3))
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
    assert root.module == mask_of((0, 2))
    assert root.rep == 0
    assert root.label == (2, 1)
    inner, outer = root.children
    assert inner.mask == mask_of((0, 2))
    assert outer.mask == mask_of((0, 1, 3))


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
    assert t.root.mask == 0 and t.node_count == 1


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


def test_nodes_and_trees_store_only_their_split():
    assert [f.name for f in fields(decomposition.DecompNode)] == ["kind", "mask", "rep", "children"]
    assert [f.name for f in fields(decomposition.DecompTree)] == ["root"]
    # label, module and the counts are read off the masks and children
    t = build_tree(cycle(4))
    assert (t.root.label, t.root.module) == ((2, 1), mask_of((0, 2)))
    leaf = t.root.children[0]
    assert (leaf.label, leaf.module) == (None, None)
    assert build_tree(path(4)).root.module is None
    assert (t.node_count, t.internal_count) == (5, 2)


def test_leaf_partition_of_vertices(inclass_corpus):
    # every leaf carries root ids; together the internal-node splits
    # cover each vertex a bounded number of times, and each leaf is
    # complete or has at most one edge
    for wg in inclass_corpus[:60]:
        t = build_tree(wg.graph)
        for node in t.root.walk():
            sub, _ = induced_subgraph(wg.graph, bits(node.mask))
            if node.kind is NodeKind.LEAF_COMPLETE:
                assert sub.is_complete()
                assert not node.children
            elif node.kind is NodeKind.LEAF_F:
                assert len(sub.edges) <= 1
                assert not node.children
            else:
                assert len(node.children) == 2


def test_json_and_dot_outputs():
    t = build_tree(path(4))
    data = tree_to_json(t)
    assert data["node_count"] == 5
    assert data["root"]["kind"] == "antineighborhood"
    dot = tree_to_dot(t)
    assert dot.startswith("digraph") and "antineighborhood" in dot


# Exact `widom tree` record and tree_to_dot output.  In the inner
# nodes, vertices, module and rep are root ids that differ from their
# positions within the node, so a slip between the two shows.
GOLDEN = {
    "path4": (
        path(4),
        '{"internal_count": 2, "node_count": 5, "root": {"children": ['
        '{"kind": "leaf_f", "n": 3, "vertices": [0, 2, 3]}, {"children": ['
        '{"kind": "leaf_f", "n": 2, "vertices": [1, 3]}, '
        '{"kind": "leaf_complete", "n": 2, "vertices": [1, 2]}], '
        '"kind": "homogeneous", "label": [3, 2], "module": [1, 3], "n": 3, "rep": 1, '
        '"vertices": [1, 2, 3]}], "kind": "antineighborhood", "label": [0, 1], "n": 4, '
        '"rep": 0, "vertices": [0, 1, 2, 3]}}',
        'digraph decomposition {\n  node [shape=box];\n'
        '  n0 [label="antineighborhood\\nn=4\\nlabel=(0,1)"];\n'
        '  n1 [label="leaf_f\\nn=3"];\n  n0 -> n1;\n'
        '  n2 [label="homogeneous\\nn=3\\nlabel=(3,2)"];\n'
        '  n3 [label="leaf_f\\nn=2"];\n  n2 -> n3;\n'
        '  n4 [label="leaf_complete\\nn=2"];\n  n2 -> n4;\n  n0 -> n2;\n}',
    ),
    "cycle4": (
        cycle(4),
        '{"internal_count": 2, "node_count": 5, "root": {"children": ['
        '{"kind": "leaf_f", "n": 2, "vertices": [0, 2]}, {"children": ['
        '{"kind": "leaf_f", "n": 2, "vertices": [1, 3]}, '
        '{"kind": "leaf_complete", "n": 2, "vertices": [0, 1]}], '
        '"kind": "homogeneous", "label": [3, 0], "module": [1, 3], "n": 3, "rep": 1, '
        '"vertices": [0, 1, 3]}], "kind": "homogeneous", "label": [2, 1], '
        '"module": [0, 2], "n": 4, "rep": 0, "vertices": [0, 1, 2, 3]}}',
        'digraph decomposition {\n  node [shape=box];\n'
        '  n0 [label="homogeneous\\nn=4\\nlabel=(2,1)"];\n'
        '  n1 [label="leaf_f\\nn=2"];\n  n0 -> n1;\n'
        '  n2 [label="homogeneous\\nn=3\\nlabel=(3,0)"];\n'
        '  n3 [label="leaf_f\\nn=2"];\n  n2 -> n3;\n'
        '  n4 [label="leaf_complete\\nn=2"];\n  n2 -> n4;\n  n0 -> n2;\n}',
    ),
}


def _tree_stdout(g: Graph, tmp_path, capsys) -> str:
    f = tmp_path / "g.graph"
    f.write_text(emit_graph(g))
    assert main(["tree", str(f)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("g, compact, dot", GOLDEN.values(), ids=GOLDEN.keys())
def test_tree_text_golden(g, compact, dot, tmp_path, capsys):
    assert _tree_stdout(g, tmp_path, capsys) == compact + "\n"
    assert tree_to_dot(build_tree(g)) == dot


def test_tree_record_is_one_compact_line(tmp_path, capsys):
    """The record of a tree about 200 levels deep is one line with no
    indentation."""
    g = _threshold(random.Random(200), 200)
    out = _tree_stdout(g, tmp_path, capsys)
    assert out == json.dumps(tree_to_json(build_tree(g)), sort_keys=True) + "\n"
    assert len(out.encode()) < 1_000_000


def test_tree_builds_no_per_node_graph(monkeypatch, family_graphs, c6_module):
    def refuse(*args):
        raise AssertionError("build_tree built a Graph")

    monkeypatch.setattr(Graph, "__init__", refuse)
    for g in family_graphs:
        build_tree(g)
    # the obstruction is named in root ids without relabelling a subgraph
    with pytest.raises(NotInClassError, match=r"P5 at \(3, 4, 5, 6, 7\)"):
        build_tree(c6_module)


def test_walk_is_preorder_at_any_depth(family_graphs):
    def preorder(node):
        out = [node]
        for child in node.children:
            out.extend(preorder(child))
        return out

    for g in family_graphs:
        t = build_tree(g)
        walked = list(t.root.walk())
        assert [id(node) for node in walked] == [id(node) for node in preorder(t.root)]
        assert len(walked) == t.node_count
    # a chain deeper than the recursion limit walks without recursing
    deep = decomposition.DecompNode(NodeKind.LEAF_COMPLETE, 1)
    for _ in range(5000):
        deep = decomposition.DecompNode(NodeKind.HOMOGENEOUS, 1, children=(deep,))
    assert sum(1 for _ in deep.walk()) == 5001


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
            split = classify_mask(g, node.mask)
            assert split.kind is node.kind and split.rep == node.rep
            assert split.children == tuple(child.mask for child in node.children)
            if split.kind is NodeKind.HOMOGENEOUS:
                assert node.module == split.children[0]
    # the split contract, on random sub-masks: induced subgraphs stay in
    # class, so every one of them splits
    rng = random.Random(1111)
    for g in [wg.graph for wg in inclass_corpus[::5]] + family_graphs:
        adj = g._adj
        for mask in [g.full_bits] + [rng.getrandbits(g.n) for _ in range(8)]:
            kind, rep, children = classify_mask(g, mask)
            if kind in (NodeKind.LEAF_COMPLETE, NodeKind.LEAF_F):
                assert rep is None and children == ()
                continue
            assert mask >> rep & 1
            for child in children:
                assert child & ~mask == 0 and child != mask
            first, second = children
            if kind is NodeKind.ANTINEIGHBORHOOD:
                assert children == (mask & ~adj[rep], mask & ~(1 << rep))
                continue
            assert rep == min(bits(first)) and first.bit_count() >= 2
            for z in bits(mask & ~first):
                assert adj[z] & first in (0, first)
            assert second & first == 1 << rep and second | first == mask


def test_module_mask_matches_fixpoint_closure_near_prime():
    # past the gnp sizes above: random split graphs, whose twins are
    # rare, so the search tries nearly every pair before it answers
    from test_substituted import substituted_graph

    rng = random.Random(2030)
    graphs = [_split(rng, n) for n in range(20, 31) for _ in range(2)]
    graphs += [substituted_graph(rng, lo=20 + 2 * i) for i in range(10)]
    for g in graphs:
        masks = [g.full_bits] + [rng.getrandbits(g.n) for _ in range(8)]
        for mask in masks:
            assert find_module_mask(g._adj, mask) == _fixpoint_module_mask(g._adj, mask)


class _CountingAdj(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_module_search_reads_quadratic_on_prime_mask():
    # each pair stops once its closure reaches a vertex already known to
    # close to the whole mask, so a prime mask costs O(n^2) reads (about
    # 0.64 n^2 here), not one full closure per pair
    n = 160
    g = _split(random.Random(n), n)
    adj = _CountingAdj(g._adj)
    assert find_module_mask(adj, g.full_bits) == 0
    assert adj.reads <= n * n
