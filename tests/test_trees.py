import random

import pytest

from treeprov.trees import (Node, enumerate_shapes, fold, full_binary,
                            map_labels, parents, postorder, preorder, size)

from genutil import rand_tree


def test_node_rejects_single_child():
    with pytest.raises(ValueError):
        Node("a", Node("b"), None)


def test_postorder_children_before_parents():
    rng = random.Random(1)
    for _ in range(20):
        t = rand_tree(rng, rng.randint(1, 12))
        order = postorder(t)
        pos = {id(n): i for i, n in enumerate(order)}
        for n in order:
            if not n.is_leaf():
                assert pos[id(n.left)] < pos[id(n)]
                assert pos[id(n.right)] < pos[id(n)]
        assert order[-1] is t
        assert len(order) == len(set(id(n) for n in order))


def test_preorder_parents_before_children():
    rng = random.Random(2)
    for _ in range(20):
        t = rand_tree(rng, rng.randint(1, 12))
        order = preorder(t)
        pos = {id(n): i for i, n in enumerate(order)}
        for n in order:
            if not n.is_leaf():
                assert pos[id(n)] < pos[id(n.left)] < pos[id(n.right)]
        assert order[0] is t
        assert set(map(id, order)) == set(map(id, postorder(t)))


def test_size_and_parents():
    t = full_binary(3, "x")
    assert size(t) == 15
    par = parents(t)
    assert id(t) not in {id(k) for k in par}
    for n in postorder(t):
        if not n.is_leaf():
            assert par[n.left] is n
            assert par[n.right] is n


def test_map_labels_same_shape():
    rng = random.Random(3)
    t = rand_tree(rng, 9)
    t2 = map_labels(t, lambda l: (l, l))
    for a, b in zip(postorder(t), postorder(t2)):
        assert b.label == (a.label, a.label)
        assert a.is_leaf() == b.is_leaf()


def test_enumerate_shapes_catalan():
    # number of full binary trees with 2n+1 nodes is the n-th Catalan number
    assert len(enumerate_shapes(1)) == 1
    assert len(enumerate_shapes(3)) == 1
    assert len(enumerate_shapes(5)) == 2
    assert len(enumerate_shapes(7)) == 5
    assert len(enumerate_shapes(9)) == 14
    assert enumerate_shapes(2) == []
    for t in enumerate_shapes(7):
        assert size(t) == 7


def test_deep_tree_no_recursion_error():
    t = Node("x")
    for _ in range(5000):
        t = Node("x", t, Node("x"))
    assert size(t) == 10001


def test_fold_children_first_in_order():
    """fold on an unranked tree of (label, children) pairs: make sees a
    node after all its children, left to right, and 5,000 levels need
    no recursion."""
    tree = ("r", [("a", [("b", []), ("c", [])]), ("d", []),
                  ("e", [("f", [])])])
    order = []

    def make(node, kids):
        order.append(node[0])
        return "%s(%s)" % (node[0], ",".join(kids))

    assert fold(tree, lambda n: n[1], make) == "r(a(b(),c()),d(),e(f()))"
    assert order == list("bcadfer")
    deep = ("x", [])
    for _ in range(5000):
        deep = ("x", [deep, ("y", [])])
    assert fold(deep, lambda n: n[1], lambda n, kids: 1 + sum(kids)) == 10001
