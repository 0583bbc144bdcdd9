import itertools
import random

import pytest

from treeprov.automata import (BNTA, accepts, count_runs, determinize,
                               intersect, lazy_determinize, lift_boolean,
                               materialize, memoized, monotonize,
                               reachable_sets, relabel_hom, union,
                               automaton_from_json, automaton_to_json)
from treeprov.encoding import KFact
from treeprov.errors import StateBlowup
from treeprov.trees import Node, postorder

from genutil import rand_bool_automaton, rand_tree
from oracles import enumerate_runs

LABELS = [("a", b) for b in (0, 1)] + [("b", b) for b in (0, 1)]


def rand_ann_tree(rng, n):
    t = rand_tree(rng, n)
    from treeprov.trees import map_labels
    return map_labels(t, lambda l: (l, rng.randint(0, 1)))


def all_small_trees(labels, max_leaves=3):
    """All trees with up to max_leaves leaves over the given labels."""
    by_leaves = {1: [Node(l) for l in labels]}
    for n in range(2, max_leaves + 1):
        acc = []
        for ln in range(1, n):
            for lt in by_leaves[ln]:
                for rt in by_leaves[n - ln]:
                    for l in labels:
                        acc.append(Node(l, lt, rt))
        by_leaves[n] = acc
    return [t for ts in by_leaves.values() for t in ts]


def test_accepts_matches_enumerate_runs():
    rng = random.Random(21)
    for _ in range(40):
        a = rand_bool_automaton(rng, ("a", "b"))
        t = rand_ann_tree(rng, rng.randint(1, 6))
        runs = enumerate_runs(a, t)
        accepted = [r for r, q in runs if a.is_final(q)]
        assert accepts(a, t) == bool(accepted)
        assert count_runs(a, t) == len(accepted)


def test_reachable_sets_match_runs():
    rng = random.Random(22)
    for _ in range(20):
        a = rand_bool_automaton(rng, ("a", "b"))
        t = rand_ann_tree(rng, rng.randint(1, 5))
        reach = reachable_sets(a, t)
        assert reach[id(t)] == frozenset(q for _, q in enumerate_runs(a, t))


def test_memoized_equivalent():
    rng = random.Random(23)
    a = rand_bool_automaton(rng, ("a", "b"))
    m = memoized(a)
    for _ in range(20):
        t = rand_ann_tree(rng, rng.randint(1, 6))
        assert accepts(a, t) == accepts(m, t)
        assert count_runs(a, t) == count_runs(m, t)


def test_union_language_and_run_counts():
    rng = random.Random(24)
    for _ in range(20):
        a1 = rand_bool_automaton(rng, ("a", "b"))
        a2 = rand_bool_automaton(rng, ("a", "b"))
        u = union([a1, a2])
        t = rand_ann_tree(rng, rng.randint(1, 5))
        assert accepts(u, t) == (accepts(a1, t) or accepts(a2, t))
        assert count_runs(u, t) == count_runs(a1, t) + count_runs(a2, t)


def test_intersect_language_and_run_counts():
    rng = random.Random(25)
    for _ in range(20):
        a1 = rand_bool_automaton(rng, ("a", "b"))
        a2 = rand_bool_automaton(rng, ("a", "b"))
        x = intersect(a1, a2)
        t = rand_ann_tree(rng, rng.randint(1, 5))
        assert accepts(x, t) == (accepts(a1, t) and accepts(a2, t))
        assert count_runs(x, t) == count_runs(a1, t) * count_runs(a2, t)


def test_determinize_language_and_one_run():
    rng = random.Random(26)
    for i in range(10):
        a = rand_bool_automaton(rng, ("a", "b"))
        d = determinize(a, LABELS)
        for t in all_small_trees(LABELS, 3)[:200]:
            assert accepts(d, t) == accepts(a, t)
            assert count_runs(d, t) in (0, 1)


def test_lazy_determinize_equivalent():
    rng = random.Random(27)
    a = rand_bool_automaton(rng, ("a", "b"))
    d = lazy_determinize(a)
    for _ in range(30):
        t = rand_ann_tree(rng, rng.randint(1, 6))
        assert accepts(d, t) == accepts(a, t)
        assert count_runs(d, t) in (0, 1)


def test_lazy_determinize_cap():
    rng = random.Random(28)
    a = rand_bool_automaton(rng, ("a", "b"), n_states=4)
    d = lazy_determinize(a, cap=1)
    with pytest.raises(StateBlowup):
        for _ in range(50):
            accepts(d, rand_ann_tree(rng, 6))


def test_materialize_equivalent_and_capped():
    rng = random.Random(29)
    a = rand_bool_automaton(rng, ("a", "b"))
    # wrap as a lazy automaton (drop the tables)
    lazy = BNTA(a.iota, a.delta, a.is_final)
    m = materialize(lazy, LABELS)
    for _ in range(30):
        t = rand_ann_tree(rng, rng.randint(1, 6))
        assert accepts(m, t) == accepts(a, t)
        assert count_runs(m, t) == count_runs(a, t)
    with pytest.raises(StateBlowup):
        materialize(lazy, LABELS, cap=1)


def test_relabel_hom():
    rng = random.Random(30)
    a = rand_bool_automaton(rng, ("a", "b"))
    # relabel c -> a, d -> b
    h = {"c": "a", "d": "b"}
    r = relabel_hom(a, lambda l: (h[l[0]], l[1]))
    for _ in range(20):
        t = rand_ann_tree(rng, 5)
        from treeprov.trees import map_labels
        t2 = map_labels(t, lambda l: ({"a": "c", "b": "d"}[l[0]], l[1]))
        assert count_runs(r, t2) == count_runs(a, t)


def test_lift_boolean():
    """The lifted automaton treats ((tau, 0)) like the neutered label."""
    rng = random.Random(31)
    labels = [KFact(frozenset({1}), "R", (1,)), KFact(frozenset({1}))]
    a = rand_bool_automaton(rng, [])
    # build table automaton directly over KFact labels
    from treeprov.automata import BNTA as B
    iota_map = {labels[0]: frozenset({0}), labels[1]: frozenset({1})}
    delta_map = {(q1, q2, l): frozenset({q1})
                 for q1 in (0, 1) for q2 in (0, 1) for l in labels}
    base = B.from_tables([0, 1], {0}, iota_map, delta_map)
    lifted = lift_boolean(base)
    t1 = Node((labels[0], 1))
    t0 = Node((labels[0], 0))
    assert reachable_sets(lifted, t1)[id(t1)] == frozenset({0})
    assert reachable_sets(lifted, t0)[id(t0)] == frozenset({1})


def test_monotonize_cumulative():
    rng = random.Random(32)
    a = rand_bool_automaton(rng, ("a", "b"))
    m = monotonize(a)
    for _ in range(30):
        t = rand_ann_tree(rng, rng.randint(1, 5))
        # on a tree, m reaches the union over pointwise-smaller valuations
        nodes = postorder(t)
        expect = set()
        anns = [n.label[1] for n in nodes]
        for lower in itertools.product(*[range(b + 1) for b in anns]):
            from treeprov.trees import map_labels
            idx = {id(n): i for i, n in enumerate(nodes)}
            t2 = _with_anns(t, {id(n): lower[idx[id(n)]] for n in nodes})
            expect |= set(reachable_sets(a, t2)[id(t2)])
        assert reachable_sets(m, t)[id(t)] == frozenset(expect)


def _with_anns(t, anns):
    def rebuild(n):
        lab = (n.label[0], anns[id(n)])
        if n.is_leaf():
            return Node(lab)
        return Node(lab, rebuild(n.left), rebuild(n.right))

    return rebuild(t)


def test_automaton_json_roundtrip():
    rng = random.Random(33)
    kf = KFact(frozenset({1, 2}), "R", (1, 2))
    kfn = KFact(frozenset({1, 2}))
    labels = [(kf, 0), (kf, 1), (kfn, 0)]
    iota_map = {labels[0]: frozenset({0}), labels[1]: frozenset({1})}
    delta_map = {(0, 1, labels[2]): frozenset({1})}
    a = BNTA.from_tables([0, 1], {1}, iota_map, delta_map)
    b = automaton_from_json(automaton_to_json(a))
    t = Node(labels[2], Node(labels[0]), Node(labels[1]))
    assert accepts(b, t) == accepts(a, t)
    assert count_runs(b, t) == count_runs(a, t) == 1
