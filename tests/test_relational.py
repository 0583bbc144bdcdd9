import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from treeprov import relational
from treeprov.errors import NoDecomposition
from treeprov.relational import (Bag, Fact, Instance, TreeDecomposition,
                                 _exact_elimination_order, _min_fill_order,
                                 _mmd_plus, check_decomposition,
                                 decomposition_from_json,
                                 decomposition_to_json, instance_from_json,
                                 instance_to_json, make_instance,
                                 normalize_decomposition, primal_graph,
                                 subinstance, tree_decomposition)

from genutil import rand_instance
from oracles import instances_isomorphic


def path_instance(n):
    return make_instance({"E": 2},
                         [("E", ("v%d" % i, "v%d" % (i + 1)))
                          for i in range(n)])


def cycle_instance(n):
    return make_instance({"E": 2},
                         [("E", ("v%d" % i, "v%d" % ((i + 1) % n)))
                          for i in range(n)])


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance({"R": 2}, [Fact("S", ("a",), "F1")])
    with pytest.raises(ValueError):
        Instance({"R": 2}, [Fact("R", ("a",), "F1")])
    with pytest.raises(ValueError):
        Instance({"R": 1}, [Fact("R", ("a",), "F1"), Fact("R", ("a",), "F2")])
    with pytest.raises(ValueError):
        Instance({"R": 0}, [])


def test_subinstance():
    inst = make_instance({"R": 1}, [("R", ("a",)), ("R", ("b",))])
    sub = subinstance(inst, {"F1": 1, "F2": 0})
    assert sub.fact_keys() == {("R", ("a",))}
    with pytest.raises(ValueError):
        subinstance(inst, {"F1": 1})


def test_instances_isomorphic():
    i1 = make_instance({"R": 2}, [("R", ("a", "b")), ("R", ("b", "c"))])
    i2 = make_instance({"R": 2}, [("R", ("x", "y")), ("R", ("y", "z"))])
    i3 = make_instance({"R": 2}, [("R", ("x", "y")), ("R", ("x", "z"))])
    assert instances_isomorphic(i1, i2)
    assert not instances_isomorphic(i1, i3)


def test_path_width_one():
    decomp = tree_decomposition(path_instance(6))
    assert decomp.width == 1
    assert check_decomposition(path_instance(6), decomp)


def test_cycle_width_two():
    inst = cycle_instance(6)
    decomp = tree_decomposition(inst)
    assert decomp.width == 2
    assert check_decomposition(inst, decomp)


def test_triangle_width_two():
    inst = cycle_instance(3)
    decomp = tree_decomposition(inst)
    assert decomp.width == 2
    assert check_decomposition(inst, decomp)


def test_width_bound_enforced():
    with pytest.raises(NoDecomposition):
        tree_decomposition(cycle_instance(5), 1)
    with pytest.raises(ValueError):
        tree_decomposition(path_instance(3), 0)


def test_decomposition_random_valid():
    rng = random.Random(7)
    for _ in range(40):
        inst = rand_instance(rng, max_facts=8, max_dom=6)
        decomp = tree_decomposition(inst)
        assert check_decomposition(inst, decomp)


def test_exact_decomposition_optimal_on_cliques():
    # a k-clique has treewidth k-1; the exact DP must find it
    for k in (2, 3, 4, 5):
        elems = ["v%d" % i for i in range(k)]
        triples = [("E", (a, b)) for i, a in enumerate(elems)
                   for b in elems[i + 1:]]
        inst = make_instance({"E": 2}, triples)
        assert tree_decomposition(inst).width == k - 1


def _elimination_width(order, adj):
    """Largest neighbourhood met when eliminating vertices in order."""
    adj = {v: set(nb) for v, nb in adj.items()}
    width = 0
    for v in order:
        nb = adj.pop(v)
        width = max(width, len(nb))
        for u in nb:
            adj[u] |= nb - {u}
            adj[u].discard(v)
    return width


def test_exact_decomposition_width_is_brute_force_minimum():
    rng = random.Random(17)
    for _ in range(40):
        verts = ["v%d" % i for i in range(rng.randint(1, 7))]
        edges = [(a, b) for a, b in itertools.combinations(verts, 2)
                 if rng.random() < 0.45]
        inst = make_instance({"E": 2, "U": 1},
                             [("E", e) for e in edges]
                             + [("U", (v,)) for v in verts])
        adj = {v: set() for v in verts}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        best = min(_elimination_width(order, adj)
                   for order in itertools.permutations(verts))
        decomp = tree_decomposition(inst)
        assert check_decomposition(inst, decomp)
        assert decomp.width == best


def random_graph_instance(rng, n):
    """n vertices in shuffled domain order (the min-fill tie-break), each
    pair joined with one probability drawn per graph."""
    verts = ["v%d" % i for i in range(n)]
    rng.shuffle(verts)
    density = rng.random()
    edges = [(a, b) for a, b in itertools.combinations(verts, 2)
             if rng.random() < density]
    return make_instance({"E": 2, "U": 1},
                         [("U", (v,)) for v in verts]
                         + [("E", e) for e in edges])


def test_mmd_plus_and_min_fill_bracket_the_exact_width():
    rng = random.Random(23)
    missed = 0
    for _ in range(500):
        # 2..14 vertices, smaller sizes more often: the exact DP doubles
        # in cost with every vertex
        inst = random_graph_instance(
            rng, 2 + min(rng.randint(0, 12), rng.randint(0, 12)))
        verts, adj = primal_graph(inst)
        low = _mmd_plus(verts, adj)
        _, exact = _exact_elimination_order(verts, adj)
        _, heuristic = _min_fill_order(verts, adj)
        assert low <= exact <= heuristic
        decomp = tree_decomposition(inst)
        assert check_decomposition(inst, decomp)
        assert decomp.width == exact
        missed += heuristic > low
    assert missed  # some graphs take the exact DP


def test_min_fill_order_matches_recounted_fills():
    """Each step of the incremental ordering picks what a full recount
    of the fills would: least fill, then latest in domain order."""
    rng = random.Random(29)
    for _ in range(60):
        inst = random_graph_instance(rng, rng.randint(2, 40))
        verts, adj = primal_graph(inst)
        order, width = _min_fill_order(verts, adj)
        rank = {v: i for i, v in enumerate(verts)}
        left = {v: set(nb) for v, nb in adj.items()}
        for v in order:
            fills = {u: sum(1 for a, b in itertools.combinations(nb, 2)
                            if b not in left[a])
                     for u, nb in left.items()}
            assert v == min(left, key=lambda u: (fills[u], -rank[u]))
            nb = left.pop(v)
            for u in nb:
                left[u] |= nb - {u}
                left[u].discard(v)
        assert width == _elimination_width(order, adj)


def test_lower_bound_refuses_before_any_ordering(monkeypatch):
    elems = ["v%d" % i for i in range(5)]
    clique = make_instance({"E": 2}, [("E", e) for e in
                                      itertools.combinations(elems, 2)])

    def no_ordering(verts, adj):
        raise AssertionError("an ordering was computed")

    monkeypatch.setattr(relational, "_min_fill_order", no_ordering)
    monkeypatch.setattr(relational, "_exact_elimination_order", no_ordering)
    with pytest.raises(NoDecomposition, match=r"lower bound 4 .*bound 3"):
        tree_decomposition(clique, 3)


_DECOMPOSE = """
import json
from treeprov.circuits import arity_two
from treeprov.prob import (PCCInstance, PCInstance, joint_decomposition,
                           pc_to_pcc)
from treeprov.relational import (decomposition_to_json, make_instance,
                                 tree_decomposition)

grid = make_instance({"E": 2}, [
    ("E", ("r%dc%d" % (r, c), "r%dc%d" % (r2, c2)))
    for r in range(3) for c in range(6)
    for r2, c2 in ((r + 1, c), (r, c + 1)) if r2 < 3 and c2 < 6])
path = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                for i in range(8)])
conds = {f.id: ("or", ("var", "e%d" % (i % 4)),
                ("not", ("var", "e%d" % ((i + 1) % 4))))
         for i, f in enumerate(path.facts)}
pcc = pc_to_pcc(PCInstance(path, conds, {"e%d" % i: "1/2"
                                         for i in range(4)}))
c2, rep, _ = arity_two(pcc.circuit)
pcc2 = PCCInstance(path, c2, {fid: rep[g] for fid, g in pcc.phi.items()},
                   pcc.probs)
print(json.dumps([decomposition_to_json(tree_decomposition(grid)),
                  decomposition_to_json(joint_decomposition(pcc2)[1])]))
"""


def test_decompositions_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        outs.append(subprocess.run([sys.executable, "-c", _DECOMPOSE],
                                   env=env, capture_output=True, check=True,
                                   text=True).stdout)
    assert outs[0].startswith('[{"dom"')
    assert outs[0] == outs[1]


def test_large_instance_uses_heuristic():
    inst = path_instance(30)  # 31 elements, beyond the exact DP limit
    decomp = tree_decomposition(inst)
    assert check_decomposition(inst, decomp)
    assert decomp.width <= 2


def test_check_decomposition_rejects_bad():
    inst = make_instance({"R": 2}, [("R", ("a", "b"))])
    # missing coverage of the fact
    bad = TreeDecomposition(Bag({"a"}, [Bag({"b"})]), inst)
    assert not check_decomposition(inst, bad)
    # disconnected occurrence of "a"
    bad2 = TreeDecomposition(Bag({"a", "b"}, [Bag({"b"}, [Bag({"a"})])]), inst)
    assert not check_decomposition(inst, bad2)


def test_normalize_decomposition():
    rng = random.Random(8)
    for _ in range(30):
        inst = rand_instance(rng, max_facts=8, max_dom=6)
        decomp = tree_decomposition(inst)
        norm = normalize_decomposition(decomp)
        assert norm.normalized
        assert check_decomposition(inst, norm)
        assert norm.width == decomp.width
        assigned = []
        for b in norm.bags():
            assert len(b.children) in (0, 2)
            assert len(b.facts) <= 1
            assigned.extend(b.facts)
        assert sorted(assigned) == sorted(f.id for f in inst.facts)


def test_normalize_assigns_first_covering_bag_in_bfs_order():
    """Each fact goes to the first bag in BFS order that covers it, as a
    scan of every bag per fact finds it, and a fact with no arguments to
    the root.  Bag domains are distinct, so a normalized bag's domain
    names the bag it copies."""
    rng = random.Random(13)
    for _ in range(100):
        inst = rand_instance(rng, max_facts=10, max_dom=6)
        elems = sorted(inst.domain)
        doms = {frozenset(rng.sample(elems, rng.randint(1, len(elems))))
                for _ in range(rng.randint(1, 8))}
        doms |= {frozenset(f.args) for f in inst.facts
                 if not any(set(f.args) <= d for d in doms)}
        bags = [Bag(d) for d in rng.sample(sorted(doms, key=sorted),
                                           len(doms))]
        for i, b in enumerate(bags[1:], 1):
            bags[rng.randrange(i)].children.append(b)
        facts = list(inst.facts) + [Fact("Z", (), "Z1")]
        rng.shuffle(facts)
        decomp = TreeDecomposition(bags[0], SimpleNamespace(facts=facts))
        bfs = [bags[0]]
        for b in bfs:
            bfs.extend(b.children)
        want = {}
        for f in facts:
            first = next(b for b in bfs if set(f.args) <= b.dom)
            want.setdefault(first.dom, []).append(f.id)
        got = {}
        stack = [normalize_decomposition(decomp).root]
        while stack:  # preorder: a chain's facts top to bottom
            b = stack.pop()
            if b.facts:
                got.setdefault(b.dom, []).extend(b.facts)
            stack.extend(reversed(b.children))
        assert got == want


def test_normalized_fact_bag_is_topmost():
    inst = make_instance({"R": 2, "S": 1},
                         [("R", ("a", "b")), ("S", ("b",))])
    norm = normalize_decomposition(tree_decomposition(inst))
    bag_of = norm.assigned_bag()
    parent = norm.bag_parents()
    for f in inst.facts:
        b = bag_of[f.id]
        p = parent.get(id(b))
        # the parent bag must not also cover the fact (topmost assignment)
        if p is not None:
            assert not set(f.args) <= p.dom or p.dom == b.dom


def test_instance_json_roundtrip():
    rng = random.Random(9)
    inst = rand_instance(rng)
    back = instance_from_json(instance_to_json(inst))
    assert back.signature == inst.signature
    assert [f.key() for f in back.facts] == [f.key() for f in inst.facts]
    assert [f.id for f in back.facts] == [f.id for f in inst.facts]


def test_decomposition_json_roundtrip():
    inst = cycle_instance(4)
    decomp = tree_decomposition(inst)
    back = decomposition_from_json(decomposition_to_json(decomp), inst)
    assert check_decomposition(inst, back)
    assert back.width == decomp.width
