import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treeprov.automata import BNTA, accepts, count_runs
from treeprov.circuits import (Polynomial, circuit_to_json, eval_bool,
                               expand_polynomial)
from treeprov.encoding import encode
from treeprov.errors import NotMonotone
from treeprov.provcirc import (ALL, _nx_circuit, bool_provenance_circuit,
                               monotone_provenance_circuit,
                               nx_provenance_circuit,
                               query_provenance_circuit)
from treeprov.relational import (check_decomposition, make_instance,
                                 normalize_decomposition, tree_decomposition)
from treeprov.trees import Node, postorder
from treeprov.ucq import (_nx_automaton, compile_bool, nx_provenance,
                          nx_provenance_bruteforce, parse_ucq)

from genutil import (rand_bool_automaton, rand_instance, rand_p_automaton,
                     rand_tree, rand_ucq)
from oracles import decomposes_circuit


def with_anns(t, anns):
    def rebuild(n):
        lab = (n.label, anns[id(n)])
        if n.is_leaf():
            return Node(lab)
        return Node(lab, rebuild(n.left), rebuild(n.right))

    return rebuild(t)


def test_bool_provenance_matches_acceptance():
    rng = random.Random(51)
    for _ in range(60):
        a = rand_bool_automaton(rng, ("a", "b"))
        t = rand_tree(rng, rng.randint(1, 5))
        res = bool_provenance_circuit(a, t)
        assert decomposes_circuit(res.circuit, res.decomposition)
        nodes = postorder(t)
        for bits in itertools.product((0, 1), repeat=len(nodes)):
            anns = {id(n): b for n, b in zip(nodes, bits)}
            nu = {res.input_map[id(n)]: anns[id(n)] for n in nodes}
            assert eval_bool(res.circuit, nu) == accepts(a, with_anns(t, anns))


def test_bool_provenance_decomposition_valid():
    rng = random.Random(52)
    for _ in range(20):
        a = rand_bool_automaton(rng, ("a", "b"))
        t = rand_tree(rng, rng.randint(1, 6))
        res = bool_provenance_circuit(a, t)
        from treeprov.circuits import circuit_relational_encoding
        inst = circuit_relational_encoding(res.circuit)
        assert check_decomposition(inst, res.decomposition)
        assert res.decomposition.normalized


def monotone_automaton(rng, labels):
    """Random automaton satisfying the inclusion conditions."""
    a = rand_bool_automaton(rng, labels)
    iota_map = dict(a.iota_map)
    delta_map = dict(a.delta_map)
    for l in labels:
        z = iota_map.get((l, 0))
        if z:
            iota_map[(l, 1)] = iota_map.get((l, 1), frozenset()) | z
        for q1 in a.states:
            for q2 in a.states:
                z = delta_map.get((q1, q2, (l, 0)))
                if z:
                    key = (q1, q2, (l, 1))
                    delta_map[key] = delta_map.get(key, frozenset()) | z
    from treeprov.automata import BNTA
    return BNTA.from_tables(a.states, a.final, iota_map, delta_map)


def test_monotone_provenance():
    rng = random.Random(53)
    for _ in range(40):
        a = monotone_automaton(rng, ("a", "b"))
        t = rand_tree(rng, rng.randint(1, 5))
        res = monotone_provenance_circuit(a, t)
        assert all(tp != "not" for tp, _ in res.circuit.gates.values())
        nodes = postorder(t)
        for bits in itertools.product((0, 1), repeat=len(nodes)):
            anns = {id(n): b for n, b in zip(nodes, bits)}
            nu = {res.input_map[id(n)]: anns[id(n)] for n in nodes}
            assert eval_bool(res.circuit, nu) == accepts(a, with_anns(t, anns))


def test_monotone_provenance_rejects_nonmonotone():
    from treeprov.automata import BNTA
    # leaf: state only on annotation 0 -> violates inclusion
    a = BNTA.from_tables([0], {0}, {("a", 0): frozenset({0})}, {})
    with pytest.raises(NotMonotone):
        monotone_provenance_circuit(a, Node("a"))


def nx_bruteforce(a, t, l, p):
    """Oracle: sum over all annotations of run count times monomial."""
    nodes = postorder(t)
    total = Polynomial()
    gate_name = {}
    for anns in itertools.product(range(p + 1), repeat=len(nodes)):
        if l != ALL and sum(anns) != l:
            continue
        amap = {id(n): v for n, v in zip(nodes, anns)}
        runs = count_runs(a, with_anns(t, amap))
        if not runs:
            continue
        term = Polynomial.constant(runs)
        for n, v in zip(nodes, anns):
            for _ in range(v):
                term = term * Polynomial.variable(id(n))
        total = total + term
    return total


def rename_poly(poly, mapping):
    out = {}
    for m, c in poly.monomials.items():
        key = tuple(sorted(((mapping[v], e) for v, e in m), key=repr))
        out[key] = out.get(key, 0) + c
    return Polynomial(out)


@pytest.mark.parametrize("l", [ALL, 0, 1, 2, 3])
def test_nx_provenance_circuit_oracle(l):
    rng = random.Random(54 if l == ALL else 100 + l)
    for _ in range(25):
        p = 2
        a = rand_p_automaton(rng, ("a", "b"), p=p)
        t = rand_tree(rng, rng.randint(1, 3))
        res = nx_provenance_circuit(a, t, l=l, p=p)
        assert decomposes_circuit(res.circuit, res.decomposition)
        got = expand_polynomial(res.circuit)
        mapping = {res.input_map[id(n)]: id(n) for n in postorder(t)}
        assert rename_poly(got, mapping) == nx_bruteforce(a, t, l, p)


def test_query_provenance_circuit_inputs_are_fact_ids():
    rng = random.Random(56)
    q = parse_ucq("R(x,y),R(y,x)")
    inst = rand_instance(rng, max_facts=5, signature={"R": 2})
    res, enc = query_provenance_circuit(compile_bool(q), inst, None)
    assert sorted(res.circuit.inputs()) == sorted(f.id for f in inst.facts)
    from treeprov.circuits import circuit_relational_encoding
    cinst = circuit_relational_encoding(res.circuit)
    assert check_decomposition(cinst, res.decomposition)
    assert decomposes_circuit(res.circuit, res.decomposition)


def test_nx_provenance_decomposition():
    """nx_provenance's circuit, rebuilt with its decomposition from the
    same encoding and the same automaton, unprojected, is decomposed by
    it; unions included."""
    rng = random.Random(57)
    for _ in range(15):
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        inst = rand_instance(rng, max_facts=4, max_dom=3)
        enc = encode(inst, normalize_decomposition(
            tree_decomposition(inst, None)))
        a = _nx_automaton(q.disjuncts)
        automaton = BNTA(a.iota, a.delta, a.is_final)
        p = max(len(d.atoms) for d in q.disjuncts)
        circuit, decomp = _nx_circuit(automaton, enc.nodes(), enc.node_fact,
                                      ALL, p)
        assert circuit_to_json(circuit) == \
            circuit_to_json(nx_provenance(q, inst))
        assert decomposes_circuit(circuit, decomp)
        assert expand_polynomial(circuit) == nx_provenance_bruteforce(q, inst)


def test_nx_circuit_projected_equals_unprojected():
    """`_nx_circuit` on `_nx_automaton`, which projects each child's
    states once per node and steps the projected pairs, emits the same
    JSON as on its unprojected copy, whose delta projects every pair;
    on unions, with l = ALL and with an integer l."""
    rng = random.Random(29)
    for case in range(20):
        q = rand_ucq(rng, max_disjuncts=3, max_atoms=3)
        if case == 0:
            q = parse_ucq(_BRANCHED_UNION)
        inst = rand_instance(rng, max_facts=6, max_dom=4)
        enc = encode(inst, normalize_decomposition(
            tree_decomposition(inst, None)))
        p = max(len(d.atoms) for d in q.disjuncts)
        for l in (ALL, 1, 2):
            a = _nx_automaton(q.disjuncts)
            plain = BNTA(a.iota, a.delta, a.is_final)
            projected, unprojected = (
                json.dumps(circuit_to_json(_nx_circuit(
                    automaton, enc.nodes(), enc.node_fact, l, p)[0]))
                for automaton in (a, plain))
            assert projected == unprojected, (q, l)


def test_nx_circuits_carry_no_constants():
    """The constant 1 is folded away: no nullary product, no product of
    a constant, no one-term sum, and at most 40 gates in all."""
    path = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(6)])
    circuit = nx_provenance(parse_ucq("R(x,y),R(y,z)"), path)
    constants = {g for g, (t, ins) in circuit.gates.items()
                 if t != "inp" and not ins}
    for g, (t, ins) in circuit.gates.items():
        assert t != "mul" or (ins and not constants & set(ins)), g
        assert t != "add" or len(ins) != 1, g
    assert len(circuit) <= 40


_GRID_EDGES = ([(r * 5 + j, r * 5 + j + 1) for r in (0, 1) for j in range(4)]
               + [(j, 5 + j) for j in range(5)])

_UNIONS = ("R(x,y),S(y);S(x),R(y,x)",
           "R(x,y),S(y);S(x),R(y,x);R(x,y),R(y,z)")
# the grid with a branch: at width 2, child states that differ in a
# slot the parent drops project alike, on the left and on the right
_BRANCHED_EDGES = _GRID_EDGES + [(2, 20), (7, 21), (20, 22)]
_BRANCHED_UNION = "R(x,y),R(y,z);R(x,y),R(z,y)"

_BUILD = """
import json
from fractions import Fraction
import random
from treeprov.automata import BNTA
from treeprov.circuits import circuit_to_json
from treeprov.prob import BIDInstance, bid_to_pcc, lineage_circuit
from treeprov.provcirc import bool_provenance_circuit, query_provenance_circuit
from treeprov.relational import instance_from_json, make_instance
from treeprov.trees import Node
from treeprov.ucq import compile_bool, nx_provenance, parse_ucq

# a table automaton over generic (tau, b) labels, with no project: its
# states are strings, so a transition's states hash apart under the seeds
rng = random.Random(3)
states = ["q%%d" %% i for i in range(5)]
table = BNTA.from_tables(
    states, states[:2],
    {(t, b): [q for q in states if rng.random() < 0.5]
     for t in "ab" for b in (0, 1)},
    {(q1, q2, (t, b)): [q for q in states if rng.random() < 0.4]
     for q1 in states for q2 in states for t in "ab" for b in (0, 1)})


def load():
    grid = instance_from_json(json.load(open(%r)))
    path = make_instance({"R": 2}, [("R", ("v%%d" %% i, "v%%d" %% (i + 1)))
                                    for i in range(4)])
    pcc = bid_to_pcc(BIDInstance(path, {"R": (0,)},
                                 {f.id: Fraction(1, 2) for f in path.facts}))
    marked = instance_from_json(json.load(open(%r)))
    branched = instance_from_json(json.load(open(%r)))
    tree = Node("a", Node("b"), Node("a"))
    for t in "babba":
        tree = Node(t, Node(t, tree, Node("b")), Node("a"))
    return grid, pcc, marked, branched, tree


def build(grid, pcc, marked, branched, tree):
    res, _ = query_provenance_circuit(
        compile_bool(parse_ucq("R(x,y),R(y,z),R(z,w)")), grid, 2)
    lineage, _ = lineage_circuit(compile_bool(parse_ucq("R(x,y),R(y,z)")),
                                 pcc)
    unions = [query_provenance_circuit(compile_bool(parse_ucq(q)), marked,
                                       None)[0].circuit for q in %r]
    branched_query = parse_ucq(%r)
    branched_union = compile_bool(branched_query)
    unions.append(query_provenance_circuit(branched_union, branched,
                                           2)[0].circuit)
    # the same union on another instance, its steps warm from branched
    unions.append(query_provenance_circuit(branched_union, marked,
                                           2)[0].circuit)
    nx = nx_provenance(parse_ucq("R(x,y),R(y,z)"), marked)
    # a union's N[X] states, tagged with their disjunct
    nx_union = nx_provenance(branched_query, branched, 2)
    on_table = bool_provenance_circuit(table, tree).circuit
    return [circuit_to_json(c)
            for c in [res.circuit, lineage, *unions, nx, nx_union, on_table]]


# the second build runs on the automata, with their memos and kept
# plans, and on the instance encodings of the first; the third on the
# automata only
inputs = load()
print(json.dumps(build(*inputs)))
print(json.dumps(build(*inputs)))
print(json.dumps(build(*load())))
"""


def test_bool_circuits_do_not_depend_on_the_hash_seed(tmp_path):
    """Boolean provenance (library and CLI, one disjunct and unions, at
    widths 1 and 2, a union on steps kept from another instance, and a
    table automaton with generic labels), lineage and N[X] (library and
    CLI, and a union at width 2) circuits come out byte for byte the
    same under two hash seeds, and the library's the same again when
    built a second time in the process, on warm automata and instance
    encodings, and a third, on warm automata and new inputs."""
    grid, branched = tmp_path / "grid.json", tmp_path / "branched.json"
    for path, edges in ((grid, _GRID_EDGES), (branched, _BRANCHED_EDGES)):
        path.write_text(json.dumps({"signature": {"R": 2}, "facts": [
            {"rel": "R", "args": ["e%02d" % a, "e%02d" % b], "id": "F%d" % i}
            for i, (a, b) in enumerate(edges, 1)]}))
    marked = tmp_path / "marked.json"
    marked.write_text(json.dumps({"signature": {"R": 2, "S": 1}, "facts": [
        {"rel": "R", "args": ["v%d" % i, "v%d" % (i + 1)], "id": "F%d" % i}
        for i in range(6)] + [
        {"rel": "S", "args": ["v%d" % i], "id": "S%d" % i}
        for i in (0, 2, 3, 5)]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        lib = subprocess.run([sys.executable, "-c",
                              _BUILD % (str(grid), str(marked),
                                        str(branched), _UNIONS,
                                        _BRANCHED_UNION)],
                             env=env, capture_output=True, check=True,
                             text=True).stdout
        cli = [subprocess.run([sys.executable, "-m", "treeprov.cli",
                               "provenance", "--instance", str(inst),
                               "--query", q, *opts],
                              env=env, capture_output=True, check=True,
                              text=True).stdout
               for inst, q, opts in [
                   (grid, "R(x,y),R(y,z),R(z,w)", ["--width", "2"]),
                   (marked, "R(x,y),R(y,z)", ["--mode", "nx"])]]
        outs.append((lib, cli))
    cold, warm, reloaded = outs[0][0].splitlines()
    assert [c["kind"] for c in json.loads(cold)] == \
        ["bool"] * 6 + ["semiring"] * 2 + ["bool"]
    assert len(json.loads(cold)[-1]["gates"]) > 20
    assert cold == warm == reloaded
    assert all(out.startswith("{") for out in outs[0][1])
    assert outs[0] == outs[1]


def test_branched_union_merges_projected_states():
    """The width-2 union of the hash-seed test ORs child states that
    project alike, for a left child and for a right child."""
    branched = make_instance({"R": 2}, [("R", ("e%02d" % a, "e%02d" % b))
                                        for a, b in _BRANCHED_EDGES])
    res, _ = query_provenance_circuit(
        compile_bool(parse_ucq(_BRANCHED_UNION)), branched, 2)
    assert {g[0] for g in res.circuit.gates if isinstance(g, tuple)} >= \
        {"ul", "ur"}


def test_states_project_to_themselves_under_a_wider_domain():
    """The contract `_bool_circuit` relies on to skip a projection: on
    random encodings of width 1 and 2, every state that `compile_bool`
    reaches at a child, under any valuation, projects to itself at a
    parent whose label domain holds the child's."""
    rng = random.Random(71)
    widths, checked = set(), 0
    while widths != {1, 2} or checked < 200:
        inst = rand_instance(rng, max_facts=6, max_dom=5)
        enc = encode(inst, normalize_decomposition(
            tree_decomposition(inst, None)))
        if enc.k not in (1, 2):
            continue
        widths.add(enc.k)
        automaton = compile_bool(rand_ucq(rng, max_disjuncts=2, max_atoms=3))
        reached = {}
        for n in enc.nodes():
            labels = {n.label, n.label.neuter()}
            if n.is_leaf():
                states = {q for l in labels for q in automaton.iota(l)}
            else:
                for c in (n.left, n.right):
                    if c.label.dom <= n.label.dom:
                        checked += 1
                        for q in reached[id(c)]:
                            assert automaton.project(q, n.label) == q
                states = {q for l in labels
                          for q1 in reached[id(n.left)]
                          for q2 in reached[id(n.right)]
                          for q in automaton.delta(q1, q2, l)}
            reached[id(n)] = states
