import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treeprov.automata import accepts, count_runs
from treeprov.circuits import Polynomial, eval_bool, expand_polynomial
from treeprov.errors import NotMonotone
from treeprov.provcirc import (ALL, bool_provenance_circuit,
                               monotone_provenance_circuit,
                               nx_provenance_circuit,
                               query_provenance_circuit)
from treeprov.relational import check_decomposition
from treeprov.trees import Node, postorder

from genutil import (rand_bool_automaton, rand_instance, rand_p_automaton,
                     rand_tree)


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
        got = expand_polynomial(res.circuit)
        mapping = {res.input_map[id(n)]: id(n) for n in postorder(t)}
        assert rename_poly(got, mapping) == nx_bruteforce(a, t, l, p)


def test_query_provenance_circuit_inputs_are_fact_ids():
    rng = random.Random(56)
    from treeprov.ucq import compile_bool, parse_ucq
    q = parse_ucq("R(x,y),R(y,x)")
    inst = rand_instance(rng, max_facts=5, signature={"R": 2})
    res, enc = query_provenance_circuit(compile_bool(q), inst, None)
    assert sorted(res.circuit.inputs()) == sorted(f.id for f in inst.facts)
    from treeprov.circuits import circuit_relational_encoding
    cinst = circuit_relational_encoding(res.circuit)
    assert check_decomposition(cinst, res.decomposition)


_GRID_EDGES = ([(r * 5 + j, r * 5 + j + 1) for r in (0, 1) for j in range(4)]
               + [(j, 5 + j) for j in range(5)])

_BUILD = """
import json
from fractions import Fraction
from treeprov.circuits import circuit_to_json
from treeprov.prob import BIDInstance, bid_to_pcc, lineage_circuit
from treeprov.provcirc import query_provenance_circuit
from treeprov.relational import instance_from_json, make_instance
from treeprov.ucq import compile_bool, parse_ucq

grid = instance_from_json(json.load(open(%r)))
res, _ = query_provenance_circuit(
    compile_bool(parse_ucq("R(x,y),R(y,z),R(z,w)")), grid, 2)
path = make_instance({"R": 2}, [("R", ("v%%d" %% i, "v%%d" %% (i + 1)))
                                for i in range(4)])
pcc = bid_to_pcc(BIDInstance(path, {"R": (0,)},
                             {f.id: Fraction(1, 2) for f in path.facts}))
lineage, _ = lineage_circuit(compile_bool(parse_ucq("R(x,y),R(y,z)")), pcc)
print(json.dumps([circuit_to_json(res.circuit), circuit_to_json(lineage)]))
"""


def test_bool_circuits_do_not_depend_on_the_hash_seed(tmp_path):
    """Boolean provenance (library and CLI) and lineage circuits come out
    byte for byte the same under two hash seeds."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"signature": {"R": 2}, "facts": [
        {"rel": "R", "args": ["e%02d" % a, "e%02d" % b], "id": "F%d" % i}
        for i, (a, b) in enumerate(_GRID_EDGES, 1)]}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        lib = subprocess.run([sys.executable, "-c", _BUILD % str(grid)],
                             env=env, capture_output=True, check=True,
                             text=True).stdout
        cli = subprocess.run([sys.executable, "-m", "treeprov.cli",
                              "provenance", "--instance", str(grid),
                              "--query", "R(x,y),R(y,z),R(z,w)",
                              "--width", "2"],
                             env=env, capture_output=True, check=True,
                             text=True).stdout
        outs.append((lib, cli))
    assert outs[0][0].startswith('[{"kind": "bool"')
    assert outs[0][1].startswith("{")
    assert outs[0] == outs[1]
