import itertools
import random

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


def test_nx_ann_caps_sound_when_high_anns_dead():
    """Capping a node's annotation is harmless when annotations above the
    cap reach no states at all."""
    rng = random.Random(55)
    from treeprov.automata import BNTA
    for _ in range(20):
        p = 2
        a = rand_p_automaton(rng, ("a",), p=p)
        # kill all transitions with annotation 2 so a cap of 1 is exact
        iota_map = {k: v for k, v in a.iota_map.items() if k[1] < 2}
        delta_map = {k: v for k, v in a.delta_map.items() if k[2][1] < 2}
        a2 = BNTA.from_tables(a.states, a.final, iota_map, delta_map)
        t = rand_tree(rng, 3, labels=("a",))
        caps = {id(n): 1 for n in postorder(t)}
        res = nx_provenance_circuit(a2, t, l=ALL, p=p, ann_caps=caps)
        got = expand_polynomial(res.circuit)
        mapping = {res.input_map[id(n)]: id(n) for n in postorder(t)}
        assert rename_poly(got, mapping) == nx_bruteforce(a2, t, ALL, p)


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
