import itertools
import random
from collections import Counter

import pytest

from treeprov.automata import BNTA, EMPTY, accepts
from treeprov.circuits import (NAT, POSBOOL, eval_bool, eval_bool_vector,
                               expand_polynomial)
from treeprov.encoding import annotate, encode
from treeprov.provcirc import query_provenance_circuit
from treeprov.relational import (Fact, Instance, make_instance,
                                 normalize_decomposition, subinstance,
                                 tree_decomposition)
from treeprov.trees import postorder
from treeprov.ucq import (CQ, UCQ, Atom, _nx_automaton, compile_bag,
                          compile_bool, enumerate_matches, nx_provenance,
                          nx_provenance_bruteforce, parse_ucq, satisfies)

from genutil import rand_cq, rand_instance, rand_ucq
from oracles import bag_satisfies


def test_parse_ucq():
    q = parse_ucq("R(x,y),S(y);R(x,x)", free=("x",))
    assert len(q.disjuncts) == 2
    assert q.disjuncts[0].atoms == (Atom("R", ("x", "y")), Atom("S", ("y",)))
    assert q.free == ("x",)
    with pytest.raises(SyntaxError):
        parse_ucq("R(x,")
    with pytest.raises(SyntaxError):
        parse_ucq("R(x)", free=("y",))
    with pytest.raises(SyntaxError):
        parse_ucq("R(x) S(x)")


def test_enumerate_matches_and_satisfies():
    inst = make_instance({"R": 2}, [("R", ("a", "a")), ("R", ("b", "c")),
                                    ("R", ("c", "b"))])
    q = parse_ucq("R(x,y),R(y,x)")
    ms = enumerate_matches(q, inst)
    assert len(ms) == 3
    assert satisfies(q, inst)
    inst2 = make_instance({"R": 2}, [("R", ("b", "c")), ("R", ("c", "b"))])
    assert not satisfies(parse_ucq("R(x,x)"), inst2)
    assert satisfies(parse_ucq("R(x,x);R(x,y)"), inst2)


def test_compile_bool_on_full_encodings():
    """The compiled automaton accepts an encoding iff the instance
    satisfies the query."""
    rng = random.Random(62)
    for _ in range(60):
        q = rand_ucq(rng)
        inst = rand_instance(rng, max_facts=6, max_dom=4)
        enc = encode(inst, normalize_decomposition(tree_decomposition(inst)))
        assert accepts(compile_bool(q), enc.root) == satisfies(q, inst)


def _directed(rng, edges):
    """R-instance with each undirected edge given a random direction."""
    facts = []
    for i, (a, b) in enumerate(edges):
        if rng.random() < 0.5:
            a, b = b, a
        facts.append(Fact("R", (a, b), "F%d" % (i + 1)))
    return Instance({"R": 2}, facts)


def _cycle(n):
    return [("c%d" % i, "c%d" % ((i + 1) % n)) for i in range(n)]


def _ladder(m):
    """The 2 x m grid: two rails joined by rungs."""
    edges = [("g%d_%d" % (r, j), "g%d_%d" % (r, j + 1))
             for r in (0, 1) for j in range(m - 1)]
    return edges + [("g0_%d" % j, "g1_%d" % j) for j in range(m)]


def _width_two_instances(rng, n):
    for i in range(n):
        shape = _cycle(rng.randint(8, 10)) if i % 2 else _ladder(
            rng.randint(4, 5))
        yield _directed(rng, shape)


def test_query_provenance_circuit_width_two():
    """Boolean provenance of 3-atom queries on width-2 cycles and grids,
    and of random two-disjunct UCQs with disequalities on random
    instances of width at most 2, checked on every valuation: a world
    satisfies the query iff it keeps all facts of some match."""
    found = make_instance({"R": 2}, [
        ("R", ("c08", "c07")), ("R", ("c07", "c01")), ("R", ("c03", "c04")),
        ("R", ("c00", "c05")), ("R", ("c04", "c08")), ("R", ("c03", "c06")),
        ("R", ("c05", "c01")), ("R", ("c02", "c06")), ("R", ("c00", "c02"))])
    rng = random.Random(66)
    cases = [(parse_ucq("R(x,y),R(y,z),R(z,w)"), found)]
    for inst in _width_two_instances(rng, 8):
        cases.append((UCQ((rand_cq(rng, 3, {"R": 2}),)), inst))
    while len(cases) < 9 + 400:  # 400 random UCQs after the 9 above
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=3, diseq=True)
        inst = rand_instance(rng, max_facts=7, max_dom=4)
        if len(q.disjuncts) == 2 and tree_decomposition(inst).width <= 2:
            cases.append((q, inst))
    for q, inst in cases:
        res, _enc = query_provenance_circuit(compile_bool(q), inst, 2)
        key_to_id = {f.key(): f.id for f in inst.facts}
        uses = [{key_to_id[(a.rel, tuple(asg[v] for v in a.vars))]
                 for a in q.disjuncts[j].atoms}
                for j, asg in enumerate_matches(q, inst)]
        fids = [f.id for f in inst.facts]
        width = 1 << len(fids)
        vec = {fid: sum(1 << v for v in range(width) if (v >> i) & 1)
               for i, fid in enumerate(fids)}
        out = eval_bool_vector(res.circuit, vec, width)
        for v in range(width):
            world = {fid for i, fid in enumerate(fids) if (v >> i) & 1}
            assert ((out >> v) & 1) == any(u <= world for u in uses)


def _projection_cases(rng):
    """Random UCQs on random instances of width 1 and 2, then random
    R-only UCQs on width-2 cycles and grids: (query, instance, width)."""
    cases = []
    while len(cases) < 60:
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=3, diseq=True)
        inst = rand_instance(rng, max_facts=7, max_dom=5)
        k = tree_decomposition(inst).width
        if k in (1, 2):
            cases.append((q, inst, k))
    for inst in _width_two_instances(rng, 4):
        cases.append((rand_ucq(rng, max_disjuncts=2, max_atoms=3,
                               signature={"R": 2}), inst, 2))
    return cases


def _stripped(automaton, seen):
    """The automaton without its project, noting each delta lookup."""

    def delta(q1, q2, l):
        seen.append((q1, q2, l))
        return automaton.delta(q1, q2, l)

    return BNTA(automaton.iota, delta, automaton.is_final)


def test_compile_bool_projection_contract():
    """Every (q1, q2, label) that a circuit build meets, with project
    stripped so that states reach delta unprojected, satisfies
    delta(q1, q2, l) == delta(project(q1, l), project(q2, l), l), EMPTY
    when either side is None; project is idempotent and reads only the
    label's domain."""
    rng = random.Random(67)
    widths = set()
    for q, inst, k in _projection_cases(rng):
        automaton = compile_bool(q)
        project = automaton.project
        seen = []
        query_provenance_circuit(_stripped(automaton, seen), inst, k)
        widths.add(k)
        for q1, q2, l in seen:
            p1, p2 = project(q1, l), project(q2, l)
            want = EMPTY if p1 is None or p2 is None else \
                automaton.delta(p1, p2, l)
            assert automaton.delta(q1, q2, l) == want
            for state, p in ((q1, p1), (q2, p2)):
                assert project(state, l.neuter()) == p
                assert p is None or project(p, l) == p
    assert widths == {1, 2}


def test_compile_bool_projection_keeps_circuit_values():
    """The same queries with project stripped from the automaton give
    circuits that agree with compile_bool's on every valuation."""
    rng = random.Random(67)
    for q, inst, k in _projection_cases(rng):
        automaton = compile_bool(q)
        got = query_provenance_circuit(automaton, inst, k)[0].circuit
        plain = query_provenance_circuit(_stripped(automaton, []), inst,
                                         k)[0].circuit
        fids = [f.id for f in inst.facts]
        width = 1 << len(fids)
        vec = {fid: sum(1 << v for v in range(width) if (v >> i) & 1)
               for i, fid in enumerate(fids)}
        assert eval_bool_vector(got, vec, width) == \
            eval_bool_vector(plain, vec, width)


def _directed_chain(edges):
    """R-instance with edge (i, j) directed e<i> -> e<j>, facts F1.."""
    return Instance({"R": 2}, [
        Fact("R", ("e%02d" % a, "e%02d" % b), "F%d" % (i + 1))
        for i, (a, b) in enumerate(edges)])


def test_query_provenance_circuit_size_beyond_exhaustive():
    """Circuits too large to check on every valuation: a node gets one
    gate per partial match it can hold, and all full matches share one
    accepting state, which bounds the gate count (69 and 150 gates), and
    the circuit agrees with the query on random subinstances."""
    path = [(i, i + 1) for i in range(24)]
    grid = ([(r * 8 + j, r * 8 + j + 1) for r in (0, 1) for j in range(7)]
            + [(j, 8 + j) for j in range(8)])
    cases = [("R(x,y),R(y,z)", path, 1, 80),
             ("R(x,y),R(y,z),R(z,w)", grid, 2, 175)]
    rng = random.Random(88)  # keeping a third of the facts mixes answers
    for text, edges, k, max_gates in cases:
        q = parse_ucq(text)
        inst = _directed_chain(edges)
        res, _enc = query_provenance_circuit(compile_bool(q), inst, k)
        assert len(res.circuit.gates) <= max_gates
        for _ in range(64):
            val = {f.id: int(rng.random() < 1 / 3) for f in inst.facts}
            assert (eval_bool(res.circuit, val)
                    == satisfies(q, subinstance(inst, val)))


def test_compile_bag_oracle():
    """compile_bag on annotated encodings agrees with the bag oracle."""
    rng = random.Random(63)
    for _ in range(15):
        cq = rand_cq(rng, max_atoms=2)
        inst = rand_instance(rng, max_facts=4, max_dom=3)
        p = len(cq.atoms)
        a = compile_bag(cq, p=p)
        enc = encode(inst, normalize_decomposition(tree_decomposition(inst)))
        fids = [f.id for f in inst.facts]
        for anns in itertools.product(range(p + 1), repeat=len(fids)):
            val = dict(zip(fids, anns))
            ann_tree = annotate(enc, val, default=0)
            bag = {f.key(): val[f.id] for f in inst.facts if val[f.id]}
            assert accepts(a, ann_tree) == bag_satisfies(cq, bag)


def test_nx_states_of_one_disjunct_are_tagged():
    """`_nx_automaton` tags a one-disjunct query's states (0, descriptor),
    as it tags a union's: every state a run on a 3-edge path reaches, at
    every annotation, the accepting ones at the root among them."""
    inst = make_instance({"R": 2}, [("R", ("a", "b")), ("R", ("b", "c")),
                                    ("R", ("c", "d"))])
    a = _nx_automaton(parse_ucq("R(x,y),R(y,z)").disjuncts)
    enc = encode(inst, normalize_decomposition(tree_decomposition(inst)))
    reach = {}
    for n in postorder(enc.root):
        labels = [(n.label, ann) for ann in range(3)]
        if n.is_leaf():
            reach[id(n)] = {q for l in labels for q in a.iota(l)}
        else:
            reach[id(n)] = {q for l in labels for q1 in reach[id(n.left)]
                            for q2 in reach[id(n.right)]
                            for q in a.delta(q1, q2, l)}
    states = set().union(*reach.values())
    assert states and all(
        tag == 0 and len(slots) == 3 and type(placed) is int
        for tag, (slots, placed) in states)
    assert any(a.is_final(q) for q in reach[id(enc.root)])


def test_nx_provenance_worked_example():
    inst = make_instance({"R": 2}, [("R", ("a", "a")), ("R", ("b", "c")),
                                    ("R", ("c", "b"))])
    q = parse_ucq("R(x,y),R(y,x)")
    poly = expand_polynomial(nx_provenance(q, inst))
    assert str(poly) == "F1^2 + 2*F2*F3"
    assert poly == nx_provenance_bruteforce(q, inst)
    assert poly.evaluate(NAT, {"F1": 1, "F2": 1, "F3": 1}) == 3


def test_nx_expansion_with_a_shared_add_gate():
    """`expand_polynomial` sums in place only into inputs that no other
    gate reads: an add gate that feeds two parents (here a mul and an
    add gate) keeps its value."""
    inst = make_instance({"R": 2}, [("R", ("a", "b")), ("R", ("a", "c")),
                                    ("R", ("a", "d")), ("R", ("d", "a"))])
    q = parse_ucq("R(x,y),R(y,z)")
    circuit = nx_provenance(q, inst)
    readers = Counter(i for _t, ins in circuit.gates.values() for i in ins)
    assert any(t == "add" and readers[g] == 2
               for g, (t, _ins) in circuit.gates.items())
    assert expand_polynomial(circuit) == nx_provenance_bruteforce(q, inst)


def test_nx_provenance_random_oracle():
    rng = random.Random(64)
    for _ in range(15):
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        inst = rand_instance(rng, max_facts=4, max_dom=3)
        poly = expand_polynomial(nx_provenance(q, inst))
        assert poly == nx_provenance_bruteforce(q, inst)


def test_nx_provenance_width_two_oracle():
    """N[X] provenance at width 2, beyond the 3-element instances of the
    random oracle: 3-atom queries on cycles and grids, a UCQ whose
    disjuncts differ in size, a disequality, and a self-join on a loop."""
    rng = random.Random(67)
    cases = []
    for inst in _width_two_instances(rng, 30):
        cases += [(rand_cq(rng, 3, {"R": 2}), inst) for _ in range(3)]
    inst = _directed(rng, _cycle(9))
    cases.append((parse_ucq("R(x,y);R(x,y),R(y,z),R(z,w)"), inst))
    cases.append((CQ((Atom("R", ("x", "y")), Atom("R", ("z", "y"))),
                     frozenset([frozenset(["x", "z"])])), inst))
    loop = Instance({"R": 2}, inst.facts + (Fact("R", ("c0", "c0"), "L"),))
    cases.append((parse_ucq("R(x,y),R(y,z)"), loop))
    cases.append((parse_ucq("R(x,y),R(y,x),R(x,z)"), loop))
    for q, inst in cases:
        if isinstance(q, CQ):
            q = UCQ((q,))
        poly = expand_polynomial(nx_provenance(q, inst, 2))
        assert poly == nx_provenance_bruteforce(q, inst)


def test_nx_provenance_posbool_matches_bool_provenance():
    """PosBool specialization of the N[X] circuit = Boolean provenance."""
    rng = random.Random(65)
    for _ in range(8):
        q = rand_ucq(rng, max_disjuncts=1, max_atoms=2)
        inst = rand_instance(rng, max_facts=4, max_dom=3)
        poly = expand_polynomial(nx_provenance(q, inst))
        fids = [f.id for f in inst.facts]
        for bits in itertools.product((0, 1), repeat=len(fids)):
            val = dict(zip(fids, bits))
            pb = poly.evaluate(POSBOOL, {f: bool(b) for f, b in val.items()})
            assert pb == satisfies(q, subinstance(inst, val))


def test_empty_instance_nx_provenance():
    inst = make_instance({"R": 2}, [])
    q = parse_ucq("R(x,y)")
    assert expand_polynomial(nx_provenance(q, inst)).monomials == {}
