"""`compile_bool`'s and `nx_provenance`'s automata keep each step under
the projected states and the label's fact, and `provcirc._bool_circuit`
keeps its transition plans and input-free leaves per automaton: a
circuit does not depend on the builds before it, agrees with the
possible worlds or the brute-force polynomial, and a cold build takes
few placement steps and projects each child state once."""

import json
import random
import sys
from fractions import Fraction

import pytest

from treeprov import provcirc, ucq
from treeprov.automata import BNTA
from treeprov.circuits import circuit_to_json, expand_polynomial
from treeprov.errors import NotMonotone
from treeprov.prob import BIDInstance, lineage_circuit
from treeprov.provcirc import (bool_provenance_circuit,
                               monotone_provenance_circuit,
                               query_provenance_circuit)
from treeprov.relational import make_instance
from treeprov.trees import Node
from treeprov.ucq import (CQ, UCQ, Atom, compile_bool, nx_provenance,
                          nx_provenance_bruteforce, parse_ucq, satisfies)

from genutil import (rand_bool_automaton, rand_fraction, rand_instance,
                     rand_pcc, rand_tree, rand_ucq)
from oracles import bid_worlds, brute_force_prob

# the benchmark's path query, 3-disjunct union and diseq query
QUERIES = (
    parse_ucq("R(x,y),R(y,z)"),
    parse_ucq("R(x,y),S(y);S(x),R(y,x);R(x,y),R(y,x)"),
    UCQ((CQ((Atom("R", ("x", "y")), Atom("R", ("z", "y"))),
            frozenset([frozenset(("x", "z"))])),)),
)


def _graph(edges, marks):
    return make_instance({"R": 2, "S": 1},
                         [("R", ("v%02d" % a, "v%02d" % b)) for a, b in edges]
                         + [("S", ("v%02d" % a,)) for a in marks])


def _path24():
    """A 24-edge path with edge directions from a fixed seed and every
    third element marked."""
    rng = random.Random(24)
    edges = [(i, i + 1) if rng.random() >= 0.5 else (i + 1, i)
             for i in range(24)]
    return _graph(edges, range(0, 25, 3))


def _counted_placement_steps(monkeypatch):
    """The list every placement step (`step`, on projected descriptors)
    of an automaton compiled from now on is appended to; compiled
    automata are dropped, so the next call compiles."""
    steps = []
    placement = ucq.placement_automaton

    def counted(cq):
        automaton = placement(cq)
        step = automaton.step

        def counted_step(d1, d2, label):
            steps.append((d1, d2, label))
            return step(d1, d2, label)

        automaton.step = counted_step
        return automaton

    monkeypatch.setattr(ucq, "placement_automaton", counted)
    ucq._COMPILED.clear()
    return steps


def test_warm_steps_change_no_circuit(monkeypatch):
    """Instance B's circuit JSON is byte for byte the same built cold,
    after instance A on the same automaton, and after B itself; steps A
    took serve B, and a second build of B takes no new step."""
    a = _graph([(0, 1), (2, 1), (2, 3), (3, 4), (4, 0)], (1, 3))
    b = _graph([(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 4)], (0, 2, 5))
    steps = _counted_placement_steps(monkeypatch)
    for q in QUERIES:
        def build(inst):
            res, _ = query_provenance_circuit(compile_bool(q), inst, 2)
            return json.dumps(circuit_to_json(res.circuit))

        ucq._COMPILED.clear()
        steps.clear()
        cold = build(b)
        alone = len(steps)
        ucq._COMPILED.clear()
        build(a)
        steps.clear()
        assert build(b) == cold
        assert len(steps) < alone
        steps.clear()
        assert build(b) == cold
        assert not steps
    ucq._COMPILED.clear()


def test_circuits_agree_with_possible_worlds():
    """On random small instances and random UCQs, unions and
    disequalities among them, the circuit evaluated on every valuation
    gives the probability that the possible worlds give, with each fact
    its own block; the steps are kept across all cases."""
    rng = random.Random(2026)
    shapes = set()
    for case in range(60):
        inst = rand_instance(rng, max_facts=6, max_dom=4)
        q = rand_ucq(rng, max_disjuncts=3, max_atoms=3, diseq=case % 2 == 1)
        shapes.add((len(q.disjuncts) > 1, any(d.diseqs for d in q.disjuncts)))
        probs = {f.id: rand_fraction(rng) or Fraction(1, 2)
                 for f in inst.facts}
        res, _ = query_provenance_circuit(compile_bool(q), inst, None)
        bid = BIDInstance(inst, {}, probs)
        want = sum((w for world, w in bid_worlds(bid) if satisfies(q, world)),
                   Fraction(0))
        assert brute_force_prob(res.circuit, probs) == want, (q, inst.facts)
    assert shapes == {(False, False), (False, True), (True, False),
                      (True, True)}


def test_a_cold_union_call_takes_few_placement_steps(monkeypatch):
    """Counted work, not time: on the fixed 24-edge path at width 1, a
    cold call of the benchmark's 3-disjunct union computes at most 46
    placement steps (delta on projected descriptors), one per distinct
    projected pair and fact: 58 placement deltas ran on this input when
    the memo was keyed by the whole label."""
    steps = _counted_placement_steps(monkeypatch)
    res, _ = query_provenance_circuit(compile_bool(QUERIES[1]), _path24(), 1)
    assert res.circuit.gates
    assert 0 < len(steps) <= 46
    ucq._COMPILED.clear()


# the N[X] benchmark's path query and a union whose disjuncts share no
# state: counted on `_path24` at width 2
NX_QUERIES = (parse_ucq("R(x,y),R(y,z)"), parse_ucq("R(x,y),S(y);S(x),R(y,x)"))


def test_a_cold_nx_call_takes_few_placement_steps(monkeypatch):
    """Counted work, not time: on the fixed 24-edge path at width 2, a
    cold N[X] call computes one any-count placement step per projected
    pair and fact, for every annotation at once: at most 32 steps for
    the path query and 48 for the union, where stepping each (KFact,
    annotation) label on unprojected states made 120 and 180."""
    steps = _counted_placement_steps(monkeypatch)
    inst = _path24()
    for q, bound in zip(NX_QUERIES, (32, 48)):
        ucq._COMPILED.clear()
        steps.clear()
        circuit = nx_provenance(q, inst, 2)
        assert 0 < len(steps) <= bound, q
        assert expand_polynomial(circuit) == nx_provenance_bruteforce(q, inst)
    ucq._COMPILED.clear()


def test_warm_nx_steps_change_no_circuit(monkeypatch):
    """An N[X] circuit of instance B is byte for byte the same built
    cold, after instance A on the same automaton, and after B itself,
    which takes no new placement step."""
    a = _graph([(0, 1), (2, 1), (2, 3), (3, 4), (4, 0)], (1, 3))
    b = _graph([(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 4)], (0, 2, 5))
    steps = _counted_placement_steps(monkeypatch)
    for q in NX_QUERIES + QUERIES[1:]:
        def build(inst):
            return json.dumps(circuit_to_json(nx_provenance(q, inst, 2)))

        ucq._COMPILED.clear()
        cold = build(b)
        steps.clear()
        assert build(b) == cold
        assert not steps
        ucq._COMPILED.clear()
        build(a)
        assert build(b) == cold
    ucq._COMPILED.clear()


def _calls(code, run):
    """How many times run() enters a function with this code object."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_a_cold_build_projects_each_child_state_once():
    """Counted work, not time: on the fixed 24-edge path at width 1, a
    cold build of the benchmark's 3-disjunct union calls the automaton's
    `project` only where `_bool_circuit` projects a child's states, once
    per state and node, and never per stepped pair: 178 calls, where the
    delta that projected both states again made 590."""
    ucq._COMPILED.clear()
    automaton = compile_bool(QUERIES[1])
    project = automaton.project
    asked = []

    def counted(q, label):
        asked.append(q)
        return project(q, label)

    automaton.project = counted  # what `_bool_circuit` reads
    calls = _calls(project.__code__, lambda: query_provenance_circuit(
        automaton, _path24(), 1))
    assert 0 < calls == len(asked) <= 178
    ucq._COMPILED.clear()


def _table_automaton():
    """A table automaton over generic (tau, b) labels, with no project."""
    automaton = rand_bool_automaton(random.Random(7), ("a", "b"), 5)
    assert automaton.project is None and automaton.step is automaton.delta
    return automaton


def test_warm_plans_change_no_lineage_or_table_circuit():
    """Lineage on pcc B, and the provenance circuit of a table automaton
    on tree B, come out byte for byte the same built cold, after A on
    the same automaton, and after B itself: plans and leaves kept from
    other inputs change nothing."""
    rng = random.Random(28)
    pcc_a, pcc_b = rand_pcc(rng, max_facts=6), rand_pcc(rng, max_facts=6)
    tree_a, tree_b = rand_tree(rng, 12), rand_tree(rng, 14)
    table = _table_automaton()

    def lineage(q):
        return lambda pcc: json.dumps(circuit_to_json(
            lineage_circuit(compile_bool(q), pcc)[0]))

    def table_circuit(tree):
        return json.dumps(circuit_to_json(
            bool_provenance_circuit(table, tree).circuit))

    cases = [(lineage(q), pcc_a, pcc_b) for q in QUERIES]
    cases.append((table_circuit, tree_a, tree_b))
    for build, a, b in cases:
        ucq._COMPILED.clear()
        provcirc._KEPT.clear()
        cold = build(b)
        ucq._COMPILED.clear()
        provcirc._KEPT.clear()
        build(a)
        assert build(b) == cold  # on what A kept
        assert build(b) == cold  # on what B kept
    ucq._COMPILED.clear()


def test_a_kept_plan_still_refuses_a_monotone_build():
    """A plan with a state on 0 only, kept by a general build, makes a
    monotone build on the same automaton raise NotMonotone, at a leaf
    and at an inner node."""
    on_leaf = BNTA.from_tables([0, 1], [0], {("a", 0): [1], ("a", 1): [0]},
                               {})
    inner = BNTA.from_tables(
        [0, 1], [0], {("a", 0): [0], ("a", 1): [0]},
        {(0, 0, ("b", 0)): [1], (0, 0, ("b", 1)): [0]})
    for automaton, tree in ((on_leaf, Node("a")),
                            (inner, Node("b", Node("a"), Node("a")))):
        assert bool_provenance_circuit(automaton, tree).circuit.gates
        assert provcirc._KEPT[automaton][1]  # the plans kept
        with pytest.raises(NotMonotone):
            monotone_provenance_circuit(automaton, tree)
