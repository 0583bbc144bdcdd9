"""`compile_bool`'s automaton keeps each step under the projected states
and the label's fact: a circuit does not depend on the builds before it,
agrees with the possible worlds, and a cold build takes few placement
steps."""

import json
import random
from fractions import Fraction

from treeprov import ucq
from treeprov.circuits import circuit_to_json
from treeprov.prob import BIDInstance
from treeprov.provcirc import query_provenance_circuit
from treeprov.relational import make_instance
from treeprov.ucq import CQ, UCQ, Atom, compile_bool, parse_ucq, satisfies

from genutil import rand_fraction, rand_instance, rand_ucq
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
    """The list every placement step (delta on projected descriptors) of
    an automaton compiled from now on is appended to; compiled automata
    are dropped, so the next call compiles."""
    steps = []
    placement = ucq._placement

    def counted(cq, any_count):
        automaton, merge = placement(cq, any_count)

        def counted_merge(d1, d2, label):
            steps.append((d1, d2, label))
            return merge(d1, d2, label)

        return automaton, counted_merge

    monkeypatch.setattr(ucq, "_placement", counted)
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
