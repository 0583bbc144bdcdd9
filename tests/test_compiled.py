"""A query's automata are compiled once per process (`ucq._compiled`):
a warm cache changes no output, its entries are keyed by the query and
the state cap, and no refusal depends on the calls made before."""

import json
import random
from fractions import Fraction

import pytest

from treeprov import ucq
from treeprov.circuits import circuit_to_json
from treeprov.errors import StateBlowup
from treeprov.prob import (BIDInstance, count_matches, lineage_circuit,
                           query_probability_bid, query_probability_pcc)
from treeprov.provcirc import query_provenance_circuit
from treeprov.prxml import prxml_query_probability
from treeprov.relational import make_instance
from treeprov.ucq import (CQ, UCQ, Atom, compile_bag, compile_bool,
                          nx_provenance, parse_ucq)

from genutil import rand_bid, rand_doc, rand_pcc

QUERIES = ("R(x,y),R(y,z)", "R(x,y),S(y);S(x),R(y,x)")
LABEL_QUERIES = ("P_a(x),P_b(y)", "P_a(x);P_c(y)")


def _marked(edges, marks):
    return make_instance({"R": 2, "S": 1},
                         [("R", ("v%d" % a, "v%d" % b)) for a, b in edges]
                         + [("S", ("v%d" % a,)) for a in marks])


def _inputs(seed, edges, marks):
    rng = random.Random(seed)
    return {"instance": _marked(edges, marks), "bid": rand_bid(rng, 6),
            "pcc": rand_pcc(rng), "doc": rand_doc(rng)}


def _outputs(inputs):
    """Every output of every entry point on one set of inputs, as text."""
    out = []
    for text in QUERIES:
        q = parse_ucq(text)
        res, _ = query_provenance_circuit(compile_bool(q),
                                          inputs["instance"], 2)
        lineage, _ = lineage_circuit(compile_bool(q), inputs["pcc"])
        out += [circuit_to_json(res.circuit), circuit_to_json(lineage),
                circuit_to_json(nx_provenance(q, inputs["instance"], 2)),
                repr(query_probability_bid(q, inputs["bid"])),
                repr(query_probability_pcc(q, inputs["pcc"])),
                count_matches(parse_ucq(text, free=("x",)),
                              inputs["instance"], 2)]
    for text in LABEL_QUERIES:
        out.append(repr(prxml_query_probability(parse_ucq(text),
                                                inputs["doc"])))
    return json.dumps(out)


def test_warm_cache_changes_no_output():
    """Boolean, lineage and N[X] circuit JSON, BID, pcc and PrXML
    probabilities and match counts come out byte for byte the same on a
    cold cache and after the same queries ran on other inputs."""
    a = _inputs(1, [(0, 1), (2, 1), (2, 3), (3, 4), (4, 0)], (1, 3))
    b = _inputs(2, [(0, 1), (1, 2), (2, 3), (3, 1)], (0, 2, 3))
    ucq._COMPILED.clear()
    cold = _outputs(a)
    ucq._COMPILED.clear()
    _outputs(b)
    assert _outputs(a) == cold


def test_cache_entries():
    """A CQ and its one-disjunct UCQ share an entry, a UCQ built from
    lists has one, and the entry used least recently goes first once
    the cache is over its bound."""
    ucq._COMPILED.clear()
    q = parse_ucq("R(x,y),R(y,z)")
    automaton = compile_bool(q)
    assert compile_bool(q.disjuncts[0]) is automaton
    listed = UCQ([CQ([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])], [])])
    assert compile_bool(listed) is automaton
    bid = rand_bid(random.Random(3), 6)
    assert query_probability_bid(listed, bid) == \
        query_probability_bid(q, bid)

    ucq._COMPILED.clear()
    others = [parse_ucq("R(x,y%d)" % i) for i in range(ucq._COMPILED_MAX)]
    first = [compile_bool(o) for o in others]
    assert compile_bool(others[0]) is first[0]  # now the latest used
    compile_bool(q)
    assert len(ucq._COMPILED) == ucq._COMPILED_MAX
    assert compile_bool(others[0]) is first[0]
    assert compile_bool(others[1]) is not first[1]


def test_compile_bag_shares_the_nx_entry():
    """`compile_bag` compiles its annotated view into `_compiled`, and
    `nx_provenance` of the same query then reads that one entry."""
    ucq._COMPILED.clear()
    q = parse_ucq("R(x,y),R(y,z)")
    compile_bag(q.disjuncts[0])
    assert list(ucq._COMPILED) == [ucq._key(ucq._nx_automaton, q)]
    entry = list(ucq._COMPILED.values())
    nx_provenance(q, _marked([(0, 1), (1, 2)], ()))
    assert list(ucq._COMPILED.values()) == entry


def _path_bid(edges):
    inst = make_instance({"R": 2}, [("R", ("v%d" % a, "v%d" % b))
                                    for a, b in edges])
    return BIDInstance(inst, {"R": (0, 1)},
                       {f.id: Fraction(1, 2) for f in inst.facts})


# Each needs 6 subsets under R(x,y),R(y,z), but not the same 6.
_FORWARD = _path_bid([(0, 1), (1, 2)])
_INWARD = _path_bid([(0, 1), (2, 1)])


def test_the_state_cap_in_force_is_honoured(monkeypatch):
    """A low cap refuses the call though the default cap's entry is
    warm, and the default cap accepts it again after the refusal."""
    q = parse_ucq("R(x,y),R(y,z)")
    ucq._COMPILED.clear()
    want = query_probability_bid(q, _FORWARD)
    for _ in range(2):
        monkeypatch.setenv("TREEPROV_STATE_CAP", "5")
        with pytest.raises(StateBlowup):
            query_probability_bid(q, _FORWARD)
        monkeypatch.delenv("TREEPROV_STATE_CAP")
        assert query_probability_bid(q, _FORWARD) == want


def test_refusals_do_not_depend_on_earlier_calls(monkeypatch):
    """Two instances that each fit the cap but whose subsets together
    exceed it: neither is refused, in either order, and their answers
    are the ones an automaton of their own gives."""
    q = parse_ucq("R(x,y),R(y,z)")
    want = [query_probability_bid(q, bid) for bid in (_FORWARD, _INWARD)]
    monkeypatch.setenv("TREEPROV_STATE_CAP", "6")
    for order in ((0, 1), (1, 0)):
        ucq._COMPILED.clear()
        for i in order:
            assert query_probability_bid(q, (_FORWARD, _INWARD)[i]) == \
                want[i]
