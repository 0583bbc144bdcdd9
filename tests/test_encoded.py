"""An instance's tree encoding is built once per process per width bound
(`encoding._encoded`): a warm entry changes no output, an entry follows
``instance.facts`` and goes with its instance, and a refusal is raised
on every call."""

import gc
import json
import weakref
from fractions import Fraction

import pytest

from treeprov import encoding
from treeprov.circuits import circuit_to_json
from treeprov.encoding import _ENCODED, _encoded
from treeprov.errors import NoDecomposition
from treeprov.prob import (BIDInstance, bid_to_pcc, count_matches,
                           lineage_circuit, query_probability_bid)
from treeprov.provcirc import query_provenance_circuit
from treeprov.relational import Instance, make_instance
from treeprov.ucq import compile_bool, nx_provenance, parse_ucq

QUERIES = ("R(x,y),R(y,z)", "R(x,y),S(y);S(x),R(y,x)", "R(x,y),R(z,y)")


def _marked_cycle():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]
    return make_instance({"R": 2, "S": 1},
                         [("R", ("v%d" % a, "v%d" % b)) for a, b in edges]
                         + [("S", ("v%d" % a,)) for a in (1, 3, 5)])


def _outputs(inst, bid, pcc, clear):
    """Every output on the instance, as text; with clear, each call
    starts from an empty encoding cache."""
    out = []
    for text in QUERIES:
        q = parse_ucq(text)
        calls = [
            lambda: circuit_to_json(query_provenance_circuit(
                compile_bool(q), inst, 2)[0].circuit),
            lambda: circuit_to_json(lineage_circuit(compile_bool(q),
                                                    pcc)[0]),
            lambda: circuit_to_json(nx_provenance(q, inst, 2)),
            lambda: repr(query_probability_bid(q, bid)),
            lambda: repr(query_probability_bid(q, bid, 2)),
            lambda: count_matches(parse_ucq(text, free=("x",)), inst, 2),
        ]
        for call in calls:
            if clear:
                _ENCODED.clear()
            out.append(call())
    return json.dumps(out)


def test_warm_encodings_change_no_output():
    """Boolean, lineage and N[X] circuit JSON, BID probabilities and
    match counts come out byte for byte the same from a cold cache and
    from entries that earlier calls, with other queries, filled."""
    inst = _marked_cycle()
    bid = BIDInstance(inst, {"R": (0,), "S": (0,)},
                      {f.id: Fraction(1, 2 + i % 3)
                       for i, f in enumerate(inst.facts)})
    pcc = bid_to_pcc(bid)
    cold = _outputs(inst, bid, pcc, clear=True)
    _ENCODED.clear()
    assert _outputs(inst, bid, pcc, clear=False) == cold
    assert set(_ENCODED[inst]) == {2, None}
    assert _outputs(inst, bid, pcc, clear=False) == cold


def test_one_entry_per_instance_and_bound():
    """Calls share one encoding per instance object and k; an equal
    instance of its own gets its own."""
    inst = _marked_cycle()
    q = compile_bool(parse_ucq(QUERIES[0]))
    _res, enc = query_provenance_circuit(q, inst, 2)
    assert _encoded(inst, 2) is enc
    assert _encoded(inst, 3) is not enc
    assert _encoded(_marked_cycle(), 2) is not enc


def test_replacing_the_facts_rebuilds_the_entry():
    inst = _marked_cycle()
    q = compile_bool(parse_ucq(QUERIES[0]))
    before = _encoded(inst, 2)
    inst.facts = inst.facts[:3]
    after = _encoded(inst, 2)
    assert after is not before
    assert set(after.fact_nodes) == {"F1", "F2", "F3"}
    alone = Instance(inst.signature, inst.facts)
    assert circuit_to_json(query_provenance_circuit(q, inst, 2)[0].circuit) \
        == circuit_to_json(query_provenance_circuit(q, alone, 2)[0].circuit)


def test_an_entry_goes_with_its_instance():
    inst = _marked_cycle()
    gc.collect()  # entries of instances that earlier tests left behind
    held = len(_ENCODED)
    instance_ref = weakref.ref(inst)
    encoding_ref = weakref.ref(_encoded(inst, 2))
    assert len(_ENCODED) == held + 1
    del inst
    gc.collect()
    assert instance_ref() is None
    assert encoding_ref() is None
    assert len(_ENCODED) == held


def test_a_refusal_is_raised_on_every_call():
    """A cycle has width 2: k = 1 is refused each time, before and after
    a call at k = 2 fills the instance's entry, and is never stored."""
    inst = _marked_cycle()
    q = compile_bool(parse_ucq(QUERIES[0]))
    for _ in range(2):
        with pytest.raises(NoDecomposition):
            query_provenance_circuit(q, inst, 1)
    query_provenance_circuit(q, inst, 2)
    for call in (lambda: query_provenance_circuit(q, inst, 1),
                 lambda: nx_provenance(parse_ucq(QUERIES[0]), inst, 1)):
        with pytest.raises(NoDecomposition):
            call()
    assert set(_ENCODED[inst]) == {2}


def test_repeated_counts_build_one_encoding(monkeypatch):
    """count_matches keeps its counting instance per instance and free
    variables, so counting twice builds one encoding, and other free
    variables get their own; warm counts equal cold ones."""
    builds = []
    real = encoding.encode

    def counted(instance, decomposition):
        builds.append(instance)
        return real(instance, decomposition)

    monkeypatch.setattr(encoding, "encode", counted)
    inst = _marked_cycle()
    by_x = parse_ucq(QUERIES[1], free=("x",))
    by_xy = parse_ucq(QUERIES[0], free=("x", "y"))
    cold = [count_matches(by_x, inst, 2), count_matches(by_xy, inst, 2)]
    assert len(builds) == 2
    assert [count_matches(by_x, inst, 2), count_matches(by_xy, inst, 2)] \
        == cold
    assert len(builds) == 2
    # another query with the same free variables shares the entry
    assert count_matches(parse_ucq(QUERIES[2], free=("x",)), inst, 2) == \
        count_matches(parse_ucq(QUERIES[2], free=("x",)), _marked_cycle(), 2)
    assert len(builds) == 3
    assert cold == [count_matches(by_x, _marked_cycle(), 2),
                    count_matches(by_xy, _marked_cycle(), 2)]
