"""Inputs far deeper than the default recursion limit of 1,000 frames,
checked against closed forms: R(x,y),R(y,z) on a directed path of n
edges holds with probability 1 - F(n+2)/2^n when each edge is kept with
probability 1/2, and has n - 1 answers for x.  The closed forms are the
benchmark's own (``bench/bench_oracles.py``)."""

import random
import sys
from fractions import Fraction
from pathlib import Path

from treeprov.circuits import eval_bool, expand_polynomial
from treeprov.prob import (BIDInstance, PCInstance, bid_to_pcc, count_matches,
                           pc_to_pcc, query_probability_bid,
                           query_probability_pcc)
from treeprov.provcirc import query_provenance_circuit
from treeprov.relational import make_instance, tree_decomposition
from treeprov.ucq import compile_bool, nx_provenance, parse_ucq

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import bench_oracles

QUERY = "R(x,y), R(y,z)"


def directed_path(n):
    return make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(n)])


def test_bid_and_count_on_a_3000_edge_path():
    inst = directed_path(3000)
    bid = BIDInstance(inst, {}, {f.id: Fraction(1, 2) for f in inst.facts})
    assert query_probability_bid(parse_ucq(QUERY), bid) == \
        bench_oracles.path_query_probability(3000)
    assert count_matches(parse_ucq(QUERY, ("x",)), inst) == \
        bench_oracles.path_query_count(3000)


def test_bid_to_pcc_on_a_3000_edge_path():
    inst = directed_path(3000)
    bid = BIDInstance(inst, {}, {f.id: Fraction(1, 2) for f in inst.facts})
    assert query_probability_pcc(parse_ucq(QUERY), bid_to_pcc(bid)) == \
        bench_oracles.path_query_probability(3000)


def test_bid_to_pcc_one_block_over_a_4000_edge_path():
    """One block holds every fact, so its mass climbs to the root; every
    fact is routed a gate and the block's root gate carries its total."""
    inst = directed_path(4000)
    bid = BIDInstance(inst, {"R": ()},
                      {f.id: Fraction(1, 4001) for f in inst.facts})
    pcc = bid_to_pcc(bid)
    assert set(pcc.phi) == {f.id for f in inst.facts}
    assert len(set(pcc.phi.values())) == 4000
    assert pcc.invariant_probs[("bid", 0, "root")] == Fraction(4000, 4001)


def test_provenance_on_a_3000_edge_path():
    """N[X]: one monomial F_i * F_(i+1) per pair of consecutive edges.
    Boolean: true iff two consecutive edges are kept, on sampled
    valuations."""
    inst = directed_path(3000)
    ids = [f.id for f in inst.facts]
    poly = expand_polynomial(nx_provenance(parse_ucq(QUERY), inst))
    assert poly.monomials == {
        tuple(sorted([(a, 1), (b, 1)])): 1 for a, b in zip(ids, ids[1:])}
    circuit = query_provenance_circuit(compile_bool(parse_ucq(QUERY)), inst,
                                       None)[0].circuit
    rng = random.Random(3)
    seen = set()
    for density in (0.005, 0.01, 0.02, 0.5):
        for _ in range(3):
            bits = [int(rng.random() < density) for _ in ids]
            expected = any(a and b for a, b in zip(bits, bits[1:]))
            assert eval_bool(circuit, dict(zip(ids, bits))) == expected
            seen.add(expected)
    assert seen == {False, True}


def test_pc_on_a_1000_edge_path():
    inst = directed_path(1000)
    pc = PCInstance(inst, {f.id: ("var", "e%d" % i)
                           for i, f in enumerate(inst.facts)},
                    {"e%d" % i: Fraction(1, 2) for i in range(1000)})
    assert query_probability_pcc(parse_ucq(QUERY), pc_to_pcc(pc)) == \
        bench_oracles.path_query_probability(1000)


def test_decomposition_of_a_16000_edge_path():
    """One bag per element, of width 1: the bag construction takes each
    vertex's later neighbours without copying the remaining vertices."""
    dec = tree_decomposition(directed_path(16000))
    assert dec.width == 1
    assert len(dec.bags()) == 16001
