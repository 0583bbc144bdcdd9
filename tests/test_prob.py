import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treeprov.circuits import Circuit, arity_two, eval_bool
from treeprov.prob import (BIDInstance, PCCInstance, PCInstance,
                           bid_from_json, bid_to_json, bid_to_pcc,
                           cc_encode, count_matches, eval_formula,
                           format_formula, format_fraction,
                           joint_decomposition, lineage_circuit,
                           message_passing_prob, parse_formula,
                           pc_from_json, pc_to_json, pc_to_pcc, pc_width,
                           pcc_from_json, pcc_to_json,
                           query_probability_bid, query_probability_pcc)
from treeprov.relational import (make_instance, normalize_decomposition,
                                 tree_decomposition)
from treeprov.trees import parents
from treeprov.ucq import (compile_bool, enumerate_matches, parse_ucq,
                          satisfies)

from genutil import (rand_bid, rand_decomposed_circuit, rand_instance,
                     rand_pc, rand_pcc, rand_ucq)
from oracles import (bid_worlds, brute_force_prob, instances_isomorphic,
                     pc_worlds, pcc_worlds)
from oracles import parse_formula as reference_parse_formula


# ---------------------------------------------------------------------------
# Formulas


def test_parse_and_eval_formula():
    f = parse_formula("x & !y | (z & 1)")
    assert eval_formula(f, {"x": 1, "y": 0, "z": 0})
    assert not eval_formula(f, {"x": 1, "y": 1, "z": 0})
    assert eval_formula(f, {"x": 0, "y": 1, "z": 1})
    with pytest.raises(SyntaxError):
        parse_formula("x &")
    with pytest.raises(SyntaxError):
        parse_formula("x y")


def test_format_formula_roundtrip():
    rng = random.Random(71)

    def rand_formula(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return ("var", rng.choice("abc"))
        if r < 0.4:
            return ("const", rng.random() < 0.5)
        if r < 0.6:
            return ("not", rand_formula(depth - 1))
        op = "and" if r < 0.8 else "or"
        return (op, rand_formula(depth - 1), rand_formula(depth - 1))

    for _ in range(60):
        f = rand_formula(4)
        g = parse_formula(format_formula(f))
        for bits in itertools.product((0, 1), repeat=3):
            nu = dict(zip("abc", bits))
            assert eval_formula(f, nu) == eval_formula(g, nu)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except SyntaxError as exc:
        return str(exc)


def test_parse_formula_matches_recursive_descent():
    """Same AST or same SyntaxError message as the recursive-descent
    reference, on random strings of up to 12 tokens."""
    rng = random.Random(12)
    pieces = ["a", "b", "0", "1", "!", "(", ")", "&", "|", " "]
    outcomes = set()
    for _ in range(30000):
        text = "".join(rng.choice(pieces)
                       for _ in range(rng.randint(0, 12)))
        expected = parse_outcome(reference_parse_formula, text)
        assert parse_outcome(parse_formula, text) == expected, text
        outcomes.add(expected if isinstance(expected, str) else "ok")
    assert outcomes == {"ok", "missing )", "trailing input in formula",
                        "unexpected token None", "unexpected token ')'",
                        "unexpected token '&'", "unexpected token '|'"}


def test_deep_formulas():
    """3,000 conjuncts, 3,000 negations and 3,000 open parentheses."""
    names = ["a%d" % i for i in range(3000)]
    conj = " & ".join(names)
    f = parse_formula(conj)
    assert format_formula(f) == conj
    assert eval_formula(f, dict.fromkeys(names, 1))
    assert not eval_formula(f, {**dict.fromkeys(names, 1), "a1500": 0})
    for n in (2999, 3000):
        f = parse_formula("!" * n + "a")
        assert format_formula(f) == "!" * n + "a"
        assert eval_formula(f, {"a": 1}) == (n % 2 == 0)
    nested = "!(a & " * 3000 + "a" + ")" * 3000
    f = parse_formula(nested)
    assert format_formula(f) == nested
    for a in (0, 1):
        value = a
        for _ in range(3000):
            value = not (a and value)
        assert eval_formula(f, {"a": a}) == value
    assert parse_formula("(" * 3000 + "a" + ")" * 3000) == ("var", "a")
    with pytest.raises(SyntaxError, match="missing"):
        parse_formula("(" * 3000 + "a" + ")" * 2999)


# ---------------------------------------------------------------------------
# Message passing


def hand_decomposed_circuits():
    """Shapes rand_decomposed_circuit never builds: frozenset gate ids,
    inputs at p = 0 and p = 1, a root bag with three children, bags with
    one child or an empty domain (not normalised), and the output gate
    only in a leaf below the root."""
    from treeprov.relational import Bag, TreeDecomposition

    g = {n: frozenset({n, len(n)}) for n in
         ("a", "b", "c", "d", "e", "ab", "nc", "z", "u", "w", "out")}
    gates = {g[n]: ("inp", ()) for n in "abcde"}
    gates[g["ab"]] = ("or", (g["a"], g["b"]))
    gates[g["nc"]] = ("not", (g["c"],))
    gates[g["z"]] = ("or", (g["nc"], g["d"]))
    gates[g["u"]] = ("and", (g["ab"], g["z"]))
    gates[g["w"]] = ("and", (g["e"], g["u"]))
    gates[g["out"]] = ("or", (g["w"], g["nc"]))
    circuit = Circuit("bool", gates, g["out"])

    def bag(names, *children):
        return Bag({g[n] for n in names}, children)

    star = bag(("ab", "nc", "d", "z"),
               bag(("a", "b", "ab")),
               bag(("c", "nc"), bag(("c",), bag(()))),
               bag(("ab", "z", "nc", "u"),
                   bag(("u", "nc", "e", "w", "out"))))
    chain = bag(("a", "b"), bag(("a", "b", "ab"), bag(("ab", "c", "nc"), bag(
        ("ab", "nc", "d", "z", "u"), bag(("u", "nc", "e", "w", "out"))))))
    for p in ((Fraction(1, 3), Fraction(0), Fraction(1), Fraction(3, 4),
               Fraction(1, 2)),
              (Fraction(0), Fraction(2, 5), Fraction(1), Fraction(1),
               Fraction(1)),
              (Fraction(1), Fraction(1), Fraction(1, 7), Fraction(0),
               Fraction(5, 6))):
        probs = {g[n]: x for n, x in zip("abcde", p)}
        for root in (star, chain):
            yield circuit, TreeDecomposition(root), probs


def test_message_passing_matches_brute_force():
    rng = random.Random(72)
    cases = [rand_decomposed_circuit(rng) for _ in range(80)]
    for circuit, decomp, probs in cases + list(hand_decomposed_circuits()):
        got = message_passing_prob(circuit, decomp, probs)
        assert got == brute_force_prob(circuit, probs)


def test_message_passing_rejects_wide_gates():
    c = Circuit("bool", {0: ("inp", ()), 1: ("inp", ()), 2: ("inp", ()),
                         3: ("or", (0, 1, 2))}, 3)
    from treeprov.relational import Bag, TreeDecomposition
    d = TreeDecomposition(Bag({0, 1, 2, 3}), normalized=True)
    with pytest.raises(ValueError):
        message_passing_prob(c, d, {g: Fraction(1, 2) for g in (0, 1, 2)})


def test_message_passing_rejects_uncovered_gate():
    c = Circuit("bool", {0: ("inp", ()), 1: ("inp", ()),
                         2: ("and", (0, 1))}, 2)
    from treeprov.relational import Bag, TreeDecomposition
    d = TreeDecomposition(Bag({0, 2}, [Bag({1})]), normalized=True)
    with pytest.raises(ValueError):
        message_passing_prob(c, d, {0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_message_passing_rejects_disconnected_gate():
    """The bags holding d are not connected, so the decomposition is
    refused; the circuit is true on every world, since d is certain."""
    from treeprov.relational import Bag, TreeDecomposition

    c = Circuit("bool", {"a": ("inp", ()), "b": ("inp", ()),
                         "c": ("inp", ()), "d": ("inp", ()),
                         "x": ("and", ("a", "b")), "y": ("not", ("c",)),
                         "o": ("or", ("x", "d"))}, "o")
    d = TreeDecomposition(Bag({"a", "b"}, [
        Bag({"a", "b", "x"}, [Bag({"x", "d", "o"})]), Bag({"c", "y"}),
        Bag({"d"})]))
    probs = {"a": Fraction(0), "b": Fraction(2, 3), "c": Fraction(1, 4),
             "d": Fraction(1)}
    assert brute_force_prob(c, probs) == 1
    with pytest.raises(ValueError, match="not connected"):
        message_passing_prob(c, d, probs)


# ---------------------------------------------------------------------------
# pcc instances


def pr_oracle(worlds, q):
    total = Fraction(0)
    for inst, w in worlds:
        if satisfies(q, inst):
            total += w
    return total


def test_pcc_validation():
    inst = make_instance({"R": 1}, [("R", ("a",))])
    c = Circuit("bool", {"x": ("inp", ())}, "x")
    with pytest.raises(ValueError):
        PCCInstance(inst, c, {}, {"x": Fraction(1, 2)})
    with pytest.raises(ValueError):
        PCCInstance(inst, c, {"F1": "x"}, {})
    with pytest.raises(ValueError):
        PCCInstance(inst, c, {"F1": "x"}, {"x": Fraction(3, 2)})


def test_query_probability_pcc_oracle():
    rng = random.Random(73)
    for _ in range(25):
        pcc = rand_pcc(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        got = query_probability_pcc(q, pcc)
        assert got == pr_oracle(pcc_worlds(pcc), q)


def test_lineage_circuit_evaluates_query_truth():
    rng = random.Random(74)
    from treeprov.ucq import compile_bool
    for _ in range(10):
        pcc = rand_pcc(rng)
        q = rand_ucq(rng, max_disjuncts=1, max_atoms=2)
        lineage, decomp = lineage_circuit(compile_bool(q), pcc)
        inputs = sorted(lineage.inputs(), key=repr)
        assert set(inputs) <= set(pcc.circuit.inputs())
        c2, rep, _ = arity_two(pcc.circuit)
        from treeprov.relational import subinstance
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            nu = dict(zip(inputs, bits))
            full = {g: nu.get(g, 0) for g in pcc.circuit.inputs()}
            val = {}
            for f in pcc.instance.facts:
                sub = Circuit("bool", pcc.circuit.gates, pcc.phi[f.id])
                val[f.id] = eval_bool(sub, full)
            world = subinstance(pcc.instance, val)
            assert eval_bool(lineage, full) == satisfies(q, world)


def test_cc_encode_decodes_to_data_instance():
    rng = random.Random(75)
    from treeprov.encoding import decode
    for _ in range(10):
        pcc = rand_pcc(rng)
        c2, rep, _ = arity_two(pcc.circuit)
        pcc2 = PCCInstance(pcc.instance, c2,
                           {fid: rep[g] for fid, g in pcc.phi.items()},
                           pcc.probs)
        joint, decomp = joint_decomposition(pcc2)
        cc = cc_encode(pcc2, decomp)
        dec = decode(cc.encoding.root)
        assert dec is not None
        assert instances_isomorphic(dec, pcc.instance)
        # chi maps every fact node to its gate
        assert sorted(cc.encoding.fact_nodes) == \
            sorted(f.id for f in pcc.instance.facts)
        for fid, node in cc.encoding.fact_nodes.items():
            assert cc.chi[id(node)] == pcc2.phi[fid]
            assert cc.chi[id(node)] in cc.gates[id(node)]
        # every gate has a node holding it and its inputs, and the nodes
        # holding a gate are connected: one of them has a parent that
        # does not hold it (or is the root)
        nodes = cc.encoding.nodes()
        parent = parents(cc.encoding.root)
        assert set(cc.gates) == {id(n) for n in nodes}
        for g, (_t, ins) in c2.gates.items():
            assert any({g, *ins} <= cc.gates[id(n)] for n in nodes)
            tops = [n for n in nodes if g in cc.gates[id(n)] and (
                n not in parent or g not in cc.gates[id(parent[n])])]
            assert len(tops) == 1


# ---------------------------------------------------------------------------
# pc instances


def test_pc_to_pcc_preserves_worlds():
    rng = random.Random(76)
    for _ in range(20):
        pc = rand_pc(rng)
        pcc = pc_to_pcc(pc)
        d1 = world_dist(pc_worlds(pc))
        d2 = world_dist(pcc_worlds(pcc))
        assert d1 == d2


def world_dist(worlds):
    out = {}
    for inst, w in worlds:
        key = frozenset(inst.fact_keys())
        out[key] = out.get(key, Fraction(0)) + w
    return out


def test_pc_to_pcc_event_cap():
    inst = make_instance({"R": 1}, [("R", ("a",))])
    f = parse_formula("a & b")
    pc = PCInstance(inst, {"F1": f},
                    {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    with pytest.raises(ValueError):
        pc_to_pcc(pc, k=1)
    pc_to_pcc(pc, k=2)  # fine


def formula_size(f):
    return 1 + sum(formula_size(s) for s in f[1:]) \
        if f[0] in ("not", "and", "or") else 1


def test_pc_to_pcc_is_linear_and_shares_gates():
    """Formulas become one gate per distinct subformula, with no DNF over
    the valuations of their events: a 12-event formula stays small, two
    equal formulas share their gate, and each certain fact has a
    constant gate of its own."""
    text = "(e0 | !e1) & (e2 | e3) & !(e4 & e5) & (e6 | e7 & e8) " \
           "| e9 & !e10 & e11 | !(e0 | e11)"
    consts = "e3 & (1 | 0) | !(e5 & 0)"
    inst = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(5)])
    ids = [f.id for f in inst.facts]
    events = {"e%d" % i: Fraction(1, 2 + i % 3) for i in range(12)}
    pc = PCInstance(inst, {ids[0]: parse_formula(text),
                           ids[1]: parse_formula(text),
                           ids[4]: parse_formula(consts)}, events)
    pcc = pc_to_pcc(pc)
    nodes = formula_size(pc.conds[ids[0]]) + \
        formula_size(pc.conds[ids[4]]) + 2
    assert len(pcc.circuit) <= 2 * nodes
    assert pcc.phi[ids[0]] == pcc.phi[ids[1]]
    assert pcc.phi[ids[2]] != pcc.phi[ids[3]]
    q = parse_ucq("R(x,y),R(y,z)")
    assert query_probability_pcc(q, pcc) == pr_oracle(pc_worlds(pc), q)


def test_cc_encoding_has_one_node_per_data_fact():
    """The cc-encoding normalizes the joint decomposition over the data
    facts only: one chain node per data fact and none per gate, so it is
    smaller than the normalized joint decomposition, and the pcc DP
    still gives the possible-world probability."""
    from treeprov.prxml import (PrXMLDoc, PrXMLNode, fie_to_pc,
                                muxind_to_binary, muxind_to_fie)
    from treeprov.relational import normalize_decomposition

    path = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(6)])
    conds = {f.id: parse_formula(t.replace("a", "e%d" % i).replace(
        "b", "e%d" % (i + 1))) for i, (f, t) in enumerate(zip(
            path.facts, ("a & b", "a | !b", "!a & b", "a | b", "a", "b")))}
    path_pc = PCInstance(path, conds, {"e%d" % i: Fraction(1, 3)
                                       for i in range(7)})
    doc = PrXMLDoc(PrXMLNode("r", children=[
        (None, PrXMLNode("m", "mux", [(Fraction(1, 3), PrXMLNode("a")),
                                      (Fraction(1, 2), PrXMLNode("b"))])),
        (None, PrXMLNode("t")),
        (None, PrXMLNode("i", "ind", [(Fraction(1, 4), PrXMLNode("a")),
                                      (Fraction(2, 3), PrXMLNode("c"))]))]))
    doc_pc = fie_to_pc(muxind_to_fie(muxind_to_binary(doc)))
    for pc, q in ((path_pc, parse_ucq("R(x,y),R(y,z)")),
                  (doc_pc, parse_ucq("P_a(x),P_b(y)"))):
        pcc = pc_to_pcc(pc)
        c2, rep, _ = arity_two(pcc.circuit)
        pcc2 = PCCInstance(pcc.instance, c2,
                           {fid: rep[g] for fid, g in pcc.phi.items()},
                           pcc.probs)
        decomp = joint_decomposition(pcc2)[1]
        enc = cc_encode(pcc2, decomp).encoding
        facts = [n for n in enc.nodes() if n.label.rel is not None]
        assert len(facts) == len(enc.fact_nodes) == len(pc.instance.facts)
        assert len(enc.nodes()) < \
            len(normalize_decomposition(decomp).bags())
        assert query_probability_pcc(q, pcc) == pr_oracle(pc_worlds(pc), q)


def test_query_probability_pc_oracle():
    rng = random.Random(77)
    for _ in range(15):
        pc = rand_pc(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        got = query_probability_pcc(q, pc_to_pcc(pc))
        assert got == pr_oracle(pc_worlds(pc), q)


def test_pc_width_small_for_local_events():
    inst = make_instance({"R": 2}, [("R", ("a", "b")), ("R", ("b", "c"))])
    pc = PCInstance(inst, {"F1": parse_formula("x"),
                           "F2": parse_formula("y")},
                    {"x": Fraction(1, 2), "y": Fraction(1, 2)})
    assert pc_width(pc) <= 2


# ---------------------------------------------------------------------------
# BID instances


def test_bid_validation():
    inst = make_instance({"R": 2}, [("R", ("a", "b")), ("R", ("a", "c"))])
    with pytest.raises(ValueError):
        BIDInstance(inst, {"R": (0,)},
                    {"F1": Fraction(3, 4), "F2": Fraction(1, 2)})
    with pytest.raises(ValueError):
        BIDInstance(inst, {"R": (0,)}, {"F1": Fraction(1, 2)})
    with pytest.raises(ValueError):
        BIDInstance(inst, {"R": (0,)},
                    {"F1": Fraction(0), "F2": Fraction(1, 2)})


def test_bid_worlds_total_probability():
    rng = random.Random(78)
    for _ in range(10):
        bid = rand_bid(rng)
        total = sum((w for _, w in bid_worlds(bid)), Fraction(0))
        assert total == 1


def test_bid_to_pcc_preserves_worlds():
    rng = random.Random(79)
    for _ in range(15):
        bid = rand_bid(rng)
        pcc = bid_to_pcc(bid)
        assert world_dist(bid_worlds(bid)) == world_dist(pcc_worlds(pcc))


def test_bid_to_pcc_gate_marginals():
    """Pr[g_in(b)] must equal the cumulative fact mass below b."""
    rng = random.Random(80)
    for _ in range(8):
        bid = rand_bid(rng)
        pcc = bid_to_pcc(bid)
        inputs = sorted(pcc.circuit.inputs(), key=repr)
        marginals = {g: Fraction(0) for g in pcc.invariant_probs}
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            nu = dict(zip(inputs, bits))
            w = Fraction(1)
            for g, b in nu.items():
                w *= pcc.probs[g] if b else 1 - pcc.probs[g]
            if not w:
                continue
            for g in marginals:
                sub = Circuit("bool", pcc.circuit.gates, g)
                if eval_bool(sub, nu):
                    marginals[g] += w
        assert marginals == pcc.invariant_probs


def test_bid_to_pcc_gates_sit_at_key_bags():
    """Each gate ("bid", bi, nb, ...) sits at bag nb of the normalized
    decomposition, and that bag holds block bi's key elements: the
    routing stays in the block's key subtree, which bounds the joint
    width.  Blocks are numbered in the repr order of their keys."""
    rng = random.Random(82)
    bids = [rand_bid(rng, max_facts=rng.choice((5, 9))) for _ in range(60)]
    # a path of 30 edges whose edges 2j and 2j + 1 both end at v(2j + 1)
    path = make_instance({"R": 2}, [
        ("R", ("v%d" % (i + 1), "v%d" % i) if i % 2 else
         ("v%d" % i, "v%d" % (i + 1))) for i in range(30)])
    bids.append(BIDInstance(path, {"R": (1,)},
                            {f.id: Fraction(1, 3) for f in path.facts}))
    routed = 0
    for bid in bids:
        bags = normalize_decomposition(
            tree_decomposition(bid.instance)).bags()
        keys = sorted(bid.blocks(), key=repr)
        for g in bid_to_pcc(bid).circuit.gates:
            if g[0] == "bid" and g[2] != "root":
                assert set(keys[g[1]][1]) <= bags[g[2]].dom
                routed += 1
    assert routed > 100


def test_pc_instance_refuses_event_probability_out_of_range():
    inst = make_instance({"R": 1}, [("R", ("a",))])
    for p in (Fraction(2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="event e has probability"):
            PCInstance(inst, {"F1": ("var", "e")}, {"e": p})


_BID_JSON = """
import json
from fractions import Fraction
from treeprov.prob import BIDInstance, bid_to_pcc, pcc_to_json
from treeprov.relational import make_instance

facts = [("R", ("v%d" % i, "v%d" % (i + 1))) for i in range(5)]
facts += [("R", ("v%d" % i, "w%d" % i)) for i in range(5)]
inst = make_instance({"R": 2}, facts)
bid = BIDInstance(inst, {"R": (0,)},
                  {f.id: Fraction(1, 3) for f in inst.facts})
print(json.dumps(pcc_to_json(bid_to_pcc(bid))))
"""


def test_bid_to_pcc_json_does_not_depend_on_the_run():
    """pcc_to_json(bid_to_pcc(.)) comes out byte for byte the same in two
    runs under one hash seed and in a run under another: gate ids
    number bags by their place in the decomposition.  The blocks of two
    facts spread over several bags, so the input names carry bag
    numbers."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        outs.append(subprocess.run([sys.executable, "-c", _BID_JSON],
                                   env=env, capture_output=True, check=True,
                                   text=True).stdout)
    names = [g["name"] for g in json.loads(outs[0])["circuit"]["gates"]
             if g["type"] == "inp"]
    assert any(name.endswith(("'h')", "'sw')")) for name in names)
    assert outs[0] == outs[1] == outs[2]


def test_query_probability_bid_oracle():
    rng = random.Random(81)
    for _ in range(10):
        bid = rand_bid(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2,
                     signature={"R": 2})
        got = query_probability_bid(q, bid)
        assert got == pr_oracle(bid_worlds(bid), q)


def random_directions(rng, edges):
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def cycle_edges(n):
    return [("c%d" % i, "c%d" % ((i + 1) % n)) for i in range(n)]


def grid_edges(m):
    edges = [(("g", r, i), ("g", r, i + 1)) for r in (0, 1)
             for i in range(m - 1)]
    return edges + [(("g", 0, i), ("g", 1, i)) for i in range(m)]


def random_bid(rng, edges, key):
    """R facts on the edges keyed by R[key]; some blocks sum to 1, and
    some one-fact blocks are certain."""
    inst = make_instance({"R": 2}, [("R", e) for e in edges])
    blocks = {}
    for f in inst.facts:
        blocks.setdefault(tuple(f.args[i] for i in key), []).append(f)
    probs = {}
    for facts in blocks.values():
        weights = [rng.randint(1, 4) for _ in facts]
        den = sum(weights) + rng.choice((0, 0, 1, 3))
        for f, w in zip(facts, weights):
            probs[f.id] = Fraction(w, den)
    return BIDInstance(inst, {"R": key}, probs)


def loop_guesser():
    """Nondeterministic automaton over KFact labels that guesses one
    present loop R(a,a): it has one accepting run per loop."""
    from treeprov.automata import BNTA

    def is_loop(label):
        return label.rel == "R" and label.args[0] == label.args[1]

    def iota(label):
        return frozenset({0, 1}) if is_loop(label) else frozenset({0})

    def delta(q1, q2, label):
        out = {q1 + q2} if q1 + q2 <= 1 else set()
        if q1 + q2 == 0 and is_loop(label):
            out.add(1)
        return frozenset(out)

    return BNTA(iota, delta, lambda q: q == 1)


def test_query_probability_bid_width_two_oracle():
    """The automaton DP on the instance's encoding against possible
    worlds: cycles and 2 x m grids of width 2, keys (), R[0], R[1] and
    full, blocks summing to 1 and certain facts."""
    from treeprov.ucq import UCQ

    rng = random.Random(86)
    queries = [parse_ucq(t) for t in (
        "R(x,y),R(y,z)", "R(x,y),R(y,x)", "R(x,y),R(y,z),R(z,w)",
        "R(x,y),R(z,y)", "R(x,x)")]
    overlapping = parse_ucq("R(x,y) ; R(x,y),R(y,z)")
    guesser = loop_guesser()
    both = full = certain = 0
    shapes = [cycle_edges(n) for n in (4, 5, 6)] + \
        [grid_edges(m) for m in (2, 3)]
    for edges in shapes:
        for key in ((), (0,), (1,), (0, 1)):
            edges2 = random_directions(rng, edges)
            if rng.random() < 0.5:
                edges2 += [(u, u) for u in sorted({edges2[0][0],
                                                   edges2[1][0]})]
            bid = random_bid(rng, edges2, key)
            worlds = bid_worlds(bid)
            for q in queries + [overlapping]:
                assert query_probability_bid(q, bid) == pr_oracle(worlds, q)
            assert query_probability_bid(guesser, bid) == \
                pr_oracle(worlds, parse_ucq("R(x,x)"))
            both += any(all(satisfies(UCQ((d,)), w)
                            for d in overlapping.disjuncts)
                        for w, _ in worlds)
            for facts in bid.blocks().values():
                mass = sum(bid.probs[f.id] for f in facts)
                full += len(facts) > 1 and mass == 1
                certain += len(facts) == 1 and mass == 1
    # some world satisfies both disjuncts of the union, and the
    # instances hold full blocks and certain facts
    assert both and full and certain
    empty = BIDInstance(make_instance({"R": 2}, []), {}, {})
    assert query_probability_bid(queries[0], empty) == 0
    assert query_probability_bid(guesser, empty) == 0


def test_bid_two_fact_blocks_under_renaming():
    """Two-fact blocks on a 5-edge path: each edge shares its key R[0]
    with a pendant edge.  The cost once depended on element names."""
    q = parse_ucq("R(x,y),R(y,z)")
    rng = random.Random(87)
    for _ in range(6):
        names = ["n%d" % i for i in range(11)]
        rng.shuffle(names)
        facts, probs = [], []
        for i in range(5):
            a = rng.randint(1, 6)
            b = rng.randint(1, 7 - a)
            facts += [("R", (names[i], names[i + 1])),
                      ("R", (names[i], names[6 + i]))]
            probs += [Fraction(a, 8), Fraction(b, 8)]
        inst = make_instance({"R": 2}, facts)
        bid = BIDInstance(inst, {"R": (0,)},
                          {f.id: p for f, p in zip(inst.facts, probs)})
        assert query_probability_bid(q, bid) == pr_oracle(bid_worlds(bid), q)


def test_bid_long_path_closed_form():
    """20-edge path at p = 1/2: 1 - F(22)/2^20, two consecutive edges."""
    inst = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(20)])
    bid = BIDInstance(inst, {"R": (0,)}, {f.id: Fraction(1, 2)
                                          for f in inst.facts})
    assert query_probability_bid(parse_ucq("R(x,y),R(y,z)"), bid) == \
        Fraction(1030865, 1048576)


def test_bid_tuple_independent_grid():
    rng = random.Random(88)
    inst = make_instance({"R": 2}, [("R", e) for e in grid_edges(4)])
    bid = BIDInstance(inst, {}, {f.id: rng.choice(
        (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)))
        for f in inst.facts})
    q = parse_ucq("R(x,y),R(y,z)")
    assert query_probability_bid(q, bid) == pr_oracle(bid_worlds(bid), q)


def test_bid_and_count_skip_the_lineage_path(monkeypatch):
    import treeprov.prob as prob

    def refuse(*args, **kwargs):
        raise AssertionError("BID probability built a lineage")

    for name in ("bid_to_pcc", "lineage_circuit", "message_passing_prob"):
        monkeypatch.setattr(prob, name, refuse)
    rng = random.Random(89)
    bid = random_bid(rng, random_directions(rng, cycle_edges(5)), (0,))
    query_probability_bid(parse_ucq("R(x,y),R(y,z)"), bid)
    query_probability_bid(loop_guesser(), bid)
    count_matches(parse_ucq("R(x,y),R(y,z)", free=("x", "z")),
                  bid.instance)


def random_gated(rng, edges):
    """R facts on the edges gated by a random circuit: inputs at p in
    {0, 1/3, 1/2, 1}, NOT, AND and OR gates of fan-in 1 to 3 and the
    two constants; facts pick their gate from all of them."""
    inst = make_instance({"R": 2}, [("R", e) for e in edges])
    gates = {("one",): ("and", ()), ("zero",): ("or", ())}
    probs = {}
    for i in range(rng.randint(2, 4)):
        gates[("x", i)] = ("inp", ())
        probs[("x", i)] = rng.choice((Fraction(0), Fraction(1, 3),
                                      Fraction(1, 2), Fraction(1)))
    pool = list(gates)
    for i in range(rng.randint(3, 6)):
        t = rng.choice(("not", "and", "or"))
        n = 1 if t == "not" else rng.randint(1, 3)
        gates[("g", i)] = (t, tuple(rng.sample(pool, n)))
        pool.append(("g", i))
    phi = {f.id: rng.choice(pool) for f in inst.facts}
    return PCCInstance(inst, Circuit("bool", gates, pool[-1]), phi, probs)


def cone(circuit, gate):
    out, stack = set(), [gate]
    while stack:
        g = stack.pop()
        if g not in out:
            out.add(g)
            stack.extend(circuit.gates[g][1])
    return out


def test_query_probability_pcc_width_two_oracle():
    """The automaton DP on the cc-encoding against possible worlds:
    randomly directed cycles and 2 x m grids, random gating circuits."""
    from treeprov.ucq import UCQ

    rng = random.Random(90)
    queries = [parse_ucq(t) for t in (
        "R(x,y),R(y,z)", "R(x,y),R(y,x)", "R(x,y),R(z,y)", "R(x,x)")]
    overlapping = parse_ucq("R(x,y) ; R(x,y),R(y,z)")
    guesser = loop_guesser()
    seen = dict.fromkeys(("not", "const", "shared", "input", "outside",
                          "p0", "p1", "both"), 0)
    shapes = [cycle_edges(n) for n in (4, 5, 6)] + \
        [grid_edges(m) for m in (2, 3)]
    for edges in shapes:
        for _ in range(2):
            edges2 = random_directions(rng, edges)
            if rng.random() < 0.5:
                edges2 += [(edges2[0][0], edges2[0][0])]
            pcc = random_gated(rng, edges2)
            worlds = pcc_worlds(pcc)
            for q in queries + [overlapping]:
                assert query_probability_pcc(q, pcc) == pr_oracle(worlds, q)
            assert query_probability_pcc(guesser, pcc) == \
                pr_oracle(worlds, queries[-1])
            gated = set().union(*(cone(pcc.circuit, g)
                                  for g in pcc.phi.values()))
            types = [pcc.circuit.gates[g] for g in gated]
            seen["not"] += any(t == "not" for t, _ in types)
            seen["const"] += any(t != "inp" and not ins for t, ins in types)
            seen["shared"] += len(set(pcc.phi.values())) < len(pcc.phi)
            seen["input"] += any(pcc.circuit.gates[g][0] == "inp"
                                 for g in pcc.phi.values())
            seen["outside"] += len(gated) < len(pcc.circuit.gates)
            seen["p0"] += Fraction(0) in pcc.probs.values()
            seen["p1"] += Fraction(1) in pcc.probs.values()
            seen["both"] += any(all(satisfies(UCQ((d,)), w)
                                    for d in overlapping.disjuncts)
                                for w, _ in worlds)
    assert all(seen.values()), seen
    empty = PCCInstance(make_instance({"R": 2}, []),
                        Circuit("bool", {"x": ("inp", ())}, "x"), {},
                        {"x": Fraction(1, 2)})
    assert query_probability_pcc(queries[0], empty) == 0
    assert query_probability_pcc(guesser, empty) == 0


def test_pcc_skips_the_lineage_path(monkeypatch):
    """pcc probability builds no lineage; PrXML probability also builds
    no pc, no decomposition and no generic encoding."""
    import treeprov
    from treeprov.prxml import PrXMLDoc, PrXMLNode, prxml_query_probability

    def refuse(*names):
        def refused(*args, **kwargs):
            raise AssertionError("probability called a refused stage")

        modules = [getattr(treeprov, m) for m in (
            "circuits", "encoding", "prob", "prxml", "relational")]
        for name in names:
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)

    refuse("lineage_circuit", "message_passing_prob")
    rng = random.Random(91)
    pcc = random_gated(rng, random_directions(rng, cycle_edges(5)))
    query_probability_pcc(parse_ucq("R(x,y),R(y,z)"), pcc)
    query_probability_pcc(loop_guesser(), pcc)
    refuse("fie_to_pc", "pc_to_pcc", "arity_two", "tree_decomposition",
           "normalize_decomposition", "encode")
    doc = PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
        "m", "mux", [(Fraction(1, 3), PrXMLNode("a")),
                     (Fraction(1, 2), PrXMLNode("b"))]))]))
    assert prxml_query_probability(parse_ucq("P_a(x)"), doc) == \
        Fraction(1, 3)


def test_pcc_dp_matches_lineage_message_passing():
    """A 12-edge pc path, edge i gated by a formula over events e_i and
    e_(i+1): the DP and the still-exported lineage route agree."""
    from treeprov.ucq import compile_bool

    formulas = ("a & b", "a | !b", "!a & b", "a | b", "a")
    rng = random.Random(92)
    names = ["v%02d" % i for i in range(13)]
    rng.shuffle(names)
    inst = make_instance({"R": 2}, [("R", (names[i], names[i + 1]))
                                    for i in range(12)])
    conds = {f.id: parse_formula(rng.choice(formulas).replace(
        "a", "e%d" % i).replace("b", "e%d" % (i + 1)))
        for i, f in enumerate(inst.facts)}
    events = {"e%d" % i: rng.choice((Fraction(1, 4), Fraction(1, 2),
                                     Fraction(2, 3))) for i in range(13)}
    pcc = pc_to_pcc(PCInstance(inst, conds, events))
    q = parse_ucq("R(x,y),R(y,z)")
    lineage, decomp = lineage_circuit(compile_bool(q), pcc)
    assert query_probability_pcc(q, pcc) == \
        message_passing_prob(lineage, decomp, pcc.probs)


def test_lineage_circuit_size():
    """The lineage of a 2-atom path on an 8-edge BID path with one fact
    per block has few gates (22) and a narrow decomposition (width 4),
    and message passing over it gives the DP's probability."""
    inst = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(8)])
    pcc = bid_to_pcc(BIDInstance(inst, {"R": (0,)},
                                 {f.id: Fraction(1, 3) for f in inst.facts}))
    q = parse_ucq("R(x,y),R(y,z)")
    lineage, decomp = lineage_circuit(compile_bool(q), pcc)
    assert len(lineage) <= 26
    assert decomp.width <= 4
    assert message_passing_prob(lineage, decomp, pcc.probs) == \
        query_probability_pcc(q, pcc) == Fraction(3217, 6561)


def test_arity_mismatch_refused():
    inst = make_instance({"R": 2}, [("R", ("a", "b"))])
    q = parse_ucq("R(x)")
    bid = BIDInstance(inst, {}, {"F1": Fraction(1, 2)})
    with pytest.raises(ValueError, match="arity"):
        query_probability_bid(q, bid)
    pc = PCInstance(inst, {}, {})
    with pytest.raises(ValueError, match="arity"):
        query_probability_pcc(q, pc_to_pcc(pc))
    with pytest.raises(ValueError, match="arity"):
        count_matches(parse_ucq("R(x)", free=("x",)), inst)


# ---------------------------------------------------------------------------
# Counting


def test_count_matches_boolean():
    inst = make_instance({"R": 2}, [("R", ("a", "a")), ("R", ("b", "c")),
                                    ("R", ("c", "b"))])
    assert count_matches(parse_ucq("R(x,y),R(y,x)"), inst) == 1
    assert count_matches(parse_ucq("R(x,x),R(x,y)"), inst) == 1


def test_count_matches_free_vars():
    inst = make_instance({"R": 2}, [("R", ("a", "a")), ("R", ("b", "c")),
                                    ("R", ("c", "b"))])
    q = parse_ucq("R(x,y)", free=("x",))
    want = len({m["x"] for _, m in enumerate_matches(q, inst)})
    assert count_matches(q, inst) == want == 3


def test_count_matches_random_oracle():
    rng = random.Random(82)
    for _ in range(10):
        inst = rand_instance(rng, max_facts=4, max_dom=3)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2, free=("x",))
        want = len({m["x"] for _, m in enumerate_matches(q, inst)})
        assert count_matches(q, inst) == want


def test_count_matches_long_path():
    """Named v0..v10 in order: message passing once ran out of memory."""
    inst = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(10)])
    q = parse_ucq("R(x,y),R(y,z)", free=("x",))
    assert count_matches(q, inst) == 9


def test_count_matches_empty():
    inst = make_instance({"R": 2}, [])
    q = parse_ucq("R(x,y)", free=("x",))
    assert count_matches(q, inst) == 0


# ---------------------------------------------------------------------------
# JSON


def test_pc_json_roundtrip():
    rng = random.Random(83)
    pc = rand_pc(rng)
    back = pc_from_json(pc_to_json(pc))
    assert back.events == pc.events
    assert world_dist(pc_worlds(back)) == world_dist(pc_worlds(pc))


def test_bid_json_roundtrip():
    rng = random.Random(84)
    bid = rand_bid(rng)
    back = bid_from_json(bid_to_json(bid))
    assert back.probs == bid.probs
    assert back.key_positions == {r: tuple(v) for r, v
                                  in bid.key_positions.items()}


def test_pcc_json_roundtrip():
    rng = random.Random(85)
    pcc = rand_pcc(rng)
    back = pcc_from_json(pcc_to_json(pcc))
    assert world_dist(pcc_worlds(back)) == world_dist(pcc_worlds(pcc))


def test_format_fraction():
    assert format_fraction(Fraction(3, 6)) == "1/2"
    assert format_fraction(1) == "1/1"
