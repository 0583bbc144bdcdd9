"""Benchmark workloads: inputs made from the workload seed, the calls
into treeprov's public API, their traced variants and their checks.

``make_ops(workload, seed, variant)`` returns the operations of one
pass.  Each operation has:

- ``run()``: the plain public call, timed from outside;
- ``traced(tr)``: the same answer computed through the pipeline's public
  stages one at a time, each timed in a span, with sizes counted;
- ``check(answer)``: ``(ok, canonical answer)`` from the oracles in
  ``bench_oracles``; the canonical answer feeds the run's answer digest;
- ``known_fault``: set when the program is known to answer wrongly; a
  wrong answer then counts as a failed operation, not as incorrect.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import bench_oracles as orc
from treeprov import (BNTA, NAT, Atom, BIDInstance, CQ, Fact, Instance,
                      PCInstance, PrXMLDoc, PrXMLNode, UCQ, bid_to_pcc,
                      compile_bool, count_matches, encode, expand_polynomial,
                      fie_to_pc, lineage_circuit, message_passing_prob,
                      muxind_to_binary, muxind_to_fie, normalize_decomposition,
                      nx_provenance, pc_to_pcc, prxml_query_probability,
                      query_probability_bid, query_probability_pcc,
                      query_provenance_circuit, tree_decomposition)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (operation index, name, start, end)
        self.values = {}  # metric name -> per-pass total or peak
        self.op = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((self.op, name, start, end))
            self.add(name + "_s", end - start)

    def last(self, name):
        """Duration of this operation's latest span called ``name``."""
        for op, n, start, end in reversed(self.spans):
            if op == self.op and n == name:
                return end - start
        return 0.0

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def peak(self, name, value):
        self.values[name] = max(self.values.get(name, 0), value)


class Op:
    def __init__(self, name, run, traced, check, known_fault=None):
        self.name = name
        self.run = run
        self.traced = traced
        self.check = check
        self.known_fault = known_fault


# ---------------------------------------------------------------------------
# Shared helpers


def to_ucq(ucq, free=()):
    """treeprov UCQ from the oracle form."""
    return UCQ(tuple(CQ(tuple(Atom(rel, vs) for rel, vs in atoms),
                        frozenset(frozenset(p) for p in diseqs))
                     for atoms, diseqs in ucq), tuple(free))


def parse(text):
    """Oracle-form UCQ from "R(x,y),S(y);S(x)" (no diseqs)."""
    out = []
    for cq in text.split(";"):
        atoms = []
        for part in cq.replace(" ", "").split(")")[:-1]:
            rel, args = part.lstrip(",").split("(")
            atoms.append((rel, tuple(args.split(","))))
        out.append((atoms, ()))
    return out


def to_instance(signature, facts):
    return Instance(signature, [Fact(rel, args, fid)
                                for fid, rel, args in facts])


def counting(automaton, tr):
    """The same automaton, built from the public BNTA class, counting
    delta calls and the distinct states that iota and delta return."""
    reached = set()

    def iota(label):
        out = automaton.iota(label)
        reached.update(out)
        return out

    def delta(q1, q2, label):
        tr.add("automata.delta_calls", 1)
        out = automaton.delta(q1, q2, label)
        reached.update(out)
        return out

    wrapped = BNTA(iota, delta, automaton.is_final,
                   states=automaton.states, labels=automaton.labels)
    return wrapped, reached


def graph_facts(shape, nodes, edges, unary_share):
    """R facts on randomly oriented edges and S facts on a random share
    of the nodes, under random names, ids and fact order."""
    names = ["c%02d" % i for i in range(len(nodes))]
    shape.shuffle(names)
    name = dict(zip(nodes, names))
    facts = []
    for u, v in edges:
        if shape.random() < 0.5:
            u, v = v, u
        facts.append(("R", (name[u], name[v])))
    marked = ([n for n in nodes if shape.random() < unary_share]
              or [nodes[0]])
    facts += [("S", (name[n],)) for n in marked]
    shape.shuffle(facts)
    return [("F%d" % (i + 1), rel, args) for i, (rel, args) in enumerate(facts)]


def path_shape(n):
    return list(range(n + 1)), [(i, i + 1) for i in range(n)]


def cycle_shape(n):
    return list(range(n)), [(i, (i + 1) % n) for i in range(n)]


def ladder_shape(m):
    """2 x m grid: treewidth 2."""
    nodes = [(r, i) for r in (0, 1) for i in range(m)]
    edges = [((0, i), (1, i)) for i in range(m)]
    edges += [((r, i), (r, i + 1)) for r in (0, 1) for i in range(m - 1)]
    return nodes, edges


def directed_path(rng, n, prefix="v"):
    """Facts R(v0,v1) .. R(v(n-1),vn) under random names and ids."""
    names = ["%s%02d" % (prefix, i) for i in range(n + 1)]
    rng.shuffle(names)
    ids = ["F%d" % (i + 1) for i in range(n)]
    rng.shuffle(ids)
    return [(ids[i], "R", (names[i], names[i + 1])) for i in range(n)]


SIG = {"R": 2, "S": 1}
PATH_QUERY = parse("R(x,y),R(y,z)")


# ---------------------------------------------------------------------------
# bool-provenance: query_provenance_circuit(compile_bool(q), I, k)

# No query has the disjunct R(x,y),R(y,z),R(z,w): on some edge directions
# of width-2 instances its circuit is wrong, so it would fail on some
# seeds only.
BOOL_QUERIES = (
    ("path", PATH_QUERY),
    ("marked-middle", parse("R(x,y),S(y),R(y,z)")),
    ("union", parse("R(x,y),S(y);S(x),R(y,x);R(x,y),R(y,x)")),
    ("diseq", [([("R", ("x", "y")), ("R", ("z", "y"))], [("x", "z")])]),
)

# (name, shape, width bound); domain sizes 11, 9 and 10 fall under the
# 14-element limit of the exact decomposition, 25 and 15 above it.
BOOL_INSTANCES = (
    ("path10", path_shape(10), 1),
    ("path24", path_shape(24), 1),
    ("cycle9", cycle_shape(9), 2),
    ("cycle15", cycle_shape(15), 2),
    ("grid2x5", ladder_shape(5), 2),
)

CHECK_WORLDS = 64


def bool_ops(shape, rng):
    ops = []
    for iname, (nodes, edges), k in BOOL_INSTANCES:
        facts = graph_facts(shape, nodes, edges, 1 / 3)
        inst = to_instance(SIG, facts)
        masks = {fid: rng.getrandbits(CHECK_WORLDS) for fid, _, _ in facts}
        for qname, q in BOOL_QUERIES:
            ops.append(bool_op("%s/%s" % (qname, iname), q, inst, k, facts,
                               masks))
    return ops


def bool_op(name, q, inst, k, facts, masks):
    query = to_ucq(q)
    full = (1 << CHECK_WORLDS) - 1
    expected = orc.holds_mask(q, facts, masks, full)

    def run():
        res, _ = query_provenance_circuit(compile_bool(query), inst, k)
        return res.circuit

    def traced(tr):
        with tr.span("relational.decompose"):
            dec = tree_decomposition(inst, k)
        tr.peak("relational.width", dec.width)
        tr.add("relational.bags", len(dec.bags()))
        with tr.span("encoding.encode"):
            enc = encode(inst, normalize_decomposition(dec))
        tr.add("encoding.nodes", len(enc.nodes()))
        automaton, reached = counting(compile_bool(query), tr)
        with tr.span("provcirc.query_provenance_circuit"):
            res, _ = query_provenance_circuit(automaton, inst, k)
        # self time: the call repeats the decomposition and encoding
        # timed just above on the same input
        tr.add("provcirc.provenance_s",
               tr.last("provcirc.query_provenance_circuit")
               - tr.last("relational.decompose") - tr.last("encoding.encode"))
        tr.add("provcirc.gates", len(res.circuit))
        tr.add("automata.states_reached", len(reached))
        return res.circuit

    def check(circuit):
        inputs = {}
        for g, (t, _) in circuit.gates.items():
            if t == "inp":
                if g not in masks:
                    return False, ("unknown input", repr(g))
                inputs[g] = masks[g]
        got = orc.eval_circuit(circuit.gates, circuit.output, inputs, "bool",
                               full)
        return got == expected, got

    return Op(name, run, traced, check)


# ---------------------------------------------------------------------------
# nx-provenance: nx_provenance, expand_polynomial, evaluation in NAT

NX_QUERIES = {
    "path": PATH_QUERY,
    "inward": parse("R(x,y),R(z,y)"),
    "marked": parse("R(x,y),S(y)"),
    "path-marked": parse("R(x,y),R(y,z),S(z)"),
}

# (instance name, shape, queries); the three-atom query runs on the
# smallest shapes only, its cost grows fastest with the instance
NX_CASES = (
    ("path2", path_shape(2), ("path", "inward", "marked", "path-marked")),
    ("cycle3", cycle_shape(3), ("path", "marked")),
    ("path3", path_shape(3), ("marked",)),
    ("path4", path_shape(4), ("marked",)),
    ("cycle4", cycle_shape(4), ("marked",)),
)


def nx_ops(shape, rng):
    ops = []
    for iname, (nodes, edges), qnames in NX_CASES:
        facts = graph_facts(shape, nodes, edges, 1 / 2)
        inst = to_instance(SIG, facts)
        values = {fid: rng.randint(1, 3) for fid, _, _ in facts}
        for qname in qnames:
            ops.append(nx_op("%s/%s" % (qname, iname), NX_QUERIES[qname],
                             inst, facts, values))
    return ops


def nx_op(name, q, inst, facts, values):
    query = to_ucq(q)
    expected = orc.nx_polynomial(q, facts)
    expected_value = orc.nat_value(expected, values)

    def run():
        poly = expand_polynomial(nx_provenance(query, inst))
        return poly, poly.evaluate(NAT, values)

    def traced(tr):
        with tr.span("ucq.nx_provenance"):
            circuit = nx_provenance(query, inst)
        tr.add("circuits.nx_gates", len(circuit))
        with tr.span("circuits.expand"):
            poly = expand_polynomial(circuit)
        tr.add("circuits.monomials", len(poly))
        with tr.span("circuits.nat_eval"):
            value = poly.evaluate(NAT, values)
        return poly, value

    def check(answer):
        poly, value = answer
        got = dict(poly.monomials)
        return (got == expected and value == expected_value,
                (sorted(got.items()), value))

    return Op(name, run, traced, check)


# ---------------------------------------------------------------------------
# probability: BID and pc probabilities, match counting

PROBS = tuple(Fraction(a, b) for a, b in
              ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4)))


def traced_pcc_probability(tr, query, pcc):
    """query_probability_pcc split into its public stages."""
    automaton, reached = counting(compile_bool(query), tr)
    with tr.span("prob.lineage"):
        circuit, dec = lineage_circuit(automaton, pcc, None)
    tr.add("automata.states_reached", len(reached))
    tr.add("prob.lineage_gates", len(circuit))
    tr.peak("prob.lineage_width", dec.width)
    with tr.span("prob.message_passing"):
        return message_passing_prob(circuit, dec, pcc.probs)


def probability_ops(shape, rng):
    # Sizes keep a pass near one second, below two memory blow-ups of
    # message passing: two-fact blocks on a 5-edge path (over 2 GiB for
    # some namings) and count_matches on a 10-edge path (over 2.5 GB).
    ops = [bid_half_op(shape, n) for n in (3, 4, 5)]
    ops += [bid_blocks_op(shape, rng, n) for n in (2, 3)]
    ops += [pc_op(shape, rng, n) for n in (2, 3, 4)]
    ops += [count_op(shape, n) for n in (2, 3)]
    return ops


def bid_op(name, query, bid, expected):
    def run():
        return query_probability_bid(query, bid)

    def traced(tr):
        with tr.span("prob.to_pcc"):
            pcc = bid_to_pcc(bid)
        tr.add("prob.pcc_gates", len(pcc.circuit))
        return traced_pcc_probability(tr, query, pcc)

    def check(p):
        return p == expected, str(p)

    return Op(name, run, traced, check)


def bid_half_op(shape, n):
    """Directed n-edge path, every edge kept with probability 1/2: the
    answer has a closed form."""
    facts = directed_path(shape, n)
    bid = BIDInstance(to_instance({"R": 2}, facts), {"R": (0,)},
                      {fid: Fraction(1, 2) for fid, _, _ in facts})
    return bid_op("bid-half/path%d" % n, to_ucq(PATH_QUERY), bid,
                  orc.path_query_probability(n))


def bid_blocks_op(shape, rng, n):
    """Directed n-edge path where each edge shares its key R[0] with a
    pendant edge: blocks of two facts with random probabilities."""
    path = directed_path(shape, n)
    facts = []
    blocks = []
    probs = {}
    for i, (fid, rel, (u, v)) in enumerate(path):
        alt = ("G%d" % (i + 1), rel, (u, "w%02d" % i))
        a = rng.randint(1, 6)
        b = rng.randint(1, 7 - a)
        probs[fid], probs[alt[0]] = Fraction(a, 8), Fraction(b, 8)
        facts += [(fid, rel, (u, v)), alt]
        blocks.append([(fid, probs[fid]), (alt[0], probs[alt[0]])])
    shape.shuffle(facts)
    bid = BIDInstance(to_instance({"R": 2}, facts), {"R": (0,)}, probs)
    expected = orc.bid_probability(
        blocks, lambda present: orc.holds(
            PATH_QUERY, [f for f in facts if f[0] in present]))
    return bid_op("bid-blocks/path%d" % n, to_ucq(PATH_QUERY), bid, expected)


FORMULAS = (
    lambda a, b: ("and", a, b),
    lambda a, b: ("or", a, ("not", b)),
    lambda a, b: ("and", ("not", a), b),
    lambda a, b: ("or", a, b),
    lambda a, b: a,
)


def pc_op(shape, rng, n):
    """Directed n-edge path; edge i is present iff a formula over events
    e_i and e_(i+1) holds."""
    facts = directed_path(shape, n)
    events = {"e%d" % i: rng.choice(PROBS) for i in range(n + 1)}
    order = {fid: i for i, (fid, _, _) in enumerate(facts)}
    conds = {fid: shape.choice(FORMULAS)(("var", "e%d" % order[fid]),
                                         ("var", "e%d" % (order[fid] + 1)))
             for fid, _, _ in facts}
    shape.shuffle(facts)
    pc = PCInstance(to_instance({"R": 2}, facts), conds, events)
    query = to_ucq(PATH_QUERY)
    expected = orc.pc_probability(
        events, conds, lambda present: orc.holds(
            PATH_QUERY, [f for f in facts if f[0] in present]))

    def run():
        return query_probability_pcc(query, pc_to_pcc(pc))

    def traced(tr):
        with tr.span("prob.to_pcc"):
            pcc = pc_to_pcc(pc)
        tr.add("prob.pcc_gates", len(pcc.circuit))
        return traced_pcc_probability(tr, query, pcc)

    def check(p):
        return p == expected, str(p)

    return Op("pc/path%d" % n, run, traced, check)


def count_op(shape, n):
    """Answers of R(x,y),R(y,z) with x free on a directed n-edge path."""
    facts = directed_path(shape, n)
    inst = to_instance({"R": 2}, facts)
    query = to_ucq(PATH_QUERY, free=("x",))
    expected = orc.path_query_count(n)

    def run():
        return count_matches(query, inst)

    def traced(tr):
        with tr.span("prob.count_matches"):
            return count_matches(query, inst)

    def check(c):
        return c == expected, c

    return Op("count/path%d" % n, run, traced, check)


# ---------------------------------------------------------------------------
# prxml: prxml_query_probability on mux/ind documents

LABEL_QUERIES = (
    ("a", "P_a(x)", [{"a"}]),
    ("a-or-b", "P_a(x);P_b(y)", [{"a"}, {"b"}]),
    ("a-and-b", "P_a(x),P_b(y)", [{"a", "b"}]),
)


def choice_node(shape, rng):
    """An ind node over 1-3 labelled leaves, or a mux node with one
    child or with two children whose probabilities sum to 1.  ``shape``
    draws the nodes and labels, ``rng`` the probabilities."""
    def leaf():
        return (shape.choice("abc"), "regular", [])

    if shape.random() < 0.5:
        return ("ind", "ind", [(rng.choice(PROBS), leaf())
                               for _ in range(shape.randint(1, 3))])
    p = rng.choice(PROBS)
    if shape.random() < 0.5:
        return ("mux", "mux", [(p, leaf())])
    return ("mux", "mux", [(p, leaf()), (1 - p, leaf())])


def flat_document(shape, rng):
    """Every labelled leaf hangs under one choice edge, below a certain
    skeleton."""
    sections = []
    for _ in range(2):
        kids = [(None, choice_node(shape, rng))
                for _ in range(shape.randint(1, 2))]
        kids.append((None, ("t", "regular", [])))
        shape.shuffle(kids)
        sections.append((None, ("s", "regular", kids)))
    return ("r", "regular", sections)


def nested_document(depth):
    """Label a under ``depth`` nested ind edges of probability 1/2."""
    node = ("a", "regular", [])
    for _ in range(depth - 1):
        node = ("s", "regular", [(None, ("ind", "ind",
                                         [(Fraction(1, 2), node)]))])
    return ("r", "regular", [(None, ("ind", "ind",
                                     [(Fraction(1, 2), node)]))])


def to_doc(node):
    def conv(n):
        label, kind, kids = n
        return PrXMLNode(label, kind, [(p, conv(c)) for p, c in kids])

    return PrXMLDoc(conv(node))


def prxml_ops(shape, rng):
    ops = []
    for d in range(3):
        tree = flat_document(shape, rng)
        for qname, text, labels in LABEL_QUERIES:
            ops.append(prxml_op("%s/doc%d" % (qname, d), text, tree, labels))
    # Independent of the seed: the weak encoding conditions a label on
    # its own edge only, so these answer 1/2 instead of 1/4 and 1/8.
    for depth in (2, 3):
        ops.append(prxml_op("a/nested%d" % depth, "P_a(x)",
                            nested_document(depth), [{"a"}],
                            known_fault="weak encoding"))
    return ops


def prxml_op(name, text, tree, labels, known_fault=None):
    query = to_ucq(parse(text))
    doc = to_doc(tree)
    expected = orc.prxml_label_probability(tree, labels)

    def run():
        return prxml_query_probability(query, doc)

    def traced(tr):
        with tr.span("prxml.to_pc"):
            pc = fie_to_pc(muxind_to_fie(muxind_to_binary(doc)))
        tr.peak("prxml.pc_max_events",
                max(len(orc.formula_events(f)) for f in pc.conds.values()))
        with tr.span("prob.to_pcc"):
            pcc = pc_to_pcc(pc)
        tr.add("prob.pcc_gates", len(pcc.circuit))
        return traced_pcc_probability(tr, query, pcc)

    def check(p):
        return p == expected, str(p)

    return Op(name, run, traced, check, known_fault)


# ---------------------------------------------------------------------------

MAKERS = {
    "bool-provenance": bool_ops,
    "nx-provenance": nx_ops,
    "probability": probability_ops,
    "prxml": prxml_ops,
}


def make_ops(workload, seed, variant):
    """The operations of one pass over the inputs of the given variant of
    the seed.

    Two generators make the inputs.  ``shape`` draws what the cost of an
    operation turns on: element names, edge directions, S marks, fact ids
    and order, pc formulas, document trees and labels.  It depends on the
    variant only, so every seed has the same catalogue of shapes, and
    every run, which holds whole rounds of all variants, the same mix of
    costly and cheap ones.  ``rng`` draws the rest from the seed:
    probabilities, NAT values and the valuations the checks use.
    ``random.Random`` seeded with a string gives the same inputs whatever
    the process's hash seed."""
    shape = random.Random("%s:shape:%d" % (workload, variant))
    rng = random.Random("%s:%d:%d" % (workload, seed, variant))
    return MAKERS[workload](shape, rng)
