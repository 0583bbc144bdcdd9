"""Probabilistic applications: pc/pcc/BID instances, exact query
probabilities as Fractions, and match counting.

The determinised query automaton runs bottom-up over a tree encoding,
summing integer world weights; no lineage circuit is built:
- BID: over the instance's own encoding, keyed by state and the blocks
  chosen below (`_bid_dp`).  Match counting reduces to that: one
  uniform block per free variable (`count_matches`).
- pcc, pc and PrXML: over a cc-encoding of data and circuit, keyed by
  state and the values of gates shared with the parent (`_pcc_dp`).
`message_passing_prob` is `_pcc_dp` without the automaton, over any
decomposition of a circuit, such as `lineage_circuit`'s; the two DPs
step a bag's gates with one helper, `_bag_step`.
"""

import math
import weakref
from fractions import Fraction
from types import SimpleNamespace

from .automata import lazy_determinize, memoized
from .circuits import (Circuit, _circuit_facts, _gate_at, _gate_ids,
                       arity_two, circuit_from_json, circuit_to_json)
from .encoding import _encoded, _kept, encode
from .provcirc import _bool_circuit, _neutered
from .relational import (Bag, Fact, Instance, TreeDecomposition,
                         instance_from_json, instance_to_json, json_field,
                         normalize_decomposition, tree_decomposition)
from .trees import fold, parents
from .ucq import CQ, UCQ, Atom, _compile_det


# ---------------------------------------------------------------------------
# Propositional formulas (pc-instance annotations)


def parse_formula(text):
    """Grammar: OR-expr of AND-exprs of literals; literals are event
    names, constants 0/1, !lit, and parenthesized expressions.  Parsed
    left to right by operator precedence: "!" binds tightest, then "&",
    then "|", both left-associative; an open parenthesis saves the
    enclosing expression on a stack."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()!&|":
            tokens.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise SyntaxError("bad character %r at position %d" % (c, i))
    saved = []  # (disjunction, conjunction, pending "!"s) per open "("
    ors = ands = None
    nots = 0
    operand = True  # a literal comes next, else an operator or the end
    for t in tokens + [None]:
        if operand:
            if t == "!":
                nots += 1
                continue
            if t == "(":
                saved.append((ors, ands, nots))
                ors = ands = None
                nots = 0
                continue
            if t in (None, ")", "&", "|"):
                raise SyntaxError("unexpected token %r" % t)
            lit = ("const", t == "1") if t in ("0", "1") else ("var", t)
        elif t in ("&", "|"):
            if t == "|":
                ors = ands if ors is None else ("or", ors, ands)
                ands = None
            operand = True
            continue
        else:  # the innermost expression ends here
            lit = ands if ors is None else ("or", ors, ands)
            if not saved:
                if t is not None:
                    raise SyntaxError("trailing input in formula")
                return lit
            if t != ")":
                raise SyntaxError("missing )")
            ors, ands, nots = saved.pop()
        for _ in range(nots):
            lit = ("not", lit)
        nots = 0
        ands = lit if ands is None else ("and", ands, lit)
        operand = False


def _subformulas(f):
    return f[1:] if f[0] in ("not", "and", "or") else ()


def formula_events(f):
    out = set()
    stack = [f]
    while stack:
        f = stack.pop()
        if f[0] == "var":
            out.add(f[1])
        stack.extend(_subformulas(f))
    return out


def eval_formula(f, assignment):
    def value(f, subs):
        if f[0] == "var":
            return bool(assignment[f[1]])
        if f[0] == "const":
            return f[1]
        if f[0] == "not":
            return not subs[0]
        return all(subs) if f[0] == "and" else any(subs)

    return fold(f, _subformulas, value)


def format_formula(f):
    def text(f, subs):
        if f[0] == "var":
            return f[1]
        if f[0] == "const":
            return "1" if f[1] else "0"
        if f[0] == "not":
            return "!(%s)" % subs[0] if f[1][0] in ("and", "or") else \
                "!" + subs[0]
        return (" & " if f[0] == "and" else " | ").join(
            "(%s)" % s if f[0] == "and" and sub[0] == "or" else s
            for sub, s in zip(f[1:], subs))

    return fold(f, _subformulas, text)


# ---------------------------------------------------------------------------
# Instance flavors


class PCInstance:
    """Facts annotated with propositional formulas over independent
    events with given probabilities."""

    def __init__(self, instance, conds, events):
        self.instance = instance
        self.conds = dict(conds)  # fact id -> formula AST
        self.events = _json_events(events)
        for e, p in self.events.items():
            if not 0 <= p <= 1:
                raise ValueError("event %s has probability %s, outside "
                                 "[0, 1]" % (e, p))
        for fid, f in self.conds.items():
            missing = formula_events(f) - set(self.events)
            if missing:
                raise ValueError("undeclared events %s" % sorted(missing))
        for f in instance.facts:
            if f.id not in self.conds:
                self.conds[f.id] = ("const", True)


class PCCInstance:
    """Facts gated by gates of a Boolean circuit with probabilistic
    inputs."""

    def __init__(self, instance, circuit, phi, probs):
        self.instance = instance
        self.circuit = circuit
        self.phi = dict(phi)  # fact id -> gate id
        self.probs = {g: Fraction(p) for g, p in probs.items()}
        for f in instance.facts:
            if f.id not in self.phi:
                raise ValueError("phi not total: missing %s" % f.id)
        for g in circuit.inputs():
            p = self.probs.get(g)
            if p is None:
                raise ValueError("missing probability for input %r" % (g,))
            if not 0 <= p <= 1:
                raise ValueError("probability out of range for %r" % (g,))


class BIDInstance:
    """Block-independent-disjoint: per key-valuation block, at most one
    fact is present; blocks are independent."""

    def __init__(self, instance, key_positions, probs):
        self.instance = instance
        self.key_positions = {r: tuple(v) for r, v in key_positions.items()}
        self.probs = {fid: Fraction(p) for fid, p in probs.items()}
        for f in instance.facts:
            if f.id not in self.probs:
                raise ValueError("missing probability for %s" % f.id)
            if not 0 < self.probs[f.id] <= 1:
                raise ValueError("block probabilities must be in (0,1]")
        for block, facts in self.blocks().items():
            if sum(self.probs[f.id] for f in facts) > 1:
                raise ValueError("block %r probabilities exceed 1" % (block,))

    def block_key(self, fact):
        pos = self.key_positions.get(fact.rel, tuple(range(len(fact.args))))
        return (fact.rel, tuple(fact.args[i] for i in pos))

    def blocks(self):
        out = {}
        for f in self.instance.facts:
            out.setdefault(self.block_key(f), []).append(f)
        return out


class CCEncoding:
    """Tree encoding of the instance part, a same-skeleton decomposition
    of the circuit, and the per-bag selected gate chi."""

    def __init__(self, encoding, circuit_decomposition, chi):
        self.encoding = encoding
        self.circuit_decomposition = circuit_decomposition
        self.chi = chi  # id(encoding node) -> gate id


def pc_relational_encoding(pc):
    """Width measure for pc-instances: the original facts plus binary
    Occ (element, event) and Cooc (event, event) facts."""
    sig = dict(pc.instance.signature)
    sig["Occ"] = 2
    sig["Cooc"] = 2
    facts = list(pc.instance.facts)
    seen = set()
    n = 0

    def add(rel, args):
        nonlocal n
        if (rel, args) in seen:
            return
        seen.add((rel, args))
        n += 1
        facts.append(Fact(rel, args, ("oc", n)))

    for f in pc.instance.facts:
        events = sorted(formula_events(pc.conds[f.id]))
        for e in events:
            for a in f.args:
                add("Occ", (a, ("ev", e)))
        for i, e in enumerate(events):
            for g in events[i + 1:]:
                add("Cooc", (("ev", e), ("ev", g)))
    return Instance(sig, facts)


def pc_width(pc):
    return tree_decomposition(pc_relational_encoding(pc)).width


# ---------------------------------------------------------------------------
# The gate-value DP


def _input_weights(circuit, probs):
    """Per input with p = a/d: (d - a, a), its integer weight when false
    and when true."""
    ps = {g: Fraction(probs[g]) for g in circuit.inputs()}
    return {g: (p.denominator - p.numerator, p.numerator)
            for g, p in ps.items()}


def _bag_step(circuit, at, children, homed, input_weights):
    """Step one bag, for both DPs.  at maps the bag's gates, in
    topological order, to their index in a row of values; children are
    the child messages (kept gates, {their values: payload}).  Yields,
    per row of values the children agree on (None elsewhere), the tuple
    of their payloads and the row's completions [(values, weight)].  A
    gate is checked against its inputs at its home, the first bag
    bottom-up holding it and its inputs (it then joins homed), where an
    input weighs input_weights[g]; any other gate no child set is
    enumerated."""
    rows = {(None,) * len(at): ()}
    fixed = set()
    for keep, message in children:
        fixed.update(keep)
        idx = [at[g] for g in keep]
        joined = {}
        for vals, payloads in rows.items():
            for kvals, p in message.items():
                row = list(vals)
                for i, v in zip(idx, kvals):
                    if row[i] not in (None, v):
                        break
                    row[i] = v
                else:
                    joined[tuple(row)] = payloads + (p,)
        rows = joined
    steps = []  # (index, gate type or None to enumerate, inputs, weights)
    for i, g in enumerate(at):
        t, ins = circuit.gates[g]
        if g not in homed and all(x in at for x in ins):
            homed.add(g)
            steps.append((i, None, (), input_weights[g]) if t == "inp"
                         else (i, t, [at[x] for x in ins], None))
        elif g not in fixed:
            steps.append((i, None, (), (1, 1)))
    for start, payloads in rows.items():
        done = [(start, 1)]
        for i, t, ins, weights in steps:
            nxt = []
            for vals, w in done:
                if t is None:
                    for v in (0, 1) if vals[i] is None else (vals[i],):
                        if weights[v]:
                            nxt.append((vals[:i] + (v,) + vals[i + 1:],
                                        w * weights[v]))
                else:
                    xs = [vals[j] for j in ins]
                    v = 1 - xs[0] if t == "not" else \
                        int(all(xs) if t == "and" else any(xs))
                    if vals[i] in (None, v):
                        nxt.append((vals[:i] + (v,) + vals[i + 1:], w))
            done = nxt
        yield payloads, done


def message_passing_prob(circuit, decomposition, probs):
    """Exact Pr[output = 1] for an arity-two Boolean circuit under
    independent inputs: `_pcc_dp` without the automaton, over the
    decomposition (any fan-out) re-rooted at a bag holding the output.
    A message maps the values of the gates a bag shares with its parent
    to an integer weight, so it has at most 2^|bag & parent| rows."""
    for g, (t, ins) in circuit.gates.items():
        if t in ("and", "or") and len(ins) not in (0, 2):
            raise ValueError("message passing needs arity-two circuits")
    pos = {g: i for i, g in enumerate(circuit.topo_order())}
    parent_of = decomposition.bag_parents()
    root = next((b for b in decomposition.bags() if circuit.output in b.dom),
                None)
    # parents first: (bag, {its gates in topological order: index}, those
    # kept for the parent, children); each gate must leave at one bag only
    order = []
    dropped = set()
    stack = [(root, None)] if root is not None else []
    while stack:
        b, parent = stack.pop()
        at = {g: i for i, g in enumerate(
            sorted((g for g in b.dom if g in pos), key=pos.__getitem__))}
        up = () if parent is None else parent.dom
        leaving = {g for g in at if g not in up}
        if not dropped.isdisjoint(leaving):
            raise ValueError(
                "invalid decomposition: the bags holding gate %r are not "
                "connected" % (dropped & leaving).pop())
        dropped |= leaving
        kids = [c for c in b.children + [parent_of.get(id(b))]
                if c is not None and c is not parent]
        order.append((b, at, [circuit.output] if parent is None
                      else [g for g in at if g in up], kids))
        stack.extend((c, b) for c in kids)
    weights = _input_weights(circuit, probs)
    homed = set()
    messages = {}  # id(bag) -> (kept gates, {their values: weight})
    for b, at, keep, kids in reversed(order):
        children = [messages.pop(id(c)) for c in kids]
        keep_at = [at[g] for g in keep]
        out = {}
        for ws, rows in _bag_step(circuit, at, children, homed, weights):
            below = math.prod(ws)
            for vals, w in rows:
                key = tuple(vals[i] for i in keep_at)
                out[key] = out.get(key, 0) + w * below
        messages[id(b)] = (keep, out)
    if len(homed) < len(circuit.gates):
        raise ValueError(
            "invalid decomposition: no bag covers gate %r and its inputs"
            % (next(g for g in pos if g not in homed),))
    scale = math.prod(f + t for f, t in weights.values())
    return Fraction(messages[id(root)][1].get((1,), 0), scale)


# ---------------------------------------------------------------------------
# cc-encodings and lineage


def _gate_elem(g):
    return ("g", g)


def joint_decomposition(pcc, k=None):
    """Relational encoding of a pcc-instance with an arity-two circuit:
    one fact per gate over gate elements, plus one ("plus", rel) fact
    per data fact linking its arguments to its gate; and a tree
    decomposition of it of width at most k.  Each fact is validated
    once, by the joint instance."""
    sig = {}
    facts = []
    for f in _circuit_facts(pcc.circuit):
        sig[f.rel] = len(f.args)
        facts.append(Fact(f.rel, tuple(_gate_elem(a) for a in f.args), f.id))
    for rel, arity in pcc.instance.signature.items():
        sig[("plus", rel)] = arity + 1
    for f in pcc.instance.facts:
        facts.append(Fact(("plus", f.rel),
                          tuple(f.args) + (_gate_elem(pcc.phi[f.id]),),
                          ("plus", f.id)))
    joint = Instance(sig, facts)
    return joint, tree_decomposition(joint, k)


def cc_encode(pcc, decomposition):
    """Build the cc-encoding from a (joint) decomposition, normalized
    over its ("plus", rel) facts only: one chain node per data fact and
    none per gate fact.  Each bag splits into its data elements, which
    `encode` turns into the tree encoding of pcc.instance, and its
    gates, the circuit bag of the same node; chi maps each fact's node
    to the fact's gate.  Normalizing reads only the facts of the
    decomposition's instance, so it gets the plus facts as they are,
    validated already."""
    decomposition = normalize_decomposition(TreeDecomposition(
        decomposition.root, SimpleNamespace(facts=[
            f for f in decomposition.instance.facts
            if isinstance(f.rel, tuple) and f.rel[0] == "plus"])))

    def split(bag, kids):
        gates = {e for e in bag.dom
                 if isinstance(e, tuple) and len(e) == 2 and e[0] == "g"}
        facts = [fid[1] for fid in bag.facts]
        return (Bag(bag.dom - gates, [d for d, _ in kids], facts),
                Bag({e[1] for e in gates}, [c for _, c in kids]))

    data_root, circuit_root = fold(decomposition.root,
                                   lambda bag: bag.children, split)
    enc = encode(pcc.instance, TreeDecomposition(data_root, pcc.instance,
                                                 normalized=True))
    chi = {id(node): pcc.phi[fid] for fid, node in enc.fact_nodes.items()}
    return CCEncoding(enc, TreeDecomposition(circuit_root, normalized=True),
                      chi)


def _cc_encoding(pcc, k):
    """arity_two(pcc.circuit) and the cc-encoding of the pcc over it."""
    c2, rep, _ = arity_two(pcc.circuit)
    pcc2 = PCCInstance(pcc.instance, c2,
                       {fid: rep[g] for fid, g in pcc.phi.items()}, pcc.probs)
    return c2, cc_encode(pcc2, joint_decomposition(pcc2, k)[1])


def lineage_circuit(automaton, pcc, k=None):
    """Boolean lineage of a query automaton over a pcc-instance: a
    circuit over the pcc inputs evaluating to query truth on each
    possible world, with a bounded-width decomposition: the arity-two
    pcc circuit drives the provenance circuit of the cc-encoding, whose
    fact inputs become their chi gates, and each bag is the union of
    the two circuits' bags at one encoding node."""
    c2, cc = _cc_encoding(pcc, k)
    inner, decomp = _bool_circuit(automaton, cc.encoding.nodes(), cc.chi,
                                  _neutered)
    named = set(cc.chi.values())

    # keep the lineage gates out of the pcc circuit's id space
    def wrap(g):
        return g if g in named else ("prov", g)

    gates = dict(c2.gates)
    for g, (t, ins) in inner.gates.items():
        if g not in named:
            gates[("prov", g)] = (t, tuple(wrap(i) for i in ins))

    def union(bags, kids):
        cbag, rbag = bags
        return Bag(cbag.dom | {wrap(g) for g in rbag.dom}, kids)

    root = fold((cc.circuit_decomposition.root, decomp.root),
                lambda bags: list(zip(bags[0].children, bags[1].children)),
                union)
    return (Circuit("bool", gates, wrap(inner.output)),
            TreeDecomposition(root, normalized=True))


def _with_step(query, run):
    """run(step) on the determinised, memoized automaton of query: for a
    UCQ or CQ, `_compile_det`'s, kept across calls; a user-supplied
    automaton is wrapped for this call only."""
    if isinstance(query, (UCQ, CQ)):
        return _compile_det(query, run)
    return run(memoized(lazy_determinize(query)))


def _check_arities(query, signature):
    """Refuse a query atom whose arity differs from its relation's arity
    in the instance signature (it could never match)."""
    if isinstance(query, CQ):
        query = UCQ((query,))
    if not isinstance(query, UCQ):
        return
    for d in query.disjuncts:
        for a in d.atoms:
            arity = signature.get(a.rel)
            if arity is not None and arity != len(a.vars):
                raise ValueError(
                    "atom %s(%s) has %d arguments but %s has arity %d in "
                    "the instance" % (a.rel, ",".join(a.vars), len(a.vars),
                                      a.rel, arity))


def query_probability_pcc(query, pcc, k=None):
    """Exact probability of a UCQ (or of a Boolean automaton over KFact
    labels) on a pcc-instance, by `_pcc_dp`; k bounds the width of the
    joint decomposition of data and circuit."""
    _check_arities(query, pcc.instance.signature)
    c2, cc = _cc_encoding(pcc, k)
    return _with_step(query, lambda step: _pcc_dp(step, c2, cc, pcc.probs))


def _pcc_dp(step, circuit, cc, probs):
    """The determinised automaton step (summing a nondeterministic one's
    runs would count a world once per run; see `_with_step`) run
    bottom-up over the cc-encoding cc of an arity-two circuit with input
    probabilities probs: a message maps (state, values of the node's
    gates kept in the parent's bag) to an integer weight.  `_bag_step`
    steps each bag, so every gate needs a bag holding it and its inputs.
    A node reads its label if it has no chi gate or its chi is true,
    else the neutered label."""
    pos = {g: i for i, g in enumerate(circuit.topo_order())}
    weights = _input_weights(circuit, probs)
    # children first: (node, {its gates in topological order: index},
    # those kept for the parent)
    order = []
    stack = [(cc.encoding.root, cc.circuit_decomposition.root, frozenset())]
    while stack:
        n, b, up = stack.pop()
        at = {g: i for i, g in enumerate(sorted(b.dom, key=pos.__getitem__))}
        order.append((n, at, [g for g in at if g in up]))
        if not n.is_leaf():
            stack.append((n.left, b.children[0], b.dom))
            stack.append((n.right, b.children[1], b.dom))
    homed = set()
    messages = {}  # id(node) -> (kept gates, {their values: {state: weight}})
    for n, at, keep in reversed(order):
        children = () if n.is_leaf() else \
            (messages.pop(id(n.left)), messages.pop(id(n.right)))
        chi = at[cc.chi[id(n)]] if id(n) in cc.chi else None
        keep_at = [at[g] for g in keep]
        out = {}
        for payloads, rows in _bag_step(circuit, at, children, homed,
                                        weights):
            runs = [(None, None, 1)]  # a leaf: iota, no child states
            if payloads:
                qs1, qs2 = payloads
                runs = [(q1, q2, w1 * w2) for q1, w1 in qs1.items()
                        for q2, w2 in qs2.items()]
            kept = {}  # (label, kept values) -> weight
            for vals, w in rows:
                label = n.label if chi is None or vals[chi] else \
                    n.label.neuter()
                key = (label, tuple(vals[i] for i in keep_at))
                kept[key] = kept.get(key, 0) + w
            for (label, kvals), w in kept.items():
                states = out.setdefault(kvals, {})
                for q1, q2, wq in runs:
                    qs = step.iota(label) if q1 is None else \
                        step.delta(q1, q2, label)
                    for q in qs:  # at most one: the automaton is deterministic
                        states[q] = states.get(q, 0) + w * wq
        messages[id(n)] = (keep, out)
    root = messages[id(cc.encoding.root)][1].get((), {})
    scale = math.prod(f + t for f, t in weights.values())
    return Fraction(sum(w for q, w in root.items() if step.is_final(q)), scale)


# ---------------------------------------------------------------------------
# pc -> pcc


def pc_to_pcc(pc, k=None):
    """Translate each fact's formula gate by gate: an event is its input
    gate ("e", e), each distinct not/and/or subformula is one gate shared
    by all formulas, and a constant is a nullary gate of the fact's own
    (one shared constant gate would sit next to every certain fact and
    widen the joint decomposition).  k caps the events per formula."""
    gates = {("e", e): ("inp", ()) for e in pc.events}
    shared = {}  # (type, input gates) -> gate id

    def gate(formula, ins, fid):
        t = formula[0]
        if t == "var":
            return ("e", formula[1])
        if t == "const":
            gates[("c", fid, formula[1])] = ("and" if formula[1] else "or", ())
            return ("c", fid, formula[1])
        key = (t, tuple(ins))
        g = shared.setdefault(key, ("f", len(shared)))
        gates[g] = key
        return g

    phi = {}
    for f in pc.instance.facts:
        formula = pc.conds[f.id]
        n = len(formula_events(formula))
        if k is not None and n > k:
            raise ValueError(
                "formula of %s uses %d events, more than the width bound %d"
                % (f.id, n, k))
        phi[f.id] = fold(formula, _subformulas,
                         lambda node, ins: gate(node, ins, f.id))
    gates[("truegate",)] = ("and", ())
    circuit = Circuit("bool", gates, ("truegate",))
    return PCCInstance(pc.instance, circuit, phi,
                       {("e", e): p for e, p in pc.events.items()})


# ---------------------------------------------------------------------------
# BID -> pcc


def bid_to_pcc(bid, k=None):
    """Per-block mutually-exclusive selection circuits routed along a
    normalized decomposition; Pr[g_in(b)] is the block's fact mass at or
    below b (invariant_probs).  One bottom-up pass sums each block's mass
    per bag until it is whole; routing starts at that bag and walks down
    the children that carry mass.  Those bags lie between two bags that
    hold the block's key, so the cost is linear in the data."""
    bags = normalize_decomposition(tree_decomposition(bid.instance, k)).bags()
    # gate ids number a bag by its place in bags(), not by its address
    number = {id(b): n for n, b in enumerate(bags)}
    blocks = [facts for _, facts in sorted(bid.blocks().items(),
                                           key=lambda kv: repr(kv[0]))]
    block_of = {f.id: bi for bi, facts in enumerate(blocks) for f in facts}
    total = [sum(bid.probs[f.id] for f in facts) for facts in blocks]

    below = {}  # id(bag) -> {block: its fact mass at or below the bag}
    start = {}  # block -> the lowest bag with its whole mass below
    for b in reversed(bags):  # bags() lists parents first
        mass = {}
        for c in b.children:
            for bi, m in below[id(c)].items():
                if bi not in start:
                    mass[bi] = mass.get(bi, 0) + m
        for fid in b.facts:  # a normalized bag holds at most one fact
            bi = block_of[fid]
            mass[bi] = mass.get(bi, 0) + bid.probs[fid]
        start.update((bi, b) for bi, m in mass.items() if m == total[bi])
        below[id(b)] = mass

    gates, probs, phi, invariant_probs = {}, {}, {}, {}

    def add(gid, t, *ins, p=None):
        gates[gid] = (t, ins)
        if p is not None:
            probs[gid] = p
        return gid

    for bi in range(len(blocks)):
        if total[bi] == 1:
            g_root = add(("bid", bi, "root"), "and")  # constant 1
        else:
            g_root = add(("bid", bi, "root"), "inp", p=total[bi])
        stack = [(start[bi], g_root)]  # (bag, its gate), parents first
        while stack:
            b, g_in = stack.pop()
            nb = number[id(b)]
            wc = below[id(b)][bi]
            invariant_probs[g_in] = wc
            own = [f for f in b.facts if block_of[f] == bi]  # at most one
            rest = wc - sum(bid.probs[f] for f in own)
            cond = g_in
            for f in own:
                phi[f] = g_in
                if rest:
                    gh = add(("bid", bi, nb, "h"), "inp", p=bid.probs[f] / wc)
                    phi[f] = add(("bid", bi, nb, "sel"), "and", gh, g_in)
                    ngh = add(("bid", bi, nb, "nh"), "not", gh)
                    cond = add(("bid", bi, nb, "rest"), "and", g_in, ngh)
            if rest:
                kids = [c for c in b.children if bi in below[id(c)]]
                if len(kids) == 1:
                    stack.append((kids[0], cond))
                else:
                    wl = below[id(kids[0])][bi]
                    sw = add(("bid", bi, nb, "sw"), "inp", p=wl / rest)
                    nsw = add(("bid", bi, nb, "nsw"), "not", sw)
                    gl = add(("bid", bi, nb, "L"), "and", cond, sw)
                    gr = add(("bid", bi, nb, "R"), "and", cond, nsw)
                    stack += [(kids[1], gr), (kids[0], gl)]

    circuit = Circuit("bool", gates, add(("truegate",), "and"))
    pcc = PCCInstance(bid.instance, circuit, phi, probs)
    pcc.invariant_probs = invariant_probs
    return pcc


def query_probability_bid(query, bid, k=None):
    """Exact probability of a UCQ (or of a Boolean automaton over KFact
    labels) on a BID instance; k bounds the width of the instance's
    tree decomposition."""
    _check_arities(query, bid.instance.signature)
    return _with_step(query, lambda step: _bid_dp(step, bid, k))


def _bid_dp(step, bid, k):
    """Bottom-up run of the determinised automaton step (see
    `_with_step`) over the instance's own tree encoding, summing integer
    world weights per state.

    Each block B is scaled by d_B, the lcm of its denominators, so a
    fact weighs a_f = p_f * d_B.  A fact node branches on its label
    (present) and on the neutered label (absent).  A one-fact block
    weighs its absent branch d_B - a_f.  A block of several facts is
    tracked in the message key as "chosen below", two children that
    both chose it are dropped, and at the top of the subtree of bags
    holding its key elements the unchosen entries take d_B - sum a_f.
    The automaton must be deterministic here: summing the runs of a
    nondeterministic one would count a world once per accepting run.
    """
    enc = _encoded(bid.instance, k)
    parent = parents(enc.root)
    scale = 1
    branch_weights = {}  # fact id -> (present weight, absent weight, bit)
    closings = {}  # id(node) -> [(bit, weight of "none chosen")]
    multi = 0  # blocks of several facts so far, one bit each
    for block, facts in bid.blocks().items():
        d = 1
        for f in facts:
            d = math.lcm(d, bid.probs[f.id].denominator)
        scale *= d
        a = {f.id: int(bid.probs[f.id] * d) for f in facts}
        if len(facts) == 1:
            fid = facts[0].id
            branch_weights[fid] = (a[fid], d - a[fid], 0)
            continue
        bit = 1 << multi
        multi += 1
        for f in facts:
            branch_weights[f.id] = (a[f.id], 1, bit)
        key_elems = set(block[1])
        top = enc.fact_nodes[facts[0].id]
        while top in parent and key_elems <= enc.node_bag[
                id(parent[top])].dom:
            top = parent[top]
        closings.setdefault(id(top), []).append((bit, d - sum(a.values())))

    messages = {}  # id(node) -> {(state, chosen bits): weight}
    for n in enc.nodes():
        if n.is_leaf():
            below = {(None, None, 0): 1}
        else:
            below = {}
            right = messages.pop(id(n.right)).items()
            for (q1, c1), w1 in messages.pop(id(n.left)).items():
                for (q2, c2), w2 in right:
                    if not c1 & c2:
                        key = (q1, q2, c1 | c2)
                        below[key] = below.get(key, 0) + w1 * w2
        fid = enc.node_fact.get(id(n))
        if fid is None:
            branches = ((n.label, 1, 0),)
        else:
            present, absent, bit = branch_weights[fid]
            branches = ((n.label, present, bit),
                        (n.label.neuter(), absent, 0))
        out = {}
        for label, bw, bit in branches:
            if not bw:
                continue
            for (q1, q2, c), w in below.items():
                if c & bit:
                    continue
                qs = step.iota(label) if q1 is None else \
                    step.delta(q1, q2, label)
                for q in qs:  # at most one: the automaton is deterministic
                    key = (q, c | bit)
                    out[key] = out.get(key, 0) + w * bw
        for bit, none in closings.get(id(n), ()):
            closed = {}
            for (q, c), w in out.items():
                if not c & bit:
                    w *= none
                if w:
                    key = (q, c & ~bit)
                    closed[key] = closed.get(key, 0) + w
            out = closed
        messages[id(n)] = out
    total = sum(w for (q, _), w in messages[id(enc.root)].items()
                if step.is_final(q))
    return Fraction(total, scale)


# ---------------------------------------------------------------------------
# Counting


def _count_rel(var):
    return ("Cnt", var)


_COUNTING = weakref.WeakKeyDictionary()  # Instance -> {free: (facts, BID)}


def count_matches(q, instance, k=None):
    """|{a-bar : I |= q(a-bar)}| via the BID reduction: one uniform
    block per free variable, probability times |dom|^{free}."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    _check_arities(q, instance.signature)
    free = tuple(q.free)
    dom = instance.domain
    if free and not dom:
        return 0

    def counting_bid():
        sig = dict(instance.signature)
        key_positions = {r: tuple(range(a)) for r, a in sig.items()}
        facts = list(instance.facts)
        probs = {f.id: Fraction(1) for f in instance.facts}
        n = 0
        for x in free:
            rel = _count_rel(x)
            sig[rel] = 1
            key_positions[rel] = ()  # one block for the whole table
            for a in dom:
                n += 1
                fid = ("cnt", n)
                facts.append(Fact(rel, (a,), fid))
                probs[fid] = Fraction(1, len(dom))
        return BIDInstance(Instance(sig, facts), key_positions, probs)

    bid = _kept(_COUNTING, instance, free, counting_bid)
    q2 = UCQ(tuple(CQ(d.atoms + tuple(Atom(_count_rel(x), (x,))
                                      for x in free), d.diseqs)
                   for d in q.disjuncts))
    pr = query_probability_bid(q2, bid, k)
    count = pr * Fraction(len(dom)) ** len(free)
    if count.denominator != 1:
        raise AssertionError("count came out non-integral: %s" % count)
    return int(count)


# ---------------------------------------------------------------------------
# JSON


def format_fraction(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def pc_to_json(pc):
    out = instance_to_json(pc.instance)
    for entry in out["facts"]:
        entry["cond"] = format_formula(pc.conds[entry["id"]])
    out["events"] = {e: format_fraction(p) for e, p in sorted(pc.events.items())}
    return out


def pc_from_json(data):
    instance = instance_from_json(data)
    conds = {}
    entries = data.get("facts", [])
    for i, (f, entry) in enumerate(zip(instance.facts, entries)):
        if "cond" in entry:
            if not isinstance(entry["cond"], str):
                raise ValueError("fact %d 'cond' is not a string" % (i + 1))
            conds[f.id] = parse_formula(entry["cond"])
    return PCInstance(instance, conds, data.get("events", {}))


def _json_fraction(data, key, where):
    """Fraction(`json_field(data, key, where)`), or ValueError naming it."""
    value = json_field(data, key, where)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError("%s %r is not a number or a fraction: %r"
                         % (where, key, value)) from None


def _json_events(events):
    """{event: Fraction} of an "events" JSON object, or ValueError."""
    if not isinstance(events, dict):
        raise ValueError("events is not a JSON object")
    return {e: _json_fraction(events, e, "events") for e in events}


def bid_to_json(bid):
    out = instance_to_json(bid.instance)
    for entry in out["facts"]:
        entry["prob"] = format_fraction(bid.probs[entry["id"]])
    out["key_positions"] = {r: list(v)
                            for r, v in sorted(bid.key_positions.items())}
    return out


def bid_from_json(data):
    instance = instance_from_json(data)
    probs = {}
    entries = data.get("facts", [])
    for i, (f, entry) in enumerate(zip(instance.facts, entries)):
        probs[f.id] = _json_fraction(entry, "prob", "fact %d" % (i + 1))
    keys = data.get("key_positions", {})
    if not isinstance(keys, dict) or not all(
            isinstance(v, list) and all(
                type(i) is int and 0 <= i < instance.signature.get(r, 0)
                for i in v) for r, v in keys.items()):
        raise ValueError("'key_positions' must map each relation to a "
                         "list of its argument positions")
    return BIDInstance(instance, keys, probs)


def pcc_to_json(pcc):
    cjson = circuit_to_json(pcc.circuit)
    idx = {g: i for i, g in enumerate(pcc.circuit.topo_order())}
    return {
        "instance": instance_to_json(pcc.instance),
        "circuit": cjson,
        "phi": [{"fact": fid, "gate": idx[g]} for fid, g in
                sorted(pcc.phi.items(), key=lambda kv: str(kv[0]))],
        "probs": [{"gate": idx[g], "prob": format_fraction(p)}
                  for g, p in sorted(pcc.probs.items(),
                                     key=lambda kv: str(kv[0]))],
    }


def pcc_from_json(data):
    instance = instance_from_json(json_field(data, "instance", "pcc"))
    circuit = circuit_from_json(json_field(data, "circuit", "pcc"))
    ids = _gate_ids(data["circuit"])
    phi = {json_field(e, "fact", "phi entry"): _gate_at(
        ids, json_field(e, "gate", "phi entry"), "phi entry 'gate'")
        for e in json_field(data, "phi", "pcc")}
    probs = {_gate_at(ids, json_field(e, "gate", "probs entry"),
                      "probs entry 'gate'"):
             _json_fraction(e, "prob", "probs entry")
             for e in json_field(data, "probs", "pcc")}
    return PCCInstance(instance, circuit, phi, probs)
