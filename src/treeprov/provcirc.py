"""Provenance circuits of tree automata on trees and of queries on
treelike instances.

For a (Gamma x {0,1})-automaton A and a Gamma-tree T, the Boolean
provenance circuit has one input per tree node and evaluates, under any
node valuation nu, to whether A accepts nu(T).  The N[X] variant sums,
over multiplicity valuations (optionally restricted to a total sum l),
the number of accepting runs times the product of node variables raised
to their multiplicities.

Gates are created per node only for automaton states reachable at that
node under some valuation, which keeps circuits linear in |T| for a
fixed automaton.
"""

import weakref

from .automata import EMPTY
from .circuits import Circuit
from .encoding import _encoded
from .errors import NotMonotone
from .relational import Bag, TreeDecomposition
from .trees import postorder

ALL = "all"


class ProvenanceResult:
    def __init__(self, circuit, input_map, decomposition):
        self.circuit = circuit
        self.input_map = dict(input_map)  # tree node id / fact id -> gate id
        self.decomposition = decomposition

    def __repr__(self):
        return "ProvenanceResult(%d gates)" % len(self.circuit.gates)


def _state_key(q):
    """Sort key of an automaton state that never compares two states
    directly: frozensets sort by their members' keys, tuples element by
    element, and other values by type name and repr."""
    if isinstance(q, frozenset):
        return (0, sorted(map(_state_key, q)))
    if isinstance(q, tuple):
        return (1, [_state_key(m) for m in q])
    return (2, type(q).__name__, repr(q))


class _StateKeys(dict):
    """`_state_key` of each state met, kept per automaton in `_KEPT`."""

    def __missing__(self, q):
        key = self[q] = _state_key(q)
        return key


def _in_order(states, keys):
    """The states one transition returns, in an order that does not
    depend on how they hash; keys is a `_StateKeys`."""
    return sorted(states, key=keys.__getitem__) if len(states) > 1 else \
        states


# automaton -> (its `_StateKeys`, its plans, its input-free leaves), for
# as long as the automaton lives (see `_bool_circuit`)
_KEPT = weakref.WeakKeyDictionary()


def _bool_circuit(automaton, nodes, name_of, labels, monotone=False):
    """Boolean provenance circuit of a bNTA on a tree, given as its
    nodes in postorder, and its decomposition of the same skeleton, in
    one pass.

    labels(tau) gives the automaton labels a node labelled tau reads on
    0 and on 1, such as ((tau, 0), (tau, 1)) for a (Gamma x {0,1})-bNTA.
    Node n reads the input gate name_of[id(n)]; a node with no name
    reads the constant 1, so only its transitions on 1 are followed.
    and/or gates fold the constant 1 (None below) and repeated inputs as
    they are built, and an OR of many inputs is a chain, so every gate
    has fan-in 2.  Gate ids number each node's states in first-seen
    order, with the states of one transition taken in `_state_key`
    order, so the circuit does not depend on how states hash.  The bag
    of a node holds its own gates and its children's state gates.

    If the automaton has a `project`, each child's states are projected
    once per node, on the label read on 1 (it depends only on the
    label's domain); the gates of states that project alike are ORed
    into one gate, states that project to None are dropped, and only
    then are the two children's states paired, by `step`.  A child
    whose label domain lies inside the node's is not projected: its
    states bind only slots of its own domain, so they project to
    themselves (see `automata`).  Without a `project`, an automaton's
    step is its delta.

    What is read off the automaton's transitions alone is kept in
    `_KEPT`, weakly per automaton, across builds: each state's
    `_state_key`; per pair (s0, s1) of transition results, its plan, the
    states on both, on 1 only and on 0 only, each in `_state_key` order
    (a plan with states on 0 only refuses a monotone build each time it
    is used); and per label, the reach {state: None} of a leaf with no
    input, which gets no gate and an empty bag.  A plan and a leaf
    depend only on the states they are made of and their keys, so a
    build on a warm automaton emits what a cold one emits.  No reach
    dict is changed once made, as leaves share theirs.
    Returns (circuit, decomposition)."""
    project = automaton.project
    step = automaton.step
    keys, plans, leaves = _KEPT.setdefault(automaton,
                                           (_StateKeys(), {}, {}))
    last = len(nodes) - 1
    gates = {}
    reach = {}  # id(node) -> {state: gate, or None for 1}, first seen first
    bags = {}

    def add(gid, gtype, ins=()):
        gates[gid] = (gtype, ins)
        dom.append(gid)
        return gid

    def conj(gid, a, b):
        if a is None or a == b:
            return b
        if b is None:
            return a
        return add(gid, "and", (a, b))

    def disj(gid, ins):
        """OR of ins as a chain of fan-in-2 gates, the last one gid."""
        if len(ins) == 1:
            return ins[0]
        ins = list(dict.fromkeys(ins))
        if None in ins:
            return None
        acc = ins[0]
        for t in range(1, len(ins)):
            acc = add(gid if t == len(ins) - 1 else gid + (t,), "or",
                      (acc, ins[t]))
        return acc

    def follow(g, s0, s1, js):
        """At the node being built, send g (the children's part of a run,
        None at a leaf) to the states reached on reading 0 (s0) or 1
        (s1), by their plan; js numbers the child states in gate ids."""
        nonlocal neg
        plan = plans.get((s0, s1))
        if plan is None:
            plan = plans[(s0, s1)] = tuple(
                tuple(_in_order(s, keys)) for s in (s0 & s1, s1 - s0, s0 - s1))
        both, on1, on0 = plan
        if monotone and on0:
            raise NotMonotone("label %r reaches a state on 0 but not on 1"
                              % (tau,))
        for q in both:
            targets.setdefault(q, []).append(g)
        if on1:
            g1 = conj(("pi", i) + js, g, x)
            for q in on1:
                targets.setdefault(q, []).append(g1)
        if on0:
            if neg is None:
                neg = add(("ni", i), "not", (x,))
            g0 = conj(("pni", i) + js, g, neg)
            for q in on0:
                targets.setdefault(q, []).append(g0)

    def projected(states, side):
        """A child's {state: gate} as the node being built reads it."""
        groups = {}
        for q, g in states.items():
            p = project(q, l1)
            if p is not None:
                groups.setdefault(p, []).append(g)
        return {p: disj((side, i, j), gs)
                for j, (p, gs) in enumerate(groups.items())}

    for i, n in enumerate(nodes):
        tau = n.label
        l0, l1 = labels(tau)
        dom = []
        kids = []
        x = name_of.get(id(n))
        if x is None and n.is_leaf():
            here = leaves.get(l1)
            if here is None:
                here = leaves[l1] = dict.fromkeys(
                    _in_order(automaton.iota(l1), keys))
        else:
            if x is not None:
                add(x, "inp")
            neg = None
            targets = {}
            if n.is_leaf():
                follow(None, automaton.iota(l0), automaton.iota(l1), ())
            else:
                rl = reach.pop(id(n.left))
                rr = reach.pop(id(n.right))
                dom.extend(g for g in (*rl.values(), *rr.values())
                           if g is not None)
                if project is not None:
                    if not n.left.label.dom <= tau.dom:
                        rl = projected(rl, "ul")
                    if not n.right.label.dom <= tau.dom:
                        rr = projected(rr, "ur")
                for jl, (ql, gl) in enumerate(rl.items()):
                    for jr, (qr, gr) in enumerate(rr.items()):
                        s1 = step(ql, qr, l1)
                        s0 = EMPTY if x is None else step(ql, qr, l0)
                        if s0 or s1:
                            follow(conj(("p", i, jl, jr), gl, gr), s0, s1,
                                   (jl, jr))
                kids = [bags.pop(id(n.left)), bags.pop(id(n.right))]
            here = {q: disj(("q", i, j), lst)
                    for j, (q, lst) in enumerate(targets.items())}
        reach[id(n)] = here
        if i == last:
            finals = [g for q, g in here.items() if automaton.is_final(q)]
            out = disj(("out",), finals) if finals else \
                add(("out",), "or")
            if out is None:
                out = add(("out",), "and")
        bags[id(n)] = Bag(dom, kids)
    return (Circuit("bool", gates, out),
            TreeDecomposition(bags[id(nodes[-1])], normalized=True))


def _neutered(tau):
    """A fact node reads its label when its fact is present, else the
    neutered label, as `lift_boolean` does."""
    return tau.neuter(), tau


def bool_provenance_circuit(automaton, root, monotone=False):
    """Provenance circuit of a (Gamma x {0,1})-bNTA on a Gamma-tree, with
    input ("i", i) for the i-th node in postorder.

    The general variant negates a node's input where a transition needs
    it; the monotone variant emits a NOT-free circuit and raises
    NotMonotone if the transitions touched by the tree violate the
    inclusion conditions.
    """
    nodes = postorder(root)
    input_map = {id(n): ("i", i) for i, n in enumerate(nodes)}
    circuit, decomp = _bool_circuit(
        automaton, nodes, input_map, lambda tau: ((tau, 0), (tau, 1)),
        monotone)
    return ProvenanceResult(circuit, input_map, decomp)


def monotone_provenance_circuit(automaton, root):
    return bool_provenance_circuit(automaton, root, monotone=True)


def query_provenance_circuit(automaton, instance, k):
    """Boolean provenance of a query (given as a width-k encoding
    automaton) on a treelike instance: inputs are the fact ids; nodes
    encoding no fact are hardwired to 1.  Returns the result and the
    instance's encoding, which is built once per instance and k (see
    `encoding._encoded`) and shared with later calls: treat it as
    read-only."""
    enc = _encoded(instance, k)
    circuit, gate_decomp = _bool_circuit(automaton, enc.nodes(),
                                         enc.node_fact, _neutered)
    input_map = {fid: fid for fid in enc.node_fact.values()}
    return ProvenanceResult(circuit, input_map, gate_decomp), enc


def nx_provenance_circuit(automaton, root, l=ALL, p=1):
    """N[X] provenance circuit of a (Gamma x {0..p})-bNTA on a Gamma-tree,
    with input ("i", i) for the i-th node in postorder.

    l = ALL sums over all multiplicity valuations; an integer l restricts
    to valuations of total sum l.
    """
    nodes = postorder(root)
    input_map = {id(n): ("i", i) for i, n in enumerate(nodes)}
    circuit, decomp = _nx_circuit(automaton, nodes, input_map, l, p)
    return ProvenanceResult(circuit, input_map, decomp)


def _nx_circuit(automaton, nodes, name_of, l, p):
    """N[X] provenance circuit of a (Gamma x {0..p})-bNTA on a Gamma-tree,
    given as its nodes in postorder, and its decomposition of the same
    skeleton, in one pass.

    Node n reads the input gate name_of[id(n)] with multiplicity 0..p;
    a node with no name has multiplicity 0.  A node's states are keyed
    by the automaton state and m: with an integer l, the multiplicities
    summed below, at most l; with l = ALL, 0.  The constant 1 (None
    below) is folded as gates are built: x^0 is no gate and x^1 is x, a
    product with 1 is its other factor and a one-term sum is that term.
    A sum gets a gate for 1, or a copy of a repeated term, only where it
    needs one, as circuits have no repeated wires.  States are numbered
    as in `_bool_circuit`, so the circuit does not depend on how they
    hash.  The bag of a node holds its own gates and its children's
    state gates.  Returns (circuit, decomposition)."""
    restricted = l != ALL
    limit = l if restricted else p
    last = len(nodes) - 1
    gates = {}
    reach = {}  # id(node) -> {(state, m): gate or None}, first seen first
    bags = {}
    keys = _StateKeys()

    def add(gid, gtype, ins=()):
        gates[gid] = (gtype, ins)
        dom.append(gid)
        return gid

    def times(gid, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return add(gid, "mul", (a, b))

    def plus(gid, ins):
        if len(ins) == 1:
            return ins[0]
        wires = []
        for t, g in enumerate(ins):
            if g is None:
                g = add(gid + ("one", t), "mul")
            elif g in wires:
                g = add(gid + ("cp", t), "mul", (g,))
            wires.append(g)
        return add(gid, "add", tuple(wires))

    def power(j):
        """x^j at the node being built: for j >= 2, a product of x and
        j - 1 copies of it."""
        if j not in pows:
            while len(copies) < j:
                copies.append(add(("cp", i, len(copies) + 1), "mul", (x,)))
            pows[j] = add(("pow", i, j), "mul", tuple(copies[:j]))
        return pows[j]

    def send(g, states, m):
        for q in _in_order(states, keys):
            targets.setdefault((q, m if restricted else 0), []).append(g)

    for i, n in enumerate(nodes):
        tau = n.label
        dom = []
        x = name_of.get(id(n))
        pows, copies, top = {0: None, 1: x}, [x], 0
        if x is not None:
            add(x, "inp")
            top = min(p, limit)
        targets = {}
        if n.is_leaf():
            for ann in range(top + 1):
                states = automaton.iota((tau, ann))
                if states:
                    send(power(ann), states, ann)
            kids = []
        else:
            rl = reach.pop(id(n.left))
            rr = reach.pop(id(n.right))
            for jl, ((ql, l1), gl) in enumerate(rl.items()):
                for jr, ((qr, l2), gr) in enumerate(rr.items()):
                    moves = [(ann, automaton.delta(ql, qr, (tau, ann)))
                             for ann in range(min(top, limit - l1 - l2) + 1)]
                    moves = [(ann, states) for ann, states in moves if states]
                    if moves:
                        pair = times(("p", i, jl, jr), gl, gr)
                    for ann, states in moves:
                        send(times(("t", i, jl, jr, ann), pair, power(ann)),
                             states, l1 + l2 + ann)
            dom.extend(g for g in (*rl.values(), *rr.values())
                       if g is not None)
            kids = [bags.pop(id(n.left)), bags.pop(id(n.right))]
        reach[id(n)] = {key: plus(("q", i, j), lst)
                        for j, (key, lst) in enumerate(targets.items())}
        if i == last:
            finals = [g for (q, m), g in reach[id(n)].items()
                      if m == (l if restricted else 0)
                      and automaton.is_final(q)]
            out = plus(("out",), finals)
            if out is None:
                out = add(("out",), "mul")
        bags[id(n)] = Bag(dom, kids)
    return (Circuit("semiring", gates, out),
            TreeDecomposition(bags[id(nodes[-1])], normalized=True))
