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

from .automata import EMPTY, lift_boolean, memoized
from .circuits import Circuit
from .encoding import encode
from .errors import NotMonotone
from .relational import (Bag, TreeDecomposition, normalize_decomposition,
                         tree_decomposition)
from .trees import postorder

ALL = "all"


class ProvenanceResult:
    def __init__(self, circuit, input_map, decomposition):
        self.circuit = circuit
        self.input_map = dict(input_map)  # tree node id / fact id -> gate id
        self.decomposition = decomposition

    def __repr__(self):
        return "ProvenanceResult(%d gates)" % len(self.circuit.gates)


def _bool_circuit(automaton, root, name_of, monotone=False):
    """Boolean provenance circuit of a (Gamma x {0,1})-bNTA on a
    Gamma-tree and its decomposition of the same skeleton, in one pass.

    Node n reads the input gate name_of[id(n)]; a node with no name
    reads the constant 1, so only its (tau, 1) transitions are followed.
    and/or gates fold the constant 1 (None below) and repeated inputs as
    they are built, and an OR of many inputs is a chain, so every gate
    has fan-in 2.  Gate ids number each node's states in first-seen
    order, so the circuit does not depend on how states hash.  The bag
    of a node holds its own gates and its children's state gates.
    Returns (circuit, decomposition)."""
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
        (s1); js numbers the child states in gate ids."""
        nonlocal neg
        if monotone and not s0 <= s1:
            raise NotMonotone("label %r reaches a state on 0 but not on 1"
                              % (tau,))
        for q in s0 & s1:
            targets.setdefault(q, []).append(g)
        if s1 - s0:
            g1 = conj(("pi", i) + js, g, x)
            for q in s1 - s0:
                targets.setdefault(q, []).append(g1)
        if s0 - s1:
            if neg is None:
                neg = add(("ni", i), "not", (x,))
            g0 = conj(("pni", i) + js, g, neg)
            for q in s0 - s1:
                targets.setdefault(q, []).append(g0)

    for i, n in enumerate(postorder(root)):
        tau = n.label
        dom = []
        x = name_of.get(id(n))
        if x is not None:
            add(x, "inp")
        neg = None
        targets = {}
        if n.is_leaf():
            s1 = automaton.iota((tau, 1))
            s0 = EMPTY if x is None else automaton.iota((tau, 0))
            follow(None, s0, s1, ())
            kids = []
        else:
            rl = reach.pop(id(n.left))
            rr = reach.pop(id(n.right))
            for jl, (ql, gl) in enumerate(rl.items()):
                for jr, (qr, gr) in enumerate(rr.items()):
                    s1 = automaton.delta(ql, qr, (tau, 1))
                    s0 = EMPTY if x is None else \
                        automaton.delta(ql, qr, (tau, 0))
                    if s0 or s1:
                        follow(conj(("p", i, jl, jr), gl, gr), s0, s1,
                               (jl, jr))
            dom.extend(g for g in (*rl.values(), *rr.values())
                       if g is not None)
            kids = [bags.pop(id(n.left)), bags.pop(id(n.right))]
        reach[id(n)] = {q: disj(("q", i, j), lst)
                        for j, (q, lst) in enumerate(targets.items())}
        if n is root:
            finals = [g for q, g in reach[id(n)].items()
                      if automaton.is_final(q)]
            out = disj(("out",), finals) if finals else \
                add(("out",), "or")
            if out is None:
                out = add(("out",), "and")
        bags[id(n)] = Bag(dom, kids)
    return (Circuit("bool", gates, out),
            TreeDecomposition(bags[id(root)], normalized=True))


def bool_provenance_circuit(automaton, root, monotone=False):
    """Provenance circuit of a (Gamma x {0,1})-bNTA on a Gamma-tree, with
    input ("i", i) for the i-th node in postorder.

    The general variant negates a node's input where a transition needs
    it; the monotone variant emits a NOT-free circuit and raises
    NotMonotone if the transitions touched by the tree violate the
    inclusion conditions.
    """
    input_map = {id(n): ("i", i) for i, n in enumerate(postorder(root))}
    circuit, decomp = _bool_circuit(automaton, root, input_map, monotone)
    return ProvenanceResult(circuit, input_map, decomp)


def monotone_provenance_circuit(automaton, root):
    return bool_provenance_circuit(automaton, root, monotone=True)


def query_provenance_circuit(automaton, instance, k):
    """Boolean provenance of a query (given as a width-k encoding
    automaton) on a treelike instance: inputs are the fact ids; nodes
    encoding no fact are hardwired to 1."""
    decomp = tree_decomposition(instance, k)
    enc = encode(instance, normalize_decomposition(decomp))
    lifted = memoized(lift_boolean(automaton))
    circuit, gate_decomp = _bool_circuit(lifted, enc.root, enc.node_fact)
    input_map = {fid: fid for fid in enc.node_fact.values()}
    return ProvenanceResult(circuit, input_map, gate_decomp), enc


def nx_provenance_circuit(automaton, root, l=ALL, p=1):
    """N[X] provenance circuit of a (Gamma x {0..p})-bNTA on a Gamma-tree,
    with input ("i", i) for the i-th node in postorder.

    l = ALL sums over all multiplicity valuations; an integer l restricts
    to valuations of total sum l.
    """
    input_map = {id(n): ("i", i) for i, n in enumerate(postorder(root))}
    circuit, decomp = _nx_circuit(automaton, root, input_map, l, p)
    return ProvenanceResult(circuit, input_map, decomp)


def _nx_circuit(automaton, root, name_of, l, p):
    """The N[X] circuit and its decomposition of the same skeleton, where
    node n reads the input gate name_of[id(n)]; a node with no name has
    multiplicity 0 and no input gate."""
    restricted = l != ALL
    l0 = l if restricted else None
    nodes = postorder(root)
    nid = {id(n): i for i, n in enumerate(nodes)}
    gates = {}
    reach = {}
    node_gates = {}

    def add(gid, gtype, ins=()):
        gates[gid] = (gtype, tuple(ins))
        return gid

    pow_built = {}

    def ipow(n, j):
        """Gate capturing the node's input raised to the j-th power,
        through unary pass-through copies (circuits are simple graphs)."""
        i = nid[id(n)]
        key = (i, j)
        if key in pow_built:
            return pow_built[key]
        for t in range(1, j + 1):
            cp = ("cp", i, t)
            if cp not in gates:
                add(cp, "mul", (name_of[id(n)],))
                node_gates[id(n)].append(cp)
        g = add(("ipow", i, j), "mul",
                tuple(("cp", i, t) for t in range(1, j + 1)))
        node_gates[id(n)].append(g)
        pow_built[key] = g
        return g

    for n in nodes:
        i = nid[id(n)]
        tau = n.label
        node_gates[id(n)] = []
        cap = 0
        if id(n) in name_of:
            node_gates[id(n)].append(add(name_of[id(n)], "inp"))
            cap = min(p, l0) if restricted else p
        or_lists = {}
        if n.is_leaf():
            for ann in range(0, cap + 1):
                for q in automaton.iota((tau, ann)):
                    key = (q, ann) if restricted else q
                    or_lists.setdefault(key, []).append(ipow(n, ann))
        else:
            rl = reach[id(n.left)]
            rr = reach[id(n.right)]
            pair_built = {}
            for sl in rl:
                for sr in rr:
                    if restricted:
                        (ql, l1), (qr, l2) = sl, sr
                        if l1 + l2 > l0:
                            continue
                    else:
                        ql, qr = sl, sr
                    for ann in range(0, cap + 1):
                        if restricted and l1 + l2 + ann > l0:
                            break
                        targets = automaton.delta(ql, qr, (tau, ann))
                        if not targets:
                            continue
                        pk = (sl, sr)
                        pair = pair_built.get(pk)
                        if pair is None:
                            pair = add(("p", i, sl, sr), "mul",
                                       (("q", nid[id(n.left)], sl),
                                        ("q", nid[id(n.right)], sr)))
                            node_gates[id(n)].append(pair)
                            pair_built[pk] = pair
                        term = add(("t", i, sl, sr, ann), "mul",
                                   (pair, ipow(n, ann)))
                        node_gates[id(n)].append(term)
                        for q in targets:
                            key = (q, l1 + l2 + ann) if restricted else q
                            or_lists.setdefault(key, []).append(term)
        for key, lst in or_lists.items():
            node_gates[id(n)].append(add(("q", i, key), "add", lst))
        reach[id(n)] = frozenset(or_lists)

    out = ("out",)
    finals = []
    for key in sorted(reach[id(root)], key=repr):
        q = key[0] if restricted else key
        if restricted and key[1] != l0:
            continue
        if automaton.is_final(q):
            finals.append(("q", nid[id(root)], key))
    add(out, "add", finals)
    circuit = Circuit("semiring", gates, out)

    def build_bag(n):
        dom = set(node_gates[id(n)])
        kids = []
        if not n.is_leaf():
            for c in (n.left, n.right):
                dom.update(("q", nid[id(c)], key) for key in reach[id(c)])
                kids.append(build_bag(c))
        if n is root:
            dom.add(out)
        return Bag(dom, kids)

    return circuit, TreeDecomposition(build_bag(root), normalized=True)
