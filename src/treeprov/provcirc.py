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

from .automata import lift_boolean, memoized
from .circuits import arity_two, fix_inputs, rename_inputs
from .circuits import Circuit
from .encoding import encode
from .errors import NotMonotone
from .relational import (Bag, TreeDecomposition, normalize_decomposition,
                         tree_decomposition)
from .trees import postorder

ALL = "all"


class ProvenanceResult:
    def __init__(self, circuit, input_map, decomposition, node_bag=None):
        self.circuit = circuit
        self.input_map = dict(input_map)  # tree node id / fact id -> gate id
        self.decomposition = decomposition
        self.node_bag = node_bag or {}  # id(tree node) -> Bag

    def __repr__(self):
        return "ProvenanceResult(%d gates)" % len(self.circuit.gates)


def _rewrite_bags(decomposition, rep, derived):
    """Port a gate decomposition through the arity-two rewrite."""

    def conv(bag):
        dom = set()
        for g in bag.dom:
            ids = derived.get(g)
            if ids is None:
                dom.add(g)
            elif ids:
                dom.update(ids)
            else:
                dom.add(rep[g])
        return Bag(dom, [conv(c) for c in bag.children], bag.facts)

    return TreeDecomposition(conv(decomposition.root),
                             normalized=decomposition.normalized)


def bool_provenance_circuit(automaton, root, monotone=False):
    """Provenance circuit of a (Gamma x {0,1})-bNTA on a Gamma-tree.

    The general variant uses a NOT-gate per node input; the monotone
    variant emits a NOT-free circuit and raises NotMonotone if the
    transitions touched by the tree violate the inclusion conditions.
    """
    nodes = postorder(root)
    nid = {id(n): i for i, n in enumerate(nodes)}
    gates = {}
    reach = {}
    input_map = {}
    node_gates = {}  # id(node) -> all gate ids of that node

    def add(gid, gtype, ins=()):
        gates[gid] = (gtype, tuple(ins))
        return gid

    for n in nodes:
        i = nid[id(n)]
        tau = n.label
        own = []
        gi = add(("i", i), "inp")
        own.append(gi)
        input_map[id(n)] = gi
        if not monotone:
            gni = add(("ni", i), "not", (gi,))
            own.append(gni)
        or_lists = {}
        if n.is_leaf():
            s0 = automaton.iota((tau, 0))
            s1 = automaton.iota((tau, 1))
            if monotone and not s0 <= s1:
                raise NotMonotone("leaf label %r" % (tau,))
            for q in s0 | s1:
                lst = or_lists.setdefault(q, [])
                if monotone:
                    if q in s0:
                        one = add(("one", i, q), "and")
                        own.append(one)
                        lst.append(one)
                    else:
                        lst.append(gi)
                else:
                    if q in s1:
                        lst.append(gi)
                    if q in s0:
                        lst.append(gni)
        else:
            rl = reach[id(n.left)]
            rr = reach[id(n.right)]
            for ql in rl:
                for qr in rr:
                    d0 = automaton.delta(ql, qr, (tau, 0))
                    d1 = automaton.delta(ql, qr, (tau, 1))
                    if not (d0 or d1):
                        continue
                    if monotone and not d0 <= d1:
                        raise NotMonotone("transition at label %r" % (tau,))
                    pair = add(("p", i, ql, qr), "and",
                               (("q", nid[id(n.left)], ql),
                                ("q", nid[id(n.right)], qr)))
                    own.append(pair)
                    if monotone:
                        for q in d0:
                            or_lists.setdefault(q, []).append(pair)
                        extra = d1 - d0
                        if extra:
                            pi = add(("pi", i, ql, qr), "and", (pair, gi))
                            own.append(pi)
                            for q in extra:
                                or_lists.setdefault(q, []).append(pi)
                    else:
                        if d1:
                            pi = add(("pi", i, ql, qr), "and", (pair, gi))
                            own.append(pi)
                            for q in d1:
                                or_lists.setdefault(q, []).append(pi)
                        if d0:
                            pni = add(("pni", i, ql, qr), "and", (pair, gni))
                            own.append(pni)
                            for q in d0:
                                or_lists.setdefault(q, []).append(pni)
        for q, lst in or_lists.items():
            own.append(add(("q", i, q), "or", lst))
        reach[id(n)] = frozenset(or_lists)
        node_gates[id(n)] = own

    out = ("out",)
    add(out, "or", [("q", nid[id(root)], q)
                    for q in sorted(reach[id(root)], key=repr)
                    if automaton.is_final(q)])
    circuit = Circuit("bool", gates, out)

    # decomposition: one bag per node with its gates plus the children's
    # state gates; same skeleton as the tree
    def build_bag(n):
        dom = set(node_gates[id(n)])
        kids = []
        if not n.is_leaf():
            for c in (n.left, n.right):
                dom.update(("q", nid[id(c)], q) for q in reach[id(c)])
                kids.append(build_bag(c))
        if n is root:
            dom.add(out)
        return Bag(dom, kids)

    decomp = TreeDecomposition(build_bag(root), normalized=True)
    circuit2, rep, derived = arity_two(circuit)
    decomp2 = _rewrite_bags(decomp, rep, derived)
    input_map = {k: rep[v] for k, v in input_map.items()}
    node_bag = {}
    stack = [(decomp2.root, root)]
    while stack:
        bag, n = stack.pop()
        node_bag[id(n)] = bag
        if not n.is_leaf():
            stack.append((bag.children[0], n.left))
            stack.append((bag.children[1], n.right))
    return ProvenanceResult(circuit2, input_map, decomp2, node_bag)


def monotone_provenance_circuit(automaton, root):
    return bool_provenance_circuit(automaton, root, monotone=True)


def name_inputs(res, name_of):
    """The circuit of a provenance result on a tree, with the input of
    each node that has a name (name_of: id(node) -> name) renamed to it
    and every other input fixed to 1.  Returns the circuit and the map
    from old input gate ids to names."""
    rename = {}
    fixed = {}
    for node_id, gate in res.input_map.items():
        name = name_of.get(node_id)
        if name is not None:
            rename[gate] = name
        else:
            fixed[gate] = 1
    return fix_inputs(rename_inputs(res.circuit, rename), fixed), rename


def query_provenance_circuit(automaton, instance, k):
    """Boolean provenance of a query (given as a width-k encoding
    automaton) on a treelike instance: inputs are the fact ids; nodes
    encoding no fact are hardwired to 1."""
    decomp = tree_decomposition(instance, k)
    enc = encode(instance, normalize_decomposition(decomp))
    lifted = memoized(lift_boolean(automaton))
    res = bool_provenance_circuit(lifted, enc.root)
    circuit, rename = name_inputs(res, enc.node_fact)

    def conv(bag):
        return Bag({rename.get(g, g) for g in bag.dom},
                   [conv(c) for c in bag.children], bag.facts)

    decomp2 = TreeDecomposition(conv(res.decomposition.root), normalized=True)
    input_map = {fid: fid for fid in rename.values()}
    node_bag = {}
    stack = [(decomp2.root, enc.root)]
    while stack:
        bag, n = stack.pop()
        node_bag[id(n)] = bag
        if not n.is_leaf():
            stack.append((bag.children[0], n.left))
            stack.append((bag.children[1], n.right))
    return ProvenanceResult(circuit, input_map, decomp2, node_bag), enc


def nx_provenance_circuit(automaton, root, l=ALL, p=1, ann_caps=None):
    """N[X] provenance circuit of a (Gamma x {0..p})-bNTA on a Gamma-tree.

    l = ALL sums over all multiplicity valuations; an integer l restricts
    to valuations of total sum l.  ann_caps optionally lowers, per node,
    the largest multiplicity considered (callers may use it when larger
    multiplicities provably contribute nothing).
    """
    restricted = l != ALL
    l0 = l if restricted else None
    nodes = postorder(root)
    nid = {id(n): i for i, n in enumerate(nodes)}
    gates = {}
    input_map = {}
    reach = {}
    node_gates = {}

    def add(gid, gtype, ins=()):
        gates[gid] = (gtype, tuple(ins))
        return gid

    def cap_of(n):
        c = p
        if ann_caps is not None:
            c = min(c, ann_caps.get(id(n), p))
        if restricted:
            c = min(c, l0)
        return c

    pow_built = {}

    def ipow(n, j):
        """Gate capturing the node's input raised to the j-th power,
        through unary pass-through copies (circuits are simple graphs)."""
        i = nid[id(n)]
        key = (i, j)
        if key in pow_built:
            return pow_built[key]
        copies = []
        for t in range(1, j + 1):
            cp = ("cp", i, t)
            if cp not in gates:
                add(cp, "mul", (("i", i),))
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
        gi = add(("i", i), "inp")
        node_gates[id(n)].append(gi)
        input_map[id(n)] = gi
        cap = cap_of(n)
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

    decomp = TreeDecomposition(build_bag(root), normalized=True)
    return ProvenanceResult(circuit, input_map, decomp)
