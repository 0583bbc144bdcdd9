"""Probabilistic XML: mux/ind and event-formula (fie) documents,
left-child-right-sibling binarization, relational and pc encodings,
scope analysis, and probability evaluation by the pcc DP over a
cc-encoding read off the document in one walk.

Documents are unranked ordered labeled trees; probabilistic nodes carry
annotations on the edges to their children (rationals for mux/ind,
propositional formulas for fie).
"""

from fractions import Fraction

from .circuits import Circuit
from .encoding import KFact, TreeEncoding
from .errors import NoDecomposition
from .prob import (CCEncoding, PCInstance, _check_arities, _pcc_dp,
                   _with_step, format_formula, formula_events, parse_formula)
from .relational import Bag, Fact, Instance, TreeDecomposition
from .trees import Node, fold, preorder

BOT = "bot"  # padding label of the LCRS transform

KINDS = ("regular", "mux", "ind", "fie")


class PrXMLNode:
    """children is a list of (edge annotation, PrXMLNode); annotations
    are None under regular nodes, Fractions under mux/ind, formula ASTs
    under fie."""

    def __init__(self, label, kind="regular", children=()):
        if kind not in KINDS:
            raise ValueError("bad node kind %r" % kind)
        self.label = label
        self.kind = kind
        self.children = list(children)

    def __repr__(self):
        return "PrXMLNode(%r, %s, %d children)" % (
            self.label, self.kind, len(self.children))


class PrXMLDoc:
    def __init__(self, root, events=None):
        if root.kind != "regular":
            raise ValueError("the root must be a regular node")
        self.root = root
        self.events = {e: Fraction(p) for e, p in (events or {}).items()}
        for node in doc_nodes(root):
            if node.kind == "mux":
                if sum((p for p, _ in node.children), Fraction(0)) > 1:
                    raise ValueError("mux probabilities sum to more than 1")
            if node.kind == "fie":
                for phi, _ in node.children:
                    missing = formula_events(phi) - set(self.events)
                    if missing:
                        raise ValueError("undeclared events %s"
                                         % sorted(missing))


def doc_nodes(root):
    out = []
    stack = [root]
    while stack:
        n = stack.pop()
        out.append(n)
        for _, c in reversed(n.children):
            stack.append(c)
    return out  # preorder


# ---------------------------------------------------------------------------
# LCRS


def _doc_children(node):
    return [c for _, c in node.children]


def lcrs(root):
    """Binary full tree: left edge = first child, right edge = next
    sibling, completed with bot leaves.  Labels are (PrXMLNode, edge
    annotation) pairs, bot leaves are labeled None."""

    def chain(node, below):
        # node's left subtree: its children linked by right edges, built
        # from the last; below holds each child's own left subtree
        out = Node(None)
        for (edge, c), left in zip(reversed(node.children), reversed(below)):
            out = Node((c, edge), left, out)
        return out

    return Node((root, None), fold(root, _doc_children, chain), Node(None))


def unlcrs(tree):
    """Inverse transform (fresh PrXMLNode objects)."""

    def doc_children(node):
        out = []
        node = node.left
        while node.label is not None:
            out.append(node)
            node = node.right
        return out

    def make(node, kids):
        src, edge = node.label
        return edge, PrXMLNode(src.label, src.kind, kids)

    return fold(tree, doc_children, make)[1]


# ---------------------------------------------------------------------------
# Relational encoding of documents


def _label_rel(node):
    """A node's label relation: P_label, or P_kind for a choice node."""
    return "P_%s" % (node.label if node.kind == "regular" else node.kind)


def _encode(nodes):
    """The relational encoding of a document from its `doc_nodes`: node
    by node in preorder, its label fact (`_label_rel`), FC to its first
    child and NS between consecutive children, with elements named n1,
    n2, ... in order of first use and facts F1, F2, ...; returns
    (instance, {id(node): its label fact's id}), the latter in preorder."""
    sig = {"FC": 2, "NS": 2}
    facts = []
    names = {id(nodes[0]): "n1"}
    label_fact = {}

    def add(rel, *args):
        facts.append(Fact(rel, tuple([names[id(a)] for a in args]),
                          "F%d" % (len(facts) + 1)))

    for node in nodes:
        kids = [c for _, c in node.children]
        for c in kids:  # first used by the node's FC and NS facts
            names[id(c)] = "n%d" % (len(names) + 1)
        label_fact[id(node)] = "F%d" % (len(facts) + 1)
        rel = _label_rel(node)
        sig.setdefault(rel, 1)
        add(rel, node)
        if kids:
            add("FC", node, kids[0])
        for a, b in zip(kids, kids[1:]):
            add("NS", a, b)
    return Instance(sig, facts), label_fact


def xml_relational_encoding(root):
    """sigma_Lambda instance of a deterministic document: FC (first
    child), NS (next sibling), and one unary P_label fact per node."""
    return _encode(doc_nodes(root))[0]


# ---------------------------------------------------------------------------
# mux/ind documents: binary form and fie conversion


def _rebuild(root, make):
    """make(node, [(edge, converted child)]) on every node of a document,
    children first and left to right; returns the root's result."""
    return fold(root, _doc_children, lambda node, kids: make(node, [
        (e, c) for (e, _), c in zip(node.children, kids)]))


def _det():
    """An always-kept leaf, filling a missing child."""
    return PrXMLNode("det", "ind")


def _binary_node(node, kids):
    """Binary form of one node whose children kids are converted."""
    kind = node.kind
    if kind == "mux":
        kids = [(p, c) for p, c in kids if p > 0]
        total = sum((p for p, _ in kids), Fraction(0))
        if total < 1:
            kids.append((1 - total, _det()))
        if len(kids) > 2:
            # hierarchy: each level picks its head child with its
            # probability renormalized by the remaining mass
            head_p, head = kids[0]
            kids = [(head_p, head), (1 - head_p, _mux_chain(kids[1:],
                                                            1 - head_p))]
        elif len(kids) < 2:
            kind = "ind"
    elif len(kids) > 2:
        # hang all but the first child below a chain of det helpers,
        # keeping the original edge probabilities on the moved children
        kids = [kids[0], (Fraction(1) if kind == "ind" else None,
                          _spill_chain(kids[1:]))]
    if len(kids) == 1:
        kids.append((Fraction(1) if kind == "ind" else None, _det()))
    return PrXMLNode(node.label, kind, kids)


def _mux_chain(kids, mass):
    """Binary mux chain over kids (at least two), whose probabilities sum
    to mass > 0, built from the bottom up."""
    masses = []
    for p, _ in kids[:-2]:
        masses.append(mass)
        mass -= p
    (p1, c1), (p2, c2) = kids[-2:]
    node = PrXMLNode("mux", "mux", [(p1 / mass, c1), (p2 / mass, c2)])
    for (p, c), m in zip(reversed(kids[:-2]), reversed(masses)):
        node = PrXMLNode("mux", "mux", [(p / m, c), (1 - p / m, node)])
    return node


def _spill_chain(kids):
    """Chain of two-child det helpers over kids (at least two), each kid
    keeping its edge probability (1 under a regular parent)."""
    edges = [(e if e is not None else Fraction(1), c) for e, c in kids]
    node = PrXMLNode("det", "ind", edges[-2:])
    for edge in reversed(edges[:-2]):
        node = PrXMLNode("det", "ind", [edge, (Fraction(1), node)])
    return node


def muxind_to_binary(doc):
    """Equivalent document in binary form: full binary tree, every mux
    with edge probabilities summing to exactly 1."""
    return PrXMLDoc(_rebuild(doc.root, _binary_node), doc.events)


def muxind_to_fie(doc):
    """fie document equivalent to a binary-form mux/ind document: ind
    nodes get two fresh events, mux nodes one event e with edges e and
    not-e."""
    events = {}

    def fresh(p):
        e = "e%d" % (len(events) + 1)
        events[e] = Fraction(p)
        return e

    def conv(node, kids):
        if node.kind == "regular":
            return PrXMLNode(node.label, "regular", kids)
        if node.kind == "ind":
            return PrXMLNode(node.label, "fie",
                             [(("var", fresh(p)), c) for p, c in kids])
        if node.kind == "mux":
            if len(kids) != 2:
                raise ValueError("mux node not in binary form")
            (p1, c1), (_, c2) = kids
            e = fresh(p1)
            return PrXMLNode(node.label, "fie",
                             [(("var", e), c1), (("not", ("var", e)), c2)])
        raise ValueError("document already contains fie nodes")

    return PrXMLDoc(_rebuild(doc.root, conv), events)


# ---------------------------------------------------------------------------
# Scopes


def scope_width(doc):
    """Max over LCRS nodes of the number of events whose minimal
    covering subtree (over the nodes where the event occurs in the
    incoming-edge annotation) contains the node."""
    _, scopes = _scope_sets(doc)
    return max((len(s) for s in scopes.values()), default=0)


def _scope_sets(doc):
    """Per-LCRS-node event scopes; returns (tree, {id(node): set})."""
    tree = lcrs(doc.root)
    scopes = {}
    allnodes = preorder(tree)
    for e in doc.events:
        counts = {}
        total = 0
        for n in reversed(allnodes):  # children before parents
            c = 0
            if n.label is not None:
                _, edge = n.label
                if edge is not None and e in formula_events(edge):
                    c = 1
            if not n.is_leaf():
                c += counts[id(n.left)] + counts[id(n.right)]
            counts[id(n)] = c
        total = counts[id(tree)]
        if total == 0:
            continue
        # walk down to the LCA of all occurrences
        lca = tree
        while True:
            occ_here = False
            if lca.label is not None:
                _, edge = lca.label
                occ_here = edge is not None and e in formula_events(edge)
            if occ_here or lca.is_leaf():
                break
            below = [c for c in (lca.left, lca.right)
                     if counts[id(c)] == total]
            if not below:
                break
            lca = below[0]
        stack = [lca]
        while stack:
            n = stack.pop()
            if counts[id(n)] == 0 and n is not lca:
                continue
            scopes.setdefault(id(n), set()).add(e)
            if not n.is_leaf():
                stack.extend((n.left, n.right))
    return tree, scopes


# ---------------------------------------------------------------------------
# fie -> pc


def fie_to_pc(doc):
    """pc-encoding: the relational encoding of the document (fie nodes
    kept, labeled P_fie) where each P-fact is annotated with its
    parent-edge formula (1 if none); FC/NS facts are certain."""
    nodes = doc_nodes(doc.root)
    instance, label_fact = _encode(nodes)
    edge_of = {id(c): e for n in nodes if n.kind == "fie"
               for e, c in n.children}
    conds = {f: edge_of[n] for n, f in label_fact.items() if n in edge_of}
    return PCInstance(instance, conds, doc.events)


# ---------------------------------------------------------------------------
# Probability pipeline


def _presence_encoding(fie):
    """The arity-two pcc circuit and cc-encoding of a binary fie document
    (`muxind_to_fie` output), in one walk; returns (circuit, cc-encoding,
    input probabilities, signature, joint width).

    Gates: one input ("e", e) per event, one NOT ("n", e) per negated
    event, and per node a presence gate, true iff the node is in the
    world: the AND ("p", i) of its parent's presence and its edge
    literal.  The root and the children of regular nodes reuse their
    parent's presence (None: certain), and under a certain fie node a
    child's presence is its literal.

    Data: `fie_to_pc`'s facts (`_encode`) at width 1, less the label
    facts of fie nodes: a choice node or a binarization helper is in no
    world.  A node n is a P(n) node, whose chi is n's presence if n is
    regular and which holds no fact if n is a fie node; with children
    c1, c2 it has an FC(n,c1) node below it and an NS(c1,c2) node below
    that, whose children are the P nodes of c1 and c2, padded with empty
    leaves.  FC and NS facts are certain.  The signature is
    `fie_to_pc`'s, P_fie included.

    Circuit bags, same skeleton: a P(c) bag holds c's presence and the
    inputs it is formed from; FC(n,c1) and NS(c1,c2) carry n's presence,
    and NS also homes a mux's NOT beside its event.  So a bag holds at
    most 3 gates, and the joint width (data elements and gates of a
    node, less one) is at most 4."""
    gates = {}
    probs = {}
    signature = {"FC": 2, "NS": 2}
    chi = {}
    empty = KFact(frozenset())
    widest = 0  # largest data elements + gates of one node

    def label(rel, *slots):
        return KFact(frozenset(slots), rel, slots)

    def literal(edge):
        neg = edge[0] == "not"
        e = edge[1][1] if neg else edge[1]
        g = ("e", e)
        if g not in gates:
            gates[g] = ("inp", ())
            probs[g] = fie.events[e]
        if not neg:
            return g, ()
        gates["n", e] = ("not", (g,))
        return ("n", e), (g, ("n", e))

    done = []  # (P node, its bag) of each finished document node
    # (node, its slot, its presence, its P bag's gates, and once its
    # children are pushed, their slots and the FC and NS bags' gates)
    stack = [(fie.root, 1, None, (), None)]
    while stack:
        node, s, pres, own, below = stack.pop()
        if below is None and node.children:
            if len(node.children) != 2:
                raise ValueError("document not in binary form")
            s1, s2 = (x for x in (1, 2, 3) if x != s)
            carry = () if pres is None else (pres,)
            ns = set(carry)
            kids = []
            for (edge, c), sc in zip(node.children, (s1, s2)):
                if node.kind != "fie":
                    kids.append((c, sc, pres, carry, None))
                    continue
                g, homed = literal(edge)
                ns.update(homed)
                if pres is None:
                    kids.append((c, sc, g, (g,), None))
                else:
                    a = ("p", len(gates))
                    gates[a] = ("and", (pres, g))
                    kids.append((c, sc, a, (pres, g, a), None))
            stack.append((node, s, pres, own, (s1, s2, carry, ns)))
            stack.extend(reversed(kids))
            continue
        rel = _label_rel(node)
        signature[rel] = 1
        fact = label(rel, s) if node.kind == "regular" else \
            KFact(frozenset((s,)))
        widest = max(widest, 1 + len(own))
        if below is None:
            p, bag = Node(fact), Bag(own)
        else:
            s1, s2, carry, ns = below
            (n2, b2), (n1, b1) = done.pop(), done.pop()
            widest = max(widest, 2 + len(ns))  # ns holds carry
            fc = Node(label("FC", s, s1),
                      Node(label("NS", s1, s2), n1, n2), Node(empty))
            p = Node(fact, fc, Node(empty))
            bag = Bag(own, [Bag(carry, [Bag(ns, [b1, b2]), Bag(())]),
                            Bag(())])
        if pres is not None and fact.rel is not None:
            chi[id(p)] = pres
        done.append((p, bag))
    root, bag = done.pop()
    cc = CCEncoding(TreeEncoding(root, 0 if root.is_leaf() else 1),
                    TreeDecomposition(bag, normalized=True), chi)
    # no output gate: the query automaton reads the gates through chi
    return Circuit("bool", gates, None), cc, probs, signature, widest - 1


def prxml_query_probability(q, doc, k=None):
    """Probability that a random world of a mux/ind document satisfies
    the query.  A regular node's label fact P_label(n) holds iff the node
    is in the world; choice nodes are in no world and have no label fact
    (`fie_to_pc` gives them P_fie).  FC/NS are the certain facts of the
    document's binary fie form (`muxind_to_binary`, then
    `muxind_to_fie`), whose choice nodes and binarization helpers they
    link too.  `_pcc_dp` runs over the `_presence_encoding` of that form.
    k, if given, must be at least that encoding's joint width, else
    NoDecomposition."""
    circuit, cc, probs, signature, width = _presence_encoding(
        muxind_to_fie(muxind_to_binary(doc)))
    _check_arities(q, signature)
    if k is not None and width > k:
        raise NoDecomposition(
            "the document's cc-encoding has data width %d and joint width "
            "%d, above the bound %d" % (cc.encoding.k, width, k))
    return _with_step(q, lambda step: _pcc_dp(step, circuit, cc, probs))


# ---------------------------------------------------------------------------
# JSON


def _edge_to_json(kind, edge, node_json):
    out = {"node": node_json}
    if kind in ("mux", "ind") and edge is not None:
        out["prob"] = "%d/%d" % (edge.numerator, edge.denominator)
    elif kind == "fie":
        out["cond"] = format_formula(edge)
    return out


def doc_to_json(doc):
    def conv(node, kids):
        out = {"label": node.label}
        if node.kind != "regular":
            out["kind"] = node.kind
        if node.children:
            out["children"] = [_edge_to_json(node.kind, e, c)
                               for e, c in kids]
        return out

    out = {"tree": _rebuild(doc.root, conv)}
    if doc.events:
        out["events"] = {e: "%d/%d" % (p.numerator, p.denominator)
                         for e, p in sorted(doc.events.items())}
    return out


def doc_from_json(data):
    if "tree" in data:
        tree, events = data["tree"], data.get("events", {})
    else:
        tree, events = data, {}

    def conv(d, kids):
        kind = d.get("kind", "regular")
        edges = []
        for c in d.get("children", []):
            if kind in ("mux", "ind"):
                edges.append(Fraction(c["prob"]))
            elif kind == "fie":
                edges.append(parse_formula(c["cond"]))
            else:
                edges.append(None)
        return PrXMLNode(d["label"], kind, list(zip(edges, kids)))

    return PrXMLDoc(fold(tree, lambda d: [c["node"] for c in
                                          d.get("children", [])], conv),
                    events)
