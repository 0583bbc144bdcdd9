"""Probabilistic XML: mux/ind and event-formula (fie) documents,
left-child-right-sibling binarization, relational and pc encodings,
scope analysis, and probability evaluation by one automaton DP over
the binary mux/ind form, with one message per node if present and one
if absent.

Documents are unranked ordered labeled trees; probabilistic nodes carry
annotations on the edges to their children (rationals for mux/ind,
propositional formulas for fie).
"""

import functools
from fractions import Fraction

from .encoding import _PAD, KFact
from .errors import NoDecomposition
from .prob import (PCInstance, _check_arities, _with_step, format_formula,
                   formula_events, parse_formula)
from .relational import Fact, Instance, json_field
from .trees import Node, children, fold, postorder

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
        for e, p in self.events.items():
            if not 0 <= p <= 1:
                raise ValueError("event %s has probability %s, outside "
                                 "[0, 1]" % (e, p))
        for node in doc_nodes(root):
            if node.kind in ("mux", "ind") and not all(
                    0 <= p <= 1 for p, _ in node.children):
                raise ValueError("%s node %r has an edge probability "
                                 "outside [0, 1]" % (node.kind, node.label))
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
    if kind == "fie":
        raise ValueError("fie node %r: the binary form takes mux/ind "
                         "documents only" % node.label)
    if kind != "regular":  # Fraction edges; a mux drops those of 0
        kids = [(Fraction(p), c) for p, c in kids if kind == "ind" or p]
    if kind == "mux":
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
    with edge probabilities summing to exactly 1.  A fie node is refused
    with ValueError."""
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


def _formula_edges(nodes):
    """{id(child): its edge formula} over the children of the fie nodes
    among nodes; mux/ind edges carry probabilities, not formulas."""
    return {id(c): e for n in nodes if n.kind == "fie"
            for e, c in n.children}


# ---------------------------------------------------------------------------
# Scopes


def scope_width(doc):
    """Max over LCRS nodes of the number of events whose minimal
    covering subtree (over the nodes where the event occurs in the
    incoming-edge annotation) contains the node: the events that occur
    at or below the node, less those whose occurrences all lie below
    one of its children."""
    if not doc.events:
        return 0
    formula = _formula_edges(doc_nodes(doc.root))
    nodes = postorder(lcrs(doc.root))
    counts = {}  # id(node) -> {event: occurrences at or below it}
    for n in nodes:
        edge = None if n.label is None else formula.get(id(n.label[0]))
        c = {} if edge is None else dict.fromkeys(formula_events(edge), 1)
        for kid in children(n):
            for e, k in counts[id(kid)].items():
                c[e] = c.get(e, 0) + k
        counts[id(n)] = c
    total = counts[id(nodes[-1])]
    return max(sum(all(counts[id(kid)].get(e) != total[e]
                       for kid in children(n)) for e in counts[id(n)])
               for n in nodes)


# ---------------------------------------------------------------------------
# fie -> pc


def fie_to_pc(doc):
    """pc-encoding: the relational encoding of the document (fie nodes
    kept, labeled P_fie) where each P-fact is annotated with its
    parent-edge formula (1 if none); FC/NS facts are certain."""
    nodes = doc_nodes(doc.root)
    instance, label_fact = _encode(nodes)
    edge_of = _formula_edges(nodes)
    conds = {f: edge_of[n] for n, f in label_fact.items() if n in edge_of}
    return PCInstance(instance, conds, doc.events)


# ---------------------------------------------------------------------------
# Probability


# per slot s of a node: its FC and NS labels, and its children's slots,
# the two others of {1, 2, 3}
_BELOW = {s: (KFact(frozenset((s, a)), "FC", (s, a)),
              KFact(frozenset((a, b)), "NS", (a, b)), a, b)
          for s, a, b in ((1, 2, 3), (2, 1, 3), (3, 1, 2))}


@functools.lru_cache(maxsize=4096)
def _p_label(rel, s):
    """rel(s), or ({s},-) if rel is None; kept across calls, so that the
    automaton memos meet one object per label and its neutered form."""
    return KFact(frozenset((s,)), *((rel, (s,)) if rel else ()))


def _layout(root):
    """One walk of the binary form of a mux/ind document from its root;
    returns (per node in preorder, its P label and, if it has children,
    (FC label, NS label, weighted cases, denominator)), the
    signature, the joint width and the product of the denominators.

    The encoding has data width 1.  A node in slot s has a P node
    labelled P_label(s) if it is regular, else ({s},-): a choice node or
    binarization helper is in no world.  With children c1, c2 it has an
    FC node below it and an NS node below that, over the P nodes of c1
    and c2; empty leaves pad.  The root takes slot 1.  An ind edge a/d
    weighs a if kept and d - a if not; a mux's first child weighs a and
    its second d - a.  The signature is `fie_to_pc`'s on the fie form.

    The joint width is that of the fie form's cc-encoding with presence
    gates, which `k` bounds: with u = "below a choice node", the largest
    of 1 + the gates of a child's P bag ([u] of its parent under a
    regular node, else 1 + 2[u]) and 2 + those of a node's NS bag
    ([u] + 2[mux]), less one."""
    signature = {"FC": 2, "NS": 2}
    widest, scale, nodes = 1, 1, []
    stack = [(root, 1, False)]  # (node, slot, u)
    while stack:
        node, s, under = stack.pop()
        regular = node.kind == "regular"
        rel = "P_%s" % node.label if regular else "P_fie"
        signature[rel] = 1
        label = _p_label(rel if regular else None, s)
        if not node.children:
            nodes.append((label, None))
            continue
        fc, ns, s1, s2 = _BELOW[s]
        (e1, c1), (e2, c2) = node.children
        # (message of c1 and of c2, 0 if present and 1 if not, weight)
        cases, den = ((0, 0, 1),), 1
        if node.kind == "mux":
            a, den = e1.numerator, e1.denominator
            cases = ((0, 1, a), (1, 0, den - a))
        elif not regular:
            (a1, d1), (a2, d2) = ((e.numerator, e.denominator)
                                  for e in (e1, e2))
            cases = ((0, 0, a1 * a2), (0, 1, a1 * (d2 - a2)),
                     (1, 0, (d1 - a1) * a2), (1, 1, (d1 - a1) * (d2 - a2)))
            den = d1 * d2
        scale *= den
        widest = max(widest, 2 + under + 2 * (node.kind == "mux"),
                     1 + (under if regular else 1 + 2 * under))
        nodes.append((label, (fc, ns, cases, den)))
        stack += [(c2, s2, under or not regular),
                  (c1, s1, under or not regular)]
    return nodes, signature, widest - 1, scale


def _up(step, cases, label, fc, ns, empty):
    """A P node's message from weighted pairs of its children's: NS
    steps each pair, then FC and the P node step beside an empty leaf."""
    below, out = {}, {}
    for m1, m2, w in cases:
        for q1, w1 in m1.items() if w else ():
            for q2, w2 in m2.items():
                for q in step.delta(q1, q2, ns):
                    below[q] = below.get(q, 0) + w * w1 * w2
    for q, w in below.items():
        for e in empty:
            for r in step.delta(q, e, fc):
                for t in step.delta(r, e, label):
                    out[t] = out.get(t, 0) + w
    return out


def _dp(step, nodes):
    """The determinised automaton step (see `_with_step`) run over
    `_layout`'s nodes, children first: each gets a message {state:
    integer weight} if it is in the world and one if it is not, where
    every label below is neutered.  Returns the accepted weight."""
    empty = step.iota(_PAD)
    leaves = {}  # label -> a leaf's messages, shared: none is changed
    done = []  # (present, absent) messages of finished nodes
    for label, below in reversed(nodes):
        if below is None:
            if label not in leaves:
                leaves[label] = ({q: 1 for q in step.iota(label)},
                                 {q: 1 for q in step.iota(label.neuter())})
            done.append(leaves[label])
            continue
        fc, ns, cases, den = below
        m1, m2 = done.pop(), done.pop()
        done.append((_up(step, [(m1[i], m2[j], w) for i, j, w in cases],
                         label, fc, ns, empty),
                     _up(step, ((m1[1], m2[1], den),), label.neuter(), fc,
                         ns, empty)))
    return sum(w for q, w in done[0][0].items() if step.is_final(q))


def prxml_query_probability(q, doc, k=None):
    """Probability that a random world of a mux/ind document satisfies
    the query.  A regular node's label fact P_label(n) holds iff the node
    is in the world; choice nodes are in no world and have no label fact
    (`fie_to_pc` gives them P_fie).  FC/NS are the certain facts of the
    document's binary form (`muxind_to_binary`), whose choice nodes and
    binarization helpers they link too.  `_layout` lays out its encoding
    in one walk, and `_dp` runs the query over it with two messages per
    node, no event and no gate.  k, if given, must be at least the joint
    width `_layout` reports, else NoDecomposition."""
    # the binary form of a valid document needs no check of its own
    nodes, signature, width, scale = _layout(_rebuild(doc.root,
                                                      _binary_node))
    _check_arities(q, signature)
    if k is not None and width > k:
        raise NoDecomposition(
            "the document's cc-encoding has data width %d and joint width "
            "%d, above the bound %d" % (min(len(nodes) - 1, 1), width, k))
    return Fraction(_with_step(q, lambda step: _dp(step, nodes)), scale)


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
    if not isinstance(data, dict):
        raise ValueError("document is not a JSON object")
    if "tree" in data:
        tree, events = data["tree"], data.get("events", {})
    else:
        tree, events = data, {}

    def conv(d, kids):
        kind = d.get("kind", "regular")
        edges, where = [], "%s edge" % kind
        for c in d.get("children", []):
            if kind in ("mux", "ind"):
                edges.append(Fraction(json_field(c, "prob", where)))
            elif kind == "fie":
                edges.append(parse_formula(json_field(c, "cond", where)))
            else:
                edges.append(None)
        return PrXMLNode(json_field(d, "label", "document node"), kind,
                         list(zip(edges, kids)))

    def children(d):
        if not isinstance(d, dict):
            raise ValueError("document node is not a JSON object")
        return [json_field(c, "node", "document edge")
                for c in d.get("children", [])]

    return PrXMLDoc(fold(tree, children, conv), events)
