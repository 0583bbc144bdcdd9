"""Probabilistic XML: mux/ind and event-formula (fie) documents,
left-child-right-sibling binarization, relational and pc encodings,
scope analysis, and probability evaluation through the pc pipeline.

Documents are unranked ordered labeled trees; probabilistic nodes carry
annotations on the edges to their children (rationals for mux/ind,
propositional formulas for fie).
"""

from fractions import Fraction

from .prob import (PCInstance, format_formula,
                   formula_events, parse_formula, pc_to_pcc,
                   query_probability_pcc)
from .relational import Fact, Instance
from .trees import Node

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


def lcrs(root):
    """Binary full tree: left edge = first child, right edge = next
    sibling, completed with bot leaves.  Labels are (PrXMLNode, edge
    annotation) pairs, bot leaves are labeled None."""

    def pad():
        return Node(None)

    def conv(seq):
        # seq: remaining (edge, node) siblings; rightmost first built
        if not seq:
            return pad()
        (edge, node), rest = seq[0], seq[1:]
        return Node((node, edge), conv(node.children), conv(rest))

    return Node((root, None), conv(root.children), pad())


def unlcrs(tree):
    """Inverse transform (fresh PrXMLNode objects)."""

    def siblings(node):
        out = []
        while node.label is not None:
            src, edge = node.label
            out.append((edge, PrXMLNode(src.label, src.kind,
                                        siblings(node.left))))
            node = node.right
        return out

    src, _ = tree.label
    return PrXMLNode(src.label, src.kind, siblings(tree.left))


# ---------------------------------------------------------------------------
# Relational encoding of deterministic documents


def _p_rel(label):
    return "P_%s" % label


def xml_relational_encoding(root):
    """sigma_Lambda instance of a document: FC (first child), NS (next
    sibling), and one unary P_label fact per node."""
    sig = {"FC": 2, "NS": 2}
    facts = []
    counter = [0]
    names = {}

    def name(node):
        if id(node) not in names:
            counter[0] += 1
            names[id(node)] = "n%d" % counter[0]
        return names[id(node)]

    nf = [0]

    def add(rel, args):
        nf[0] += 1
        facts.append(Fact(rel, args, "F%d" % nf[0]))

    for node in doc_nodes(root):
        rel = _p_rel(node.label)
        sig.setdefault(rel, 1)
        add(rel, (name(node),))
        kids = [c for _, c in node.children]
        if kids:
            add("FC", (name(node), name(kids[0])))
        for a, b in zip(kids, kids[1:]):
            add("NS", (name(a), name(b)))
    return Instance(sig, facts)


# ---------------------------------------------------------------------------
# mux/ind documents: binary form and fie conversion


def muxind_to_binary(doc):
    """Equivalent document in binary form: full binary tree, every mux
    with edge probabilities summing to exactly 1."""

    def det(children=()):
        return ("det", PrXMLNode("det", "ind",
                                 [(Fraction(1), c) for _, c in children]))

    def conv(node):
        kids = [(e, conv(c)) for e, c in node.children]
        kind = node.kind
        if kind == "mux":
            kids = [(p, c) for p, c in kids if p > 0]
            total = sum((p for p, _ in kids), Fraction(0))
            if total < 1:
                _, filler = det()
                kids = kids + [(1 - total, filler)]
            if len(kids) > 2:
                # hierarchy: each level picks its head child with its
                # probability renormalized by the remaining mass
                rest = Fraction(1)
                head_p, head = kids[0]
                tail = kids[1:]
                lower = _mux_chain(tail, rest - head_p)
                out = PrXMLNode(node.label, "mux",
                                [(head_p / rest, head),
                                 (1 - head_p / rest, lower)])
                kids = out.children
                kind = "mux"
            elif len(kids) < 2:
                kind = "ind"
        else:
            if len(kids) > 2:
                kids = [kids[0], _spill_chain(kids[1:], node.kind)]
            kids = list(kids)
        node2 = PrXMLNode(node.label, kind, kids)
        if len(node2.children) == 1:
            _, filler = det()
            edge = None
            if node2.kind in ("mux", "ind"):
                edge = (Fraction(1) - node2.children[0][0]
                        if node2.kind == "mux" else Fraction(1))
            node2.children.append((edge, filler))
        return node2

    def _mux_chain(kids, mass):
        # kids have probabilities summing to mass (> 0)
        if len(kids) == 2:
            (p1, c1), (p2, c2) = kids
            return PrXMLNode("mux", "mux",
                             [(p1 / mass, c1), (p2 / mass, c2)])
        (p1, c1), tail = kids[0], kids[1:]
        lower = _mux_chain(tail, mass - p1)
        return PrXMLNode("mux", "mux",
                         [(p1 / mass, c1), (1 - p1 / mass, lower)])

    def _spill_chain(kids, kind):
        # hang all but the first child of a regular/ind node below a
        # chain of det (always-kept ind) helpers, keeping the original
        # edge probabilities on the moved children
        edges = [(e if e is not None else Fraction(1), c) for e, c in kids]
        first, rest = edges[0], edges[1:]
        children = [first]
        if rest:
            children.append(_spill_chain(rest, "ind"))
        helper = PrXMLNode("det", "ind", children)
        return (Fraction(1) if kind == "ind" else None, helper)

    root = conv(doc.root)
    return PrXMLDoc(root, doc.events)


def muxind_to_fie(doc):
    """fie document equivalent to a binary-form mux/ind document: ind
    nodes get two fresh events, mux nodes one event e with edges e and
    not-e."""
    counter = [0]
    events = {}

    def fresh(p):
        counter[0] += 1
        e = "e%d" % counter[0]
        events[e] = Fraction(p)
        return e

    def conv(node):
        kids = [(e, conv(c)) for e, c in node.children]
        if node.kind == "regular":
            return PrXMLNode(node.label, "regular", kids)
        if node.kind == "ind":
            out = []
            for p, c in kids:
                out.append((("var", fresh(p)), c))
            return PrXMLNode(node.label, "fie", out)
        if node.kind == "mux":
            if len(kids) != 2:
                raise ValueError("mux node not in binary form")
            (p1, c1), (_, c2) = kids
            e = fresh(p1)
            return PrXMLNode(node.label, "fie",
                             [(("var", e), c1), (("not", ("var", e)), c2)])
        raise ValueError("document already contains fie nodes")

    root = conv(doc.root)
    return PrXMLDoc(root, events)


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

    def nodes(t):
        out = []
        stack = [t]
        while stack:
            n = stack.pop()
            out.append(n)
            if not n.is_leaf():
                stack.extend((n.left, n.right))
        return out

    allnodes = nodes(tree)
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
    sig = {"FC": 2, "NS": 2}
    facts = []
    conds = {}
    counter = [0]
    names = {}

    def name(node):
        if id(node) not in names:
            counter[0] += 1
            names[id(node)] = "n%d" % counter[0]
        return names[id(node)]

    nf = [0]

    def add(rel, args, cond=None):
        nf[0] += 1
        fid = "F%d" % nf[0]
        facts.append(Fact(rel, args, fid))
        if cond is not None:
            conds[fid] = cond

    def walk(node, edge):
        rel = _p_rel(node.label if node.kind == "regular" else node.kind)
        sig.setdefault(rel, 1)
        add(rel, (name(node),), edge if edge is not None else None)
        kids = node.children
        if kids:
            add("FC", (name(node), name(kids[0][1])))
        for (_, a), (_, b) in zip(kids, kids[1:]):
            add("NS", (name(a), name(b)))
        for e, c in kids:
            walk(c, e if node.kind == "fie" else None)

    walk(doc.root, None)
    return PCInstance(Instance(sig, facts), conds, doc.events)


# ---------------------------------------------------------------------------
# Probability pipeline


def prxml_query_probability(q, doc, k=None):
    """Probability that a random world's (weak) relational encoding
    satisfies the query, for a mux/ind document."""
    binary = muxind_to_binary(doc)
    fie = muxind_to_fie(binary)
    pc = fie_to_pc(fie)
    pcc = pc_to_pcc(pc)
    return query_probability_pcc(q, pcc, k)


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
    def conv(node):
        out = {"label": node.label}
        if node.kind != "regular":
            out["kind"] = node.kind
        if node.children:
            out["children"] = [_edge_to_json(node.kind, e, conv(c))
                               for e, c in node.children]
        return out

    out = {"tree": conv(doc.root)}
    if doc.events:
        out["events"] = {e: "%d/%d" % (p.numerator, p.denominator)
                         for e, p in sorted(doc.events.items())}
    return out


def doc_from_json(data):
    if "tree" in data:
        tree, events = data["tree"], data.get("events", {})
    else:
        tree, events = data, {}

    def conv(d):
        kind = d.get("kind", "regular")
        children = []
        for c in d.get("children", []):
            if kind in ("mux", "ind"):
                edge = Fraction(c["prob"])
            elif kind == "fie":
                edge = parse_formula(c["cond"])
            else:
                edge = None
            children.append((edge, conv(c["node"])))
        return PrXMLNode(d["label"], kind, children)

    return PrXMLDoc(conv(tree), events)
