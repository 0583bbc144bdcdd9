"""Brute-force oracles: the ground truth the tests check the pipeline
against.  Possible worlds enumerate every input valuation, block choice
or document world; the structural oracles search every run, element
mapping or assignment, or check a decomposition against its circuit."""

import itertools
from fractions import Fraction

from treeprov.circuits import Circuit, eval_bool
from treeprov.encoding import INVALID
from treeprov.prob import eval_formula, format_formula
from treeprov.relational import make_instance, subinstance
from treeprov.trees import postorder


def brute_force_prob(circuit, probs):
    """Pr[output = 1], summed over all input valuations."""
    inputs = sorted(circuit.inputs(), key=repr)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        nu = dict(zip(inputs, bits))
        w = Fraction(1)
        for g, b in nu.items():
            w *= probs[g] if b else 1 - probs[g]
        if w and eval_bool(circuit, nu):
            total += w
    return total


def pcc_worlds(pcc):
    """(world instance, probability) per input valuation."""
    inputs = sorted(pcc.circuit.inputs(), key=repr)
    out = []
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        nu = dict(zip(inputs, bits))
        w = Fraction(1)
        for g, b in nu.items():
            w *= pcc.probs[g] if b else 1 - pcc.probs[g]
        if not w:
            continue
        val = {}
        for f in pcc.instance.facts:
            sub = Circuit("bool", pcc.circuit.gates, pcc.phi[f.id])
            val[f.id] = eval_bool(sub, nu)
        out.append((subinstance(pcc.instance, val), w))
    return out


def pc_worlds(pc):
    """(world instance, probability) per event valuation."""
    events = sorted(pc.events)
    out = []
    for bits in itertools.product((0, 1), repeat=len(events)):
        asg = dict(zip(events, bits))
        w = Fraction(1)
        for e, b in asg.items():
            w *= pc.events[e] if b else 1 - pc.events[e]
        if not w:
            continue
        val = {f.id: int(eval_formula(pc.conds[f.id], asg))
               for f in pc.instance.facts}
        out.append((subinstance(pc.instance, val), w))
    return out


def bid_worlds(bid):
    """(world instance, probability) per choice of one fact (or none)
    in each block."""
    blocks = sorted(bid.blocks().items(), key=lambda kv: repr(kv[0]))
    choices = []
    for block, facts in blocks:
        opts = [(None, 1 - sum(bid.probs[f.id] for f in facts))]
        opts += [(f, bid.probs[f.id]) for f in facts]
        choices.append(opts)
    out = []
    for combo in itertools.product(*choices):
        w = Fraction(1)
        present = set()
        for f, p in combo:
            w *= p
            if f is not None:
                present.add(f.id)
        if not w:
            continue
        val = {f.id: int(f.id in present) for f in bid.instance.facts}
        out.append((subinstance(bid.instance, val), w))
    return out


# ---------------------------------------------------------------------------
# Formulas


def parse_formula(text):
    """Recursive-descent parser of the grammar of `prob.parse_formula`,
    its reference: OR-expr of AND-exprs of literals; literals are event
    names, constants 0/1, !lit, and parenthesized expressions."""
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
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def literal():
        t = take()
        if t == "!":
            return ("not", literal())
        if t == "(":
            f = or_expr()
            if take() != ")":
                raise SyntaxError("missing )")
            return f
        if t in ("0", "1"):
            return ("const", t == "1")
        if t is None or t in "()!&|":
            raise SyntaxError("unexpected token %r" % t)
        return ("var", t)

    def and_expr():
        f = literal()
        while peek() == "&":
            take()
            f = ("and", f, literal())
        return f

    def or_expr():
        f = and_expr()
        while peek() == "|":
            take()
            f = ("or", f, and_expr())
        return f

    f = or_expr()
    if peek() is not None:
        raise SyntaxError("trailing input in formula")
    return f


# ---------------------------------------------------------------------------
# PrXML documents


def doc_canon(node):
    """Canonical nested-tuple form (used to compare distributions)."""
    return (node.label, node.kind,
            tuple((_canon_edge(node.kind, e), doc_canon(c))
                  for e, c in node.children))


def _canon_edge(kind, e):
    if e is None:
        return None
    if kind == "fie":
        return format_formula(e)
    return Fraction(e)


def muxind_worlds(doc):
    """Distribution over deterministic documents by local enumeration;
    returns {canonical tree: probability}."""

    def forests(node):
        # list of (tuple of canonical child trees, prob) for the forest
        # this node contributes to its parent
        child_opts = [forests(c) for _, c in node.children]
        if node.kind == "regular":
            out = []
            for combo in itertools.product(*child_opts):
                p = Fraction(1)
                kids = []
                for f, fp in combo:
                    p *= fp
                    kids.extend(f)
                out.append(((("t", node.label, tuple(kids)),), p))
            return out
        if node.kind == "ind":
            out = [((), Fraction(1))]
            for (prob, _), opts in zip(node.children, child_opts):
                nxt = []
                for forest, p in out:
                    if prob < 1:
                        nxt.append((forest, p * (1 - prob)))
                    if prob > 0:
                        for f, fp in opts:
                            nxt.append((forest + f, p * prob * fp))
                out = _merge(nxt)
            return out
        if node.kind == "mux":
            out = []
            total = Fraction(0)
            for (prob, _), opts in zip(node.children, child_opts):
                total += prob
                if prob > 0:
                    for f, fp in opts:
                        out.append((f, prob * fp))
            if total < 1:
                out.append(((), 1 - total))
            return _merge(out)
        raise ValueError("fie nodes not supported by local enumeration")

    dist = {}
    for forest, p in forests(doc.root):
        tree = forest[0]
        dist[tree] = dist.get(tree, Fraction(0)) + p
    return dist


def label_worlds(doc):
    """(instance, probability) per world of a mux/ind document, from
    `muxind_worlds`: one unary fact P_label per node of the world."""
    out = []
    for tree, p in muxind_worlds(doc).items():
        facts = []
        stack = [tree]
        while stack:
            _, label, kids = stack.pop()
            facts.append(("P_%s" % label, ("n%d" % len(facts),)))
            stack.extend(kids)
        out.append((make_instance({rel: 1 for rel, _ in facts}, facts), p))
    return out


def binary_doc_worlds(binary):
    """(instance, probability) per world of a binary mux/ind document
    (`muxind_to_binary` output), by local enumeration: the FC and NS
    facts between all of its nodes, choice nodes included, hold in every
    world, and P_label(n) holds iff n is a regular node of the world."""
    nodes = []  # preorder
    stack = [binary.root]
    while stack:
        n = stack.pop()
        nodes.append(n)
        stack.extend(c for _, c in reversed(n.children))
    name = {id(n): "n%d" % i for i, n in enumerate(nodes)}
    certain = []
    for n in nodes:
        kids = [name[id(c)] for _, c in n.children]
        if kids:
            certain.append(("FC", (name[id(n)], kids[0])))
        certain += [("NS", pair) for pair in zip(kids, kids[1:])]
    # per node, children first: [(the label facts of a world's nodes at
    # or below it, probability)], given the node is in the world
    below = {}
    for n in reversed(nodes):
        if n.kind == "mux":  # one child, or none
            below[id(n)] = _merge(
                [((), 1 - sum(p for p, _ in n.children))]
                + [(s, p * q) for p, c in n.children for s, q in below[id(c)]])
            continue
        out = [((("P_%s" % n.label, (name[id(n)],)),)
                if n.kind == "regular" else (), Fraction(1))]
        for p, c in n.children:
            kid = below[id(c)]
            if p is not None:  # an ind edge: the child may be left out
                kid = [(s, p * q) for s, q in kid] + [((), 1 - p)]
            out = _merge([(s + t, q * r) for s, q in out for t, r in kid])
        below[id(n)] = out
    return [(make_instance({rel: len(args) for rel, args in certain + list(s)},
                           certain + list(s)), p)
            for s, p in below[id(binary.root)] if p]


def _merge(options):
    acc = {}
    for f, p in options:
        acc[f] = acc.get(f, Fraction(0)) + p
    return list(acc.items())


def fie_worlds(doc):
    """Distribution over deterministic documents of a fie document by
    enumeration of event valuations; returns {canonical tree: prob}."""
    events = sorted(doc.events)

    def collapse(node, nu):
        # forest this node contributes under valuation nu
        if node.kind == "regular":
            kids = []
            for _, c in node.children:
                kids.extend(collapse(c, nu))
            return (("t", node.label, tuple(kids)),)
        if node.kind == "fie":
            kids = []
            for phi, c in node.children:
                if eval_formula(phi, nu):
                    kids.extend(collapse(c, nu))
            return tuple(kids)
        raise ValueError("not a fie document")

    dist = {}
    for bits in itertools.product((0, 1), repeat=len(events)):
        nu = dict(zip(events, bits))
        p = Fraction(1)
        for e, b in nu.items():
            p *= doc.events[e] if b else 1 - doc.events[e]
        if not p:
            continue
        tree = collapse(doc.root, nu)[0]
        dist[tree] = dist.get(tree, Fraction(0)) + p
    return dist


# ---------------------------------------------------------------------------
# Structural oracles


def instances_isomorphic(i1, i2):
    """Isomorphism up to renaming of domain elements (backtracking search)."""
    if len(i1.facts) != len(i2.facts):
        return False
    d1, d2 = i1.domain, i2.domain
    if len(d1) != len(d2):
        return False

    def profile(inst):
        prof = {}
        for f in inst.facts:
            for pos, a in enumerate(f.args):
                prof.setdefault(a, []).append((f.rel, pos))
        return {a: tuple(sorted(v)) for a, v in prof.items()}

    p1, p2 = profile(i1), profile(i2)
    if sorted(p1.values()) != sorted(p2.values()):
        return False
    keys2 = i2.fact_keys()

    def extend(idx, mapping, used):
        if idx == len(d1):
            mapped = {(f.rel, tuple(mapping[a] for a in f.args))
                      for f in i1.facts}
            return mapped == keys2
        a = d1[idx]
        for b in d2:
            if b in used or p1[a] != p2[b]:
                continue
            mapping[a] = b
            used.add(b)
            if extend(idx + 1, mapping, used):
                return True
            del mapping[a]
            used.remove(b)
        return False

    return extend(0, {}, set())


def decomposes_circuit(circuit, decomposition):
    """Whether a decomposition fits a circuit of any gate types and
    fan-in: each gate shares some bag with all its inputs, and the bags
    holding a gate are connected."""
    bags = decomposition.bags()
    parent = decomposition.bag_parents()
    for g, (_, ins) in circuit.gates.items():
        if not any(g in b.dom and b.dom.issuperset(ins) for b in bags):
            return False
    for g in {e for b in bags for e in b.dom}:
        tops = [b for b in bags if g in b.dom
                and (id(b) not in parent or g not in parent[id(b)].dom)]
        if len(tops) != 1:
            return False
    return True


def decode_bag(root):
    """Bag instance (fact key -> multiplicity) of an annotated tree whose
    labels are (KFact, i) pairs; None if a fact node repeats a fact."""
    bag = {}
    seen = set()
    counter = [0]

    def fresh():
        counter[0] += 1
        return "e%d" % counter[0]

    def walk(node, parent_map):
        label, ann = node.label
        elem_of = {}
        for s in sorted(label.dom):
            elem_of[s] = parent_map.get(s) or fresh()
        if label.rel is not None:
            key = (label.rel, tuple(elem_of[s] for s in label.args))
            if key in seen:
                return False
            seen.add(key)
            if ann > 0:
                bag[key] = ann
        if not node.is_leaf():
            if not walk(node.left, elem_of):
                return False
            if not walk(node.right, elem_of):
                return False
        return True

    if not walk(root, {}):
        return INVALID
    return bag


def enumerate_runs(automaton, root):
    """All runs as node->state maps (testing oracle; exponential)."""
    nodes = postorder(root)
    runs = {}
    for n in nodes:
        if n.is_leaf():
            runs[id(n)] = [({id(n): q}, q) for q in automaton.iota(n.label)]
        else:
            acc = []
            for m1, q1 in runs[id(n.left)]:
                for m2, q2 in runs[id(n.right)]:
                    for q in automaton.delta(q1, q2, n.label):
                        m = dict(m1)
                        m.update(m2)
                        m[id(n)] = q
                        acc.append((m, q))
            runs[id(n)] = acc
    return runs[id(root)]


def bag_satisfies(cq, bag):
    """Bag-homomorphism oracle: some assignment whose per-fact usage
    counts fit within the bag multiplicities (diseqs respected)."""
    vs = cq.variables
    dom = sorted({a for key in bag for a in key[1]}, key=str)
    for combo in itertools.product(dom, repeat=len(vs)):
        asg = dict(zip(vs, combo))
        if not all(asg[x] != asg[y]
                   for pair in cq.diseqs for x, y in [tuple(pair)]):
            continue
        usage = {}
        for a in cq.atoms:
            key = (a.rel, tuple(asg[v] for v in a.vars))
            usage[key] = usage.get(key, 0) + 1
        if all(bag.get(key, 0) >= m for key, m in usage.items()):
            return True
    return False
