"""UCQs: parsing, evaluation oracles, and compilation to tree automata
over (annotated) tree encodings of treelike instances.

Both compilations track partial-match descriptors: a partial map from
variables to slots plus the set of atoms already matched in the
subtree.  A variable whose element leaves scope while it still occurs in
an unmatched atom kills its descriptor, and two children never both
match one atom.  Inequality atoms are enforced eagerly: two variables
required distinct can never share a slot, and elements that have gone
out of scope are distinct from everything still in scope.

- The Boolean automaton (`compile_bool`) is deterministic: its state is
  the node's slot domain with the set of descriptors some valuation of
  the subtree realizes.
- The placement automaton (`placement_automaton`) is nondeterministic:
  its state is one descriptor, and a fact node annotated `ann` places
  exactly `ann` unmatched atoms on its fact.  Its accepting runs are the
  query's matches, so its N[X] provenance circuit (`nx_provenance`) is
  the query's N[X] provenance, and made monotone in the annotation it
  tests bag semantics (`compile_bag`).
"""

import itertools
import re
from dataclasses import dataclass

from .automata import BNTA, EMPTY, memoized, monotonize, union
from .circuits import Polynomial
from .encoding import encode
from .provcirc import name_inputs, nx_provenance_circuit
from .relational import normalize_decomposition, tree_decomposition
from .trees import postorder


@dataclass(frozen=True)
class Atom:
    rel: str
    vars: tuple


@dataclass(frozen=True)
class CQ:
    atoms: tuple  # of Atom, repeated atoms = multiplicity
    diseqs: frozenset = frozenset()  # of frozenset({x, y})

    @property
    def variables(self):
        out = []
        for a in self.atoms:
            for v in a.vars:
                if v not in out:
                    out.append(v)
        return out


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple  # of CQ
    free: tuple = ()


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),;])")


def parse_ucq(text, free=()):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SyntaxError("bad character at position %d" % pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def expect(tok):
        nonlocal i
        if peek() != tok:
            at = tokens[i][1] if i < len(tokens) else len(text)
            raise SyntaxError("expected %r at position %d" % (tok, at))
        i += 1

    def name():
        nonlocal i
        t = peek()
        if t is None or t in "(),;":
            at = tokens[i][1] if i < len(tokens) else len(text)
            raise SyntaxError("expected a name at position %d" % at)
        i += 1
        return t

    def atom():
        rel = name()
        expect("(")
        vs = [name()]
        while peek() == ",":
            expect(",")
            vs.append(name())
        expect(")")
        return Atom(rel, tuple(vs))

    def cq():
        atoms = [atom()]
        while peek() == ",":
            expect(",")
            atoms.append(atom())
        return CQ(tuple(atoms))

    disjuncts = [cq()]
    while peek() == ";":
        expect(";")
        disjuncts.append(cq())
    if i != len(tokens):
        raise SyntaxError("trailing input at position %d" % tokens[i][1])
    q = UCQ(tuple(disjuncts), tuple(free))
    allvars = set()
    for d in q.disjuncts:
        allvars |= set(d.variables)
    for v in q.free:
        if v not in allvars:
            raise SyntaxError("free variable %s does not occur" % v)
    return q


# ---------------------------------------------------------------------------
# Direct evaluation oracles


def cq_matches(cq, instance):
    """All satisfying assignments of one CQ by domain enumeration."""
    vs = cq.variables
    dom = instance.domain
    keys = instance.fact_keys()
    out = []
    for combo in itertools.product(dom, repeat=len(vs)):
        asg = dict(zip(vs, combo))
        ok = all(asg[x] != asg[y]
                 for pair in cq.diseqs for x, y in [tuple(pair)])
        if ok and all((a.rel, tuple(asg[v] for v in a.vars)) in keys
                      for a in cq.atoms):
            out.append(asg)
    return out


def enumerate_matches(q, instance):
    """All (disjunct index, assignment) pairs."""
    out = []
    for j, d in enumerate(q.disjuncts):
        for asg in cq_matches(d, instance):
            out.append((j, asg))
    return out


def satisfies(q, instance):
    return any(cq_matches(d, instance) for d in q.disjuncts)


def nx_provenance_bruteforce(q, instance):
    """Sum over disjuncts and matches of the product of matched-fact
    variables (fact ids), with multiplicity."""
    key_to_id = {f.key(): f.id for f in instance.facts}
    total = Polynomial()
    for j, asg in enumerate_matches(q, instance):
        term = Polynomial.constant(1)
        for a in q.disjuncts[j].atoms:
            fid = key_to_id[(a.rel, tuple(asg[v] for v in a.vars))]
            term = term * Polynomial.variable(fid)
        total = total + term
    return total


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


# ---------------------------------------------------------------------------
# Partial-match automata


def _bind(cq, mu, pairs):
    """The binding mu extended by (variable, slot) pairs, or None if a
    variable would get two slots or two variables required distinct
    would share a slot (distinct slots are distinct elements)."""
    new = dict(mu)
    for v, s in pairs:
        if new.setdefault(v, s) != s:
            return None
    for pair in cq.diseqs:
        x, y = tuple(pair)
        if x in new and y in new and new[x] == new[y]:
            return None
    return new


def _close(cq, descs, struct):
    """Extend descriptors by matching the node's fact (if any) against
    unmatched atoms, to fixpoint.  struct = (rel, slot tuple) or None."""
    if struct is None:
        return descs
    rel, slots = struct
    out = set(descs)
    frontier = list(descs)
    while frontier:
        mu, matched = frontier.pop()
        mud = dict(mu)
        for idx, a in enumerate(cq.atoms):
            if idx in matched or a.rel != rel or len(a.vars) != len(slots):
                continue
            new = _bind(cq, mud, zip(a.vars, slots))
            if new is None:
                continue
            d = (frozenset(new.items()), matched | {idx})
            if d not in out:
                out.add(d)
                frontier.append(d)
    return out


def _project(cq, desc, dom):
    """A child's descriptor seen from its parent, whose slots are dom.
    A descriptor binds only slots of its own node, and a slot the parent
    shares names the same element there, so bindings to slots outside dom
    are dropped.  None if a dropped variable still occurs in an unmatched
    atom: its element has left scope for good."""
    mu, matched = desc
    keep = {}
    gone = set()
    for v, s in mu:
        if s in dom:
            keep[v] = s
        else:
            gone.add(v)
    if gone:
        for idx, a in enumerate(cq.atoms):
            if idx not in matched and gone & set(a.vars):
                return None
    return (frozenset(keep.items()), matched)


def match_automaton(cq):
    """Lazy bNTA over KFact labels testing one CQ (with optional
    inequality atoms) on valid tree encodings.  A state is the node's
    slot domain with the set of descriptors some valuation of the
    subtree can realize."""
    n_atoms = len(cq.atoms)
    empty_desc = (frozenset(), frozenset())

    def struct_of(label):
        if label.rel is None:
            return None
        return (label.rel, label.args)

    def project(descs, dom):
        return {d for d in (_project(cq, d, dom) for d in descs)
                if d is not None}

    def iota(label):
        descs = _close(cq, {empty_desc}, struct_of(label))
        return frozenset([(label.dom, frozenset(descs))])

    def delta(s1, s2, label):
        r1 = project(s1[1], label.dom)
        r2 = project(s2[1], label.dom)
        merged = set()
        for mu1, m1 in r1:
            d1 = dict(mu1)
            for mu2, m2 in r2:
                # an atom sits on one fact, at one node: the two sides
                # never both matched it
                if m1 & m2:
                    continue
                new = _bind(cq, d1, mu2)
                if new is not None:
                    merged.add((frozenset(new.items()), m1 | m2))
        merged = _close(cq, merged, struct_of(label))
        return frozenset([(label.dom, frozenset(merged))])

    full = frozenset(range(n_atoms))

    def is_final(state):
        _, descs = state
        return any(m == full for _, m in descs)

    return BNTA(iota, delta, is_final)


def compile_bool(q, k=None):
    """bNTA over the k-fact alphabet testing a UCQ on valid encodings."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    return memoized(union([match_automaton(d) for d in q.disjuncts]))


def placement_automaton(cq):
    """bNTA over (KFact, annotation) labels whose accepting runs on a
    valid annotated encoding are in bijection with the matches of cq
    that place exactly `ann` atoms on the fact of each fact node
    annotated `ann`; other nodes must be annotated 0.

    A state is one descriptor: a partial variable->slot map with the set
    of atoms placed in the subtree.  Children that both placed an atom
    are rejected, so each atom sits on exactly one fact.
    """
    atoms = cq.atoms
    full = frozenset(range(len(atoms)))

    def place(mu, matched, label):
        kf, ann = label
        if kf.rel is None:
            if ann:
                return EMPTY
            return frozenset([(frozenset(mu.items()), matched)])
        fit = [idx for idx, a in enumerate(atoms)
               if idx not in matched and a.rel == kf.rel
               and len(a.vars) == len(kf.args)]
        out = set()
        for chosen in itertools.combinations(fit, ann):
            new = _bind(cq, mu, [(v, s) for idx in chosen
                                 for v, s in zip(atoms[idx].vars, kf.args)])
            if new is not None:
                out.add((frozenset(new.items()), matched | set(chosen)))
        return frozenset(out)

    def iota(label):
        return place({}, frozenset(), label)

    def delta(q1, q2, label):
        if q1[1] & q2[1]:
            return EMPTY
        dom = label[0].dom
        d1 = _project(cq, q1, dom)
        d2 = _project(cq, q2, dom)
        if d1 is None or d2 is None:
            return EMPTY
        mu = _bind(cq, d1[0], d2[0])
        if mu is None:
            return EMPTY
        return place(mu, d1[1] | d2[1], label)

    return BNTA(iota, delta, lambda q: q[1] == full)


def compile_bag(cq, k=None, p=None):
    """bNTA over (KFact, {0..p}) accepting an annotated encoding iff its
    bag instance satisfies the CQ under bag-homomorphism semantics: some
    match uses each fact at most as many times as its annotation, i.e.
    the placement automaton made monotone in the annotation."""
    if p is None:
        p = len(cq.atoms)
    if p < len(cq.atoms):
        raise ValueError("p must be at least the total atom multiplicity")
    return memoized(monotonize(placement_automaton(cq)))


# ---------------------------------------------------------------------------
# N[X] provenance


def nx_provenance(q, instance, k=None):
    """N[X] provenance circuit of a UCQ on a treelike instance, with the
    fact ids as inputs.  The union of the disjuncts' placement automata
    has one accepting run per match of a disjunct, and the circuit
    weighs each run by the product of the facts its match uses."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    enc = encode(instance, normalize_decomposition(
        tree_decomposition(instance, k)))
    automaton = memoized(union([placement_automaton(d)
                                for d in q.disjuncts]))
    caps = {id(n): 0 for n in postorder(enc.root)
            if id(n) not in enc.node_fact}
    p = max(len(d.atoms) for d in q.disjuncts)
    res = nx_provenance_circuit(automaton, enc.root, p=p, ann_caps=caps)
    return name_inputs(res, enc.node_fact)[0]
