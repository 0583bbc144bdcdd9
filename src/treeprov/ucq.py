"""UCQs: parsing, evaluation oracles, and compilation to tree automata
over (annotated) tree encodings of treelike instances.

One automaton, `placement_automaton`, compiles a CQ.  Its state is one
partial match: a partial map from variables to slots plus the set of
atoms placed in the subtree.  A variable whose element leaves scope
while it still occurs in an unplaced atom kills its match, two children
never both place one atom, and two variables required distinct never
share a slot (elements out of scope are distinct from all in scope).

- Annotated view: a fact node annotated `ann` places exactly `ann`
  atoms on its fact, so accepting runs are the query's matches.  This
  gives N[X] provenance (`nx_provenance`) and, made monotone in the
  annotation, bag semantics (`compile_bag`).
- Boolean view (`compile_bool`): a fact may hold any number of atoms,
  and a UCQ is monotone, so all full descriptors are one absorbing
  accepting state.  It stays nondeterministic: a provenance circuit
  gets one gate per descriptor a node can hold.  Where worlds are
  counted, `_compile_det` determinises it on demand, once for the
  whole union, through the same transition memo.

An automaton depends only on the query, so each of `compile_bool`,
`_compile_det` and `nx_provenance` compiles a query once per process:
`_compiled` keeps the automata, with their transition memos, of the
`_COMPILED_MAX` queries used last, keyed by the query and the state cap
in force.  A call on a warm entry returns what a cold one returns, and
`_compile_det` evicts an entry whose subset count trips the cap and
reruns once on a fresh one, so no refusal depends on earlier calls.
"""

import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass

from .automata import (BNTA, EMPTY, lazy_determinize, memoized, monotonize,
                       state_cap, union)
from .circuits import Polynomial
from .encoding import _encoded
from .errors import StateBlowup
from .provcirc import ALL, _nx_circuit


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


def _cq_assignments(cq, instance):
    """Satisfying assignments of one CQ by domain enumeration, lazily."""
    vs = cq.variables
    keys = instance.fact_keys()
    for combo in itertools.product(instance.domain, repeat=len(vs)):
        asg = dict(zip(vs, combo))
        ok = all(asg[x] != asg[y]
                 for pair in cq.diseqs for x, y in [tuple(pair)])
        if ok and all((a.rel, tuple(asg[v] for v in a.vars)) in keys
                      for a in cq.atoms):
            yield asg


def cq_matches(cq, instance):
    """All satisfying assignments of one CQ by domain enumeration."""
    return list(_cq_assignments(cq, instance))


def enumerate_matches(q, instance):
    """All (disjunct index, assignment) pairs."""
    out = []
    for j, d in enumerate(q.disjuncts):
        for asg in cq_matches(d, instance):
            out.append((j, asg))
    return out


def satisfies(q, instance):
    return any(next(_cq_assignments(d, instance), None) is not None
               for d in q.disjuncts)


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


# ---------------------------------------------------------------------------
# Partial-match automata


# every disjunct's empty descriptor, as one state; a tuple, so that a set
# of states hashes, and so prints, alike under every hash seed
_NONE = ()
_ACCEPT = "accept"
_SINK = frozenset([_ACCEPT])


def compile_bool(q):
    """bNTA over the k-fact alphabet testing a UCQ on valid encodings:
    per disjunct, the placement automaton that lets a fact hold any
    number of atoms.  A state is `_NONE`, every disjunct's empty
    descriptor; `_ACCEPT`, every full one, which moves up only beside
    `_NONE`; or (disjunct, descriptor).  Runs are not unique, so Boolean
    provenance runs it as it is and `_compile_det` determinises it,
    sharing its memo.  It is compiled once per query and state cap (see
    `_compiled`), its memo filled by the runs before.

    This is exact: every node reaches the empty descriptor under every
    valuation (a fact may hold no atom), a full descriptor never fails
    to project (no unmatched atom is left to lose a variable), and a
    full descriptor beside the empty one gives a full descriptor again.
    So a full match below a node is a full match at the root."""
    return _compiled(_key(_bool_automaton, q))


def _bool_automaton(disjuncts):
    """`compile_bool`'s automaton.  iota is memoized on the label's fact,
    delta on the projected states and the fact (see `automata`), and
    project on the state and the label's domain."""
    parts, merges = zip(*(_placement(d, True) for d in disjuncts))
    empty = [((0,) * len(d.variables), 0) for d in disjuncts]
    iotas, deltas, views = {}, {}, {}

    def tag(i, states):
        return [_ACCEPT if parts[i].is_final(d) else _NONE if d == empty[i]
                else (i, d) for d in states]

    def project(q, l):
        if not q or q.__class__ is str:  # _NONE or _ACCEPT
            return q
        key = (q, l.dom)
        if key not in views:
            p = parts[q[0]].project(q[1], l)
            views[key] = q if p is q[1] else None if p is None else (q[0], p)
        return views[key]

    def iota(l):
        key = (l.rel, l.args)
        if key not in iotas:
            iotas[key] = frozenset(q for i, a in enumerate(parts)
                                   for q in tag(i, a.iota(l)))
        return iotas[key]

    def step(p1, p2, l):  # delta on projected states
        if _ACCEPT in (p1, p2):
            return _SINK if _NONE in (p1, p2) else EMPTY
        if p1 == _NONE and p2 == _NONE:
            return frozenset(q for i, e in enumerate(empty)
                             for q in tag(i, merges[i](e, e, l)))
        if p1 == _NONE:
            p1 = (p2[0], empty[p2[0]])
        elif p2 == _NONE:
            p2 = (p1[0], empty[p1[0]])
        elif p1[0] != p2[0]:
            return EMPTY
        return frozenset(tag(p1[0], merges[p1[0]](p1[1], p2[1], l)))

    def delta(q1, q2, l):
        p1, p2 = project(q1, l), project(q2, l)
        if p1 is None or p2 is None:
            return EMPTY
        key = (p1, p2, l.rel, l.args)
        out = deltas.get(key)
        if out is None:
            out = deltas[key] = step(p1, p2, l)
        return out

    return BNTA(iota, delta, lambda q: q == _ACCEPT, project=project)


def _compile_det(q, run):
    """run(step), for counting worlds (summing the runs of a
    nondeterministic automaton would count a world once per run): step
    is `_det_automaton`'s, compiled once per query and state cap (see
    `_compiled`).  Its subset count grows across calls, so on
    `StateBlowup` the entry is evicted and, if earlier calls had filled
    it, run is called once more on a fresh one: a call is refused
    exactly when it would be on an automaton of its own."""
    key = _key(_det_automaton, q)
    warm = key in _COMPILED
    while True:
        try:
            return run(_compiled(key))
        except StateBlowup:
            _COMPILED.pop(key, None)
            if not warm:
                raise
            warm = False


def _det_automaton(disjuncts):
    """`compile_bool`'s automaton determinised on demand, under one state
    cap, and memoized: a state is a set of its states with no accepting
    one, or `_SINK`, into which every subset holding an accepting state
    collapses and which is absorbing.  This is exact: every node reaches
    `_NONE`, so every reachable subset holds it, and beside it the
    accepting state moves up (see `compile_bool`).  The subsets step
    through `compile_bool`'s memo, so Boolean provenance and counting
    share it."""
    subsets = lazy_determinize(compile_bool(UCQ(disjuncts)))
    sink = frozenset([_SINK])

    def collapse(states):  # a subset is final iff it holds _ACCEPT
        return sink if any(_ACCEPT in s for s in states) else states

    def delta(s1, s2, l):
        if s1 == _SINK or s2 == _SINK:
            return sink
        return collapse(subsets.delta(s1, s2, l))

    return memoized(BNTA(lambda l: collapse(subsets.iota(l)), delta,
                         lambda s: s == _SINK))


# ---------------------------------------------------------------------------
# Compiled automata, kept across calls


_COMPILED_MAX = 32
_COMPILED = OrderedDict()  # _key -> what its build returned, oldest first


def _key(build, q):
    """build together with q's disjuncts as hashable CQs, so that a CQ
    and its one-disjunct UCQ name one entry and a UCQ built from lists
    has one, and the state cap in force (a determinised automaton counts
    its subsets against the cap it was built under)."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    disjuncts = tuple(
        CQ(tuple(Atom(a.rel, tuple(a.vars)) for a in d.atoms),
           frozenset(frozenset(pair) for pair in d.diseqs))
        for d in q.disjuncts)
    return build, disjuncts, state_cap()


def _compiled(key):
    """build(disjuncts) for the `_key` (build, disjuncts, cap), made once
    and kept, with its memos, for the `_COMPILED_MAX` keys used last.
    A memo holds at most one entry per states x labels of width k, so
    an entry stays bounded too."""
    value = _COMPILED.get(key)
    if value is None:
        build, disjuncts, _cap = key
        value = _COMPILED[key] = build(disjuncts)
        if len(_COMPILED) > _COMPILED_MAX:
            _COMPILED.popitem(last=False)
    else:
        _COMPILED.move_to_end(key)
    return value


def placement_automaton(cq, any_count=False):
    """bNTA over (KFact, annotation) labels whose accepting runs on a
    valid annotated encoding are in bijection with the matches of cq
    that place exactly `ann` atoms on the fact of each fact node
    annotated `ann`; other nodes must be annotated 0.  With any_count,
    labels are bare KFacts and a fact node places any number of atoms.

    A state is one descriptor (slots, placed): slots has one entry per
    variable of cq.variables, the slot (1..2k+2) it is bound to or 0
    while unbound, and placed is the bitmask of the atoms placed in the
    subtree.  Children that both placed an atom are rejected, so each
    atom sits on exactly one fact.  Two variables required distinct
    never share a slot (elements out of scope are distinct from all in
    scope).

    `project(q, label)` is a child's descriptor seen from a parent
    labelled label: a descriptor binds only slots of its own node, and
    a slot the parent shares names the same element there, so bindings
    to slots outside the parent's domain are dropped.  It is None if a
    dropped variable still occurs in an unplaced atom: its element has
    left scope for good.  `delta` projects both children first.
    """
    return _placement(cq, any_count)[0]


def _placement(cq, any_count):
    """`placement_automaton` and merge, its delta on projected states."""
    index = {v: i for i, v in enumerate(cq.variables)}
    atom_vars = [tuple(index[v] for v in a.vars) for a in cq.atoms]
    occurs = [0] * len(index)  # per variable, the mask of its atoms
    by_sig = {}  # (rel, arity) -> indexes of the atoms of that shape
    for idx, (a, vs) in enumerate(zip(cq.atoms, atom_vars)):
        for v in vs:
            occurs[v] |= 1 << idx
        by_sig.setdefault((a.rel, len(vs)), []).append(idx)
    diseqs = [(index[x], index[y]) for x, y in map(tuple, cq.diseqs)
              if x in index and y in index]
    full = (1 << len(cq.atoms)) - 1
    unbound = (0,) * len(index)

    def bind(slots, pairs):
        """slots extended by (variable, slot) pairs, or None if a
        variable would get two slots or two variables required distinct
        would share one."""
        new = list(slots)
        for v, s in pairs:
            if not new[v]:
                new[v] = s
            elif new[v] != s:
                return None
        for x, y in diseqs:
            if new[x] and new[x] == new[y]:
                return None
        return tuple(new)

    in_scope = {}  # dom -> dom and 0: the slot values dom keeps

    def project(q, label):
        dom = (label if any_count else label[0]).dom
        slots, placed = q
        keeps = in_scope.get(dom)
        if keeps is None:
            keeps = in_scope[dom] = dom | {0}
        if keeps.issuperset(slots):
            return q
        gone = [v for v, s in enumerate(slots) if s not in keeps]
        if any(occurs[v] & ~placed for v in gone):
            return None
        return (tuple(s if s in dom else 0 for s in slots), placed)

    def place(slots, placed, label):
        kf, ann = (label, 0) if any_count else label
        fit = [idx for idx in by_sig.get((kf.rel, len(kf.args)), ())
               if not placed >> idx & 1]  # none on a node without a fact
        if any_count or not ann:  # placing no atom keeps the descriptor
            out = {(slots, placed)}
            sizes = range(1, len(fit) + 1) if any_count else ()
        else:
            out, sizes = set(), [ann]
        for n in sizes:
            for chosen in itertools.combinations(fit, n):
                new = bind(slots, [(v, s) for idx in chosen
                                   for v, s in zip(atom_vars[idx], kf.args)])
                if new is not None:
                    mask = placed
                    for idx in chosen:
                        mask |= 1 << idx
                    out.add((new, mask))
        return frozenset(out)

    def iota(label):
        return place(unbound, 0, label)

    def merge(d1, d2, label):
        if d1[1] & d2[1]:
            return EMPTY
        slots = bind(d1[0], [(v, s) for v, s in enumerate(d2[0]) if s])
        if slots is None:
            return EMPTY
        return place(slots, d1[1] | d2[1], label)

    def delta(q1, q2, label):
        if q1[1] & q2[1]:
            return EMPTY
        d1 = project(q1, label)
        d2 = project(q2, label)
        if d1 is None or d2 is None:
            return EMPTY
        return merge(d1, d2, label)

    return BNTA(iota, delta, lambda q: q[1] == full, project=project), merge


def compile_bag(cq, p=None):
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
    weighs each run by the product of the facts its match uses.  The
    memoized union is compiled once per query and state cap (see
    `_compiled`), and the instance's encoding once per instance and k
    (see `encoding._encoded`)."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    enc = _encoded(instance, k)
    automaton = _compiled(_key(_nx_automaton, q))
    p = max(len(d.atoms) for d in q.disjuncts)
    return _nx_circuit(automaton, enc.nodes(), enc.node_fact, ALL, p)[0]


def _nx_automaton(disjuncts):  # one disjunct's states carry no tag
    parts = [placement_automaton(d) for d in disjuncts]
    return memoized(parts[0] if len(parts) == 1 else union(parts))
