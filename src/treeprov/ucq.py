"""UCQs: parsing, evaluation oracles, and compilation to tree automata
over (annotated) tree encodings of treelike instances.

One automaton, `placement_automaton`, compiles a CQ.  Its state is one
partial match: a partial map from variables to slots plus the set of
atoms placed in the subtree.  A variable whose element leaves scope
while it still occurs in an unplaced atom kills its match, two children
never both place one atom, and two variables required distinct never
share a slot (elements out of scope are distinct from all in scope).
A fact may hold any number of atoms.

Every query automaton tags a partial match with its disjunct,
(disjunct, descriptor), and projects it through that disjunct's by one
memo, `_tagged_projection`.

- Annotated view (`_nx_automaton`): a fact node annotated `ann` takes
  the placements of exactly `ann` atoms on its fact, so accepting runs
  are the query's matches.  One placement step per projected pair and
  fact, grouped by how many atoms it placed, serves every annotation.
  This gives N[X] provenance (`nx_provenance`) and, made monotone in
  the annotation, bag semantics (`compile_bag`).
- Boolean view (`compile_bool`): every placement at once, and a UCQ
  is monotone, so all full descriptors are one absorbing accepting
  state.  It stays nondeterministic: a provenance circuit gets one
  gate per descriptor a node can hold.  Where worlds are counted,
  `_compile_det` determinises it on demand, once for the whole union,
  through the same transition memo.

An automaton depends only on the query, so each of `compile_bool`,
`_compile_det`, `nx_provenance` and `compile_bag` compiles a query once
per process:
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
                       state_cap)
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
    step on the projected states and the fact (see `automata`), and
    project on the state and the label's domain."""
    parts = [placement_automaton(d) for d in disjuncts]
    merges = [a.step for a in parts]
    empty = [((0,) * len(d.variables), 0) for d in disjuncts]
    iotas, steps = {}, {}
    project = _tagged_projection(parts)

    def tag(i, states):
        return [_ACCEPT if parts[i].is_final(d) else _NONE if d == empty[i]
                else (i, d) for d in states]

    def iota(l):
        key = (l.rel, l.args)
        if key not in iotas:
            iotas[key] = frozenset(q for i, a in enumerate(parts)
                                   for q in tag(i, a.iota(l)))
        return iotas[key]

    def step(p1, p2, l):  # computed once per projected pair and fact
        key = (p1, p2, l.rel, l.args)
        out = steps.get(key)
        if out is not None:
            return out
        if _ACCEPT in (p1, p2):
            out = _SINK if _NONE in (p1, p2) else EMPTY
        elif p1 == _NONE and p2 == _NONE:
            out = frozenset(q for i, e in enumerate(empty)
                            for q in tag(i, merges[i](e, e, l)))
        else:
            if p1 == _NONE:
                p1 = (p2[0], empty[p2[0]])
            elif p2 == _NONE:
                p2 = (p1[0], empty[p1[0]])
            out = EMPTY if p1[0] != p2[0] else \
                frozenset(tag(p1[0], merges[p1[0]](p1[1], p2[1], l)))
        steps[key] = out
        return out

    return BNTA(iota, None, lambda q: q == _ACCEPT, project=project,
                step=step)


def _tagged_projection(parts):
    """project(q, kf) of a state q = (i, d) tagged with its disjunct i,
    through parts[i], the disjunct's placement automaton; memoized on q
    and kf's domain, all a projection reads of its label.  A state with
    no tag, `_NONE` or `_ACCEPT`, is its own projection.  Every query
    automaton projects through it, and nothing else memoizes one."""
    views = {}

    def project(q, kf):
        if not q or q.__class__ is str:  # _NONE or _ACCEPT
            return q
        key = (q, kf.dom)
        if key not in views:
            p = parts[q[0]].project(q[1], kf)
            views[key] = q if p is q[1] else None if p is None else (q[0], p)
        return views[key]

    return project


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


def placement_automaton(cq):
    """bNTA over KFact labels whose accepting runs on a valid encoding
    place each atom of cq on a fact of the tree, a fact node placing any
    number of atoms on its fact.

    A state is one descriptor (slots, placed): slots has one entry per
    variable of cq.variables, the slot (1..2k+2) it is bound to or 0
    while unbound, and placed is the bitmask of the atoms placed in the
    subtree.  Children that both placed an atom are rejected, so each
    atom sits on exactly one fact.  Two variables required distinct
    never share a slot (elements out of scope are distinct from all in
    scope).  How many atoms a step placed on the label's fact is the
    growth of placed, which `_nx_automaton` reads to give each fact
    node an annotation.

    `project(q, label)` is a child's descriptor seen from a parent
    labelled label: a descriptor binds only slots of its own node, and
    a slot the parent shares names the same element there, so bindings
    to slots outside the parent's domain are dropped.  It is None if a
    dropped variable still occurs in an unplaced atom: its element has
    left scope for good.  It keeps no memo: the query automata reach it
    through `_tagged_projection`'s, on a miss.  `step` merges two
    projected descriptors and places atoms on the label's fact; delta
    is the two composed (see `automata`).
    """
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

    def project(q, label):
        dom = label.dom
        slots, placed = q
        gone = [v for v, s in enumerate(slots) if s and s not in dom]
        if not gone:
            return q
        if any(occurs[v] & ~placed for v in gone):
            return None
        return (tuple(s if s in dom else 0 for s in slots), placed)

    def place(slots, placed, label):
        args = label.args
        fit = [idx for idx in by_sig.get((label.rel, len(args)), ())
               if not placed >> idx & 1]  # none on a node without a fact
        out = {(slots, placed)}  # placing no atom keeps the descriptor
        for n in range(1, len(fit) + 1):
            for chosen in itertools.combinations(fit, n):
                new = bind(slots, [(v, s) for idx in chosen
                                   for v, s in zip(atom_vars[idx], args)])
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

    return BNTA(iota, None, lambda q: q[1] == full, project=project,
                step=merge)


def compile_bag(cq, p=None):
    """bNTA over (KFact, {0..p}) accepting an annotated encoding iff its
    bag instance satisfies the CQ under bag-homomorphism semantics: some
    match uses each fact at most as many times as its annotation, i.e.
    `_nx_automaton`'s annotated view, `nx_provenance`'s `_compiled`
    entry, made monotone in the annotation."""
    if p is None:
        p = len(cq.atoms)
    if p < len(cq.atoms):
        raise ValueError("p must be at least the total atom multiplicity")
    return memoized(monotonize(_compiled(_key(_nx_automaton, cq))))


# ---------------------------------------------------------------------------
# N[X] provenance


def nx_provenance(q, instance, k=None):
    """N[X] provenance circuit of a UCQ on a treelike instance, with the
    fact ids as inputs.  `_nx_automaton` has one accepting run per match
    of a disjunct, and the circuit weighs each run by the product of the
    facts its match uses.  The automaton is compiled once per query and
    state cap (see `_compiled`), and the instance's encoding once per
    instance and k (see `encoding._encoded`)."""
    if isinstance(q, CQ):
        q = UCQ((q,))
    enc = _encoded(instance, k)
    automaton = _compiled(_key(_nx_automaton, q))
    p = max(len(d.atoms) for d in q.disjuncts)
    return _nx_circuit(automaton, enc.nodes(), enc.node_fact, ALL, p)[0]


def _nx_automaton(disjuncts):
    """The annotated view of the disjuncts' placement automata: a bNTA
    over (KFact, ann) labels whose accepting runs on a valid annotated
    encoding are in bijection with the matches of a disjunct that place
    exactly ann atoms on the fact of each fact node annotated ann (other
    nodes must be annotated 0).  A state is (disjunct, descriptor), as
    in `compile_bool`, and no states of two disjuncts are paired.

    project is `_tagged_projection`, read on the label's KFact.  iota
    and step are memoized on the label's fact alone: one any-count
    placement per fact, and per projected pair and fact, serves every
    annotation, its results grouped by how many atoms they placed on the
    fact (the growth of the placed mask).  This is exact: the any-count
    placement is the union over n of the placements of exactly n atoms,
    and the mask tells each one's n."""
    parts = [placement_automaton(d) for d in disjuncts]
    iotas, steps = {}, {}
    view = _tagged_projection(parts)

    def project(q, l):
        return view(q, l[0])

    def count(groups, i, states, before):
        """Add disjunct i's states, tagged, to groups under the number of
        atoms each placed beyond the `before` placed below."""
        for d in states:
            groups.setdefault(d[1].bit_count() - before, set()).add((i, d))

    def iota(l):
        tau, ann = l
        key = (tau.rel, tau.args)
        groups = iotas.get(key)
        if groups is None:
            groups = {}
            for i, a in enumerate(parts):
                count(groups, i, a.iota(tau), 0)
            groups = iotas[key] = {n: frozenset(g) for n, g in groups.items()}
        return groups.get(ann, EMPTY)

    def step(p1, p2, l):  # one placement per projected pair and fact
        tau, ann = l
        key = (p1, p2, tau.rel, tau.args)
        groups = steps.get(key)
        if groups is None:
            (i, d1), (j, d2) = p1, p2
            groups = {}
            if i == j:
                count(groups, i, parts[i].step(d1, d2, tau),
                      (d1[1] | d2[1]).bit_count())
            groups = steps[key] = {n: frozenset(g) for n, g in groups.items()}
        return groups.get(ann, EMPTY)

    def is_final(q):
        return parts[q[0]].is_final(q[1])

    return BNTA(iota, None, is_final, project=project, step=step)
