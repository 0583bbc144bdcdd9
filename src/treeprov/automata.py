"""Bottom-up nondeterministic tree automata over binary full trees.

Transition structure is exposed through functions (label -> state set,
(q1, q2, label) -> state set) so that automata over huge implicit
alphabets (the k-fact alphabet and its annotated products) never have to
materialize their label universe.  Table-backed automata additionally
carry explicit state and label sets and support JSON round-trips.

An automaton may also carry `project(q, label)`: the part of state q
that a parent node with this label reads, or None when no run through
q continues there.  It may depend only on the label's domain.  Its
partner is `step(p1, p2, label)`, delta on states already projected
onto the label: such an automaton is given iota, project and step, and
`BNTA` builds delta(q1, q2, l) as step(project(q1, l), project(q2, l),
l), EMPTY when either side is None.  Without `project` (None as the
field means the identity), step is delta.  A step reads the label's
domain only through `project`: iota(l), and step, read only l's fact
(all of l but its domain), so a step can be kept for every label with
the same fact.
A state reached at a node binds only slots of that node's label
domain, so project(q, l) is q whenever l's domain contains the node's,
and step takes such a child's states as they are.  A provenance
circuit then projects each child's states once per node, pairs the
projected states by `step`, so states that differ only in what the
parent drops are paired once, and skips the projection of a child
whose domain lies inside the parent's.  The placement automaton of
`ucq` sets it: its state is a descriptor (slots, placed), a tuple
holding each query variable's slot (0 while unbound) and the bitmask
of the atoms placed below, its projection drops the slots outside the
parent's domain, and its step merges two descriptors and places atoms
on the label's fact; `compile_bool`'s projects a tagged state through
its disjunct's.  No other automaton carries one (`memoized` and
`union` keep none): their runs are correct, only unprojected.
"""

import itertools
import os

from .encoding import label_from_json, label_to_json, teval_label
from .errors import StateBlowup
from .relational import json_field, json_list
from .trees import postorder

EMPTY = frozenset()

DEFAULT_STATE_CAP = 1 << 16


def state_cap(override=None):
    if override is not None:
        return override
    env = os.environ.get("TREEPROV_STATE_CAP")
    return int(env) if env else DEFAULT_STATE_CAP


class BNTA:
    """states/labels may be None for lazily-defined automata; project,
    if not None, is the projection of the module docstring, and step
    its partner: given a step, delta is None and is built from the two,
    and without one, step is delta."""

    def __init__(self, iota, delta, is_final, states=None, labels=None,
                 project=None, step=None):
        if step is None:
            step = delta
        elif delta is None:
            delta = _stepped(project, step)
        self.iota = iota
        self.delta = delta
        self.step = step
        self.is_final = is_final
        self.project = project
        self.states = list(states) if states is not None else None
        self.labels = set(labels) if labels is not None else None
        self.iota_map = None
        self.delta_map = None

    @classmethod
    def from_tables(cls, states, final, iota_map, delta_map):
        final = set(final)
        iota_map = {l: frozenset(v) for l, v in iota_map.items()}
        delta_map = {k: frozenset(v) for k, v in delta_map.items()}
        labels = set(iota_map) | {l for (_, _, l) in delta_map}
        a = cls(lambda l: iota_map.get(l, EMPTY),
                lambda q1, q2, l: delta_map.get((q1, q2, l), EMPTY),
                lambda q: q in final,
                states=states, labels=labels)
        a.iota_map = iota_map
        a.delta_map = delta_map
        a.final = final
        return a


def _stepped(project, step):
    """delta from a projection and a step on projected states."""

    def delta(q1, q2, l):
        p1 = project(q1, l)
        if p1 is None:
            return EMPTY
        p2 = project(q2, l)
        if p2 is None:
            return EMPTY
        return step(p1, p2, l)

    return delta


def memoized(automaton):
    """Cache iota/delta lookups (worthwhile for compiled automata)."""
    icache = {}
    dcache = {}
    iota, delta = automaton.iota, automaton.delta

    def miota(l):
        v = icache.get(l)
        if v is None:
            v = icache[l] = iota(l)
        return v

    def mdelta(q1, q2, l):
        key = (q1, q2, l)
        v = dcache.get(key)
        if v is None:
            v = dcache[key] = delta(q1, q2, l)
        return v

    return BNTA(miota, mdelta, automaton.is_final,
                states=automaton.states, labels=automaton.labels)


def reachable_sets(automaton, root):
    """Per-node sets of states reachable by some run on the subtree."""
    out = {}
    for n in postorder(root):
        if n.is_leaf():
            out[id(n)] = automaton.iota(n.label)
        else:
            acc = set()
            for q1 in out[id(n.left)]:
                for q2 in out[id(n.right)]:
                    acc |= automaton.delta(q1, q2, n.label)
            out[id(n)] = frozenset(acc)
    return out

def accepts(automaton, root):
    states = reachable_sets(automaton, root)[id(root)]
    return any(automaton.is_final(q) for q in states)


def count_runs(automaton, root):
    """Exact number of accepting runs (big integers)."""
    counts = {}
    for n in postorder(root):
        acc = {}
        if n.is_leaf():
            for q in automaton.iota(n.label):
                acc[q] = 1
        else:
            lc = counts[id(n.left)]
            rc = counts[id(n.right)]
            for q1, c1 in lc.items():
                for q2, c2 in rc.items():
                    for q in automaton.delta(q1, q2, n.label):
                        acc[q] = acc.get(q, 0) + c1 * c2
        counts[id(n)] = acc
    return sum(c for q, c in counts[id(root)].items()
               if automaton.is_final(q))


# ---------------------------------------------------------------------------
# Closure constructions


def relabel_hom(automaton, h):
    """Automaton over a new alphabet accepting T iff the original accepts
    the label-wise image h(T); run counts preserved."""
    return BNTA(lambda l: automaton.iota(h(l)),
                lambda q1, q2, l: automaton.delta(q1, q2, h(l)),
                automaton.is_final, states=automaton.states)


def lift_boolean(automaton):
    """From labels tau to (tau, b): behaves on (tau,0) as on neuter(tau)."""
    return relabel_hom(automaton, lambda lab: teval_label(lab[0], lab[1]))


def monotonize(automaton):
    """Cumulative-union construction: annotation i reads as any of 0..i."""

    def iota(lab):
        tau, i = lab
        acc = set()
        for j in range(0, i + 1):
            acc |= automaton.iota((tau, j))
        return frozenset(acc)

    def delta(q1, q2, lab):
        tau, i = lab
        acc = set()
        for j in range(0, i + 1):
            acc |= automaton.delta(q1, q2, (tau, j))
        return frozenset(acc)

    return BNTA(iota, delta, automaton.is_final, states=automaton.states)


def union(automata):
    """Disjoint union: run counts add."""
    automata = list(automata)

    def iota(l):
        acc = set()
        for i, a in enumerate(automata):
            acc |= {(i, q) for q in a.iota(l)}
        return frozenset(acc)

    def delta(s1, s2, l):
        i, q1 = s1
        j, q2 = s2
        if i != j:
            return EMPTY
        states = automata[i].delta(q1, q2, l)
        return frozenset((i, q) for q in states) if states else EMPTY

    def is_final(s):
        i, q = s
        return automata[i].is_final(q)

    states = None
    if all(a.states is not None for a in automata):
        states = [(i, q) for i, a in enumerate(automata) for q in a.states]
    return BNTA(iota, delta, is_final, states=states)


def intersect(a1, a2):
    """Product construction: run counts multiply."""

    def iota(l):
        r1, r2 = a1.iota(l), a2.iota(l)
        return frozenset((x, y) for x in r1 for y in r2)

    def delta(s1, s2, l):
        r1 = a1.delta(s1[0], s2[0], l)
        if not r1:
            return EMPTY
        r2 = a2.delta(s1[1], s2[1], l)
        return frozenset((x, y) for x in r1 for y in r2)

    def is_final(s):
        return a1.is_final(s[0]) and a2.is_final(s[1])

    states = None
    if a1.states is not None and a2.states is not None:
        states = [(x, y) for x in a1.states for y in a2.states]
    return BNTA(iota, delta, is_final, states=states)


def materialize(automaton, labels, cap=None):
    """Table-backed copy of a lazily-defined automaton, restricted to the
    states reachable over the given finite label universe.  A worklist
    explorer: each round asks delta once for every (q1, q2, label) with a
    state found in the round before."""
    labels = list(labels)
    cap = state_cap(cap)
    iota_map = {}
    states = []
    seen = set()

    def note(qs):
        for q in qs:
            if q not in seen:
                seen.add(q)
                states.append(q)
                if len(states) > cap:
                    raise StateBlowup("materialization exceeded %d states"
                                      % cap)

    for l in labels:
        s = automaton.iota(l)
        if s:
            iota_map[l] = s
            note(s)
    delta_map = {}
    done = 0
    while done < len(states):
        known = list(states)
        old, new = known[:done], known[done:]
        done = len(known)
        for q1, q2 in itertools.chain(itertools.product(new, known),
                                      itertools.product(old, new)):
            for l in labels:
                s = automaton.delta(q1, q2, l)
                if s:
                    delta_map[(q1, q2, l)] = s
                    note(s)
    final = {q for q in states if automaton.is_final(q)}
    return BNTA.from_tables(states, final, iota_map, delta_map)


def determinize(automaton, labels=None, cap=None):
    """Explicit subset construction over a finite label universe."""
    if labels is None:
        labels = automaton.labels
    if labels is None:
        raise ValueError("determinize needs a finite label universe")
    return materialize(lazy_determinize(automaton, cap), labels, cap)


def lazy_determinize(automaton, cap=None):
    """Subset construction evaluated on demand; states are frozensets of
    the underlying states; the cap counts distinct subsets seen."""
    cap = state_cap(cap)
    seen = set()

    def note(s):
        if s not in seen:
            seen.add(s)
            if len(seen) > cap:
                raise StateBlowup("determinization exceeded %d states" % cap)
        return s

    def iota(l):
        s = automaton.iota(l)
        if not s:
            return EMPTY
        return frozenset([note(frozenset(s))])

    def delta(s1, s2, l):
        acc = set()
        for q1 in s1:
            for q2 in s2:
                acc |= automaton.delta(q1, q2, l)
        if not acc:
            return EMPTY
        return frozenset([note(frozenset(acc))])

    def is_final(s):
        return any(automaton.is_final(q) for q in s)

    return BNTA(iota, delta, is_final)


# ---------------------------------------------------------------------------
# JSON (table-backed automata; this is the user-supplied-automaton format)


def _ser_label(label):
    if isinstance(label, tuple) and len(label) == 2 and isinstance(label[1], int):
        out = label_to_json(label[0])
        out["ann"] = label[1]
        return out
    return label_to_json(label)


def _de_label(data, where):
    base = label_from_json(data, where)
    if "ann" not in data:
        return base
    if type(data["ann"]) is not int:
        raise ValueError("%s 'ann' is not an integer" % where)
    return (base, data["ann"])


def automaton_to_json(automaton):
    if automaton.iota_map is None:
        raise ValueError("only table-backed automata serialize")
    states = automaton.states
    idx = {q: i for i, q in enumerate(states)}
    return {
        "states": [str(q) for q in states],
        "final": sorted(idx[q] for q in states if automaton.is_final(q)),
        "iota": [{"label": _ser_label(l),
                  "states": sorted(idx[q] for q in v)}
                 for l, v in automaton.iota_map.items()],
        "delta": [{"left": idx[q1], "right": idx[q2],
                   "label": _ser_label(l),
                   "states": sorted(idx[q] for q in v)}
                  for (q1, q2, l), v in automaton.delta_map.items()],
    }


def automaton_from_json(data):
    """A table-backed automaton read from JSON, or ValueError naming the
    field that is missing or of the wrong type."""
    n = len(json_list(data, "states", "automaton"))

    def state(q, where):
        if type(q) is not int or not 0 <= q < n:
            raise ValueError("%s is %r, not a state index below %d"
                             % (where, q, n))
        return q

    def state_at(e, key, where):
        return state(json_field(e, key, where), "%s %r" % (where, key))

    def targets(e, where):
        return frozenset(state(q, where + " 'states'")
                         for q in json_list(e, "states", where))

    final = {state(q, "automaton 'final'")
             for q in json_list(data, "final", "automaton")}
    iota_map = {}
    for e in json_list(data, "iota", "automaton"):
        label = _de_label(json_field(e, "label", "iota entry"), "iota label")
        iota_map[label] = targets(e, "iota entry")
    delta_map = {}
    for e in json_list(data, "delta", "automaton"):
        key = (state_at(e, "left", "delta entry"),
               state_at(e, "right", "delta entry"),
               _de_label(json_field(e, "label", "delta entry"),
                         "delta label"))
        delta_map[key] = targets(e, "delta entry")
    return BNTA.from_tables(range(n), final, iota_map, delta_map)
