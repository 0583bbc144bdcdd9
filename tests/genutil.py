"""Deterministic random generators shared by the test modules."""

import itertools
from fractions import Fraction

from treeprov.relational import (Bag, Fact, Instance, TreeDecomposition,
                                 make_instance)
from treeprov.trees import Node
from treeprov.ucq import CQ, UCQ, Atom
from treeprov.circuits import Circuit

SIGNATURE = {"R": 2, "S": 1}


def rand_instance(rng, max_facts=7, max_dom=5, signature=None):
    signature = signature or SIGNATURE
    dom = ["d%d" % i for i in range(1, rng.randint(2, max_dom) + 1)]
    keys = set()
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        rel = rng.choice(sorted(signature))
        args = tuple(rng.choice(dom) for _ in range(signature[rel]))
        if (rel, args) in keys:
            continue
        keys.add((rel, args))
        facts.append(Fact(rel, args, "F%d" % (len(facts) + 1)))
    return Instance(signature, facts)


def rand_cq(rng, max_atoms=3, signature=None, vars=("x", "y", "z", "w"),
            diseq=False):
    """With diseq, two of the CQ's variables, if it has two, must be
    distinct."""
    signature = signature or SIGNATURE
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = rng.choice(sorted(signature))
        atoms.append(Atom(rel, tuple(rng.choice(vars)
                                     for _ in range(signature[rel]))))
    cq = CQ(tuple(atoms))
    if diseq and len(cq.variables) > 1:
        return CQ(cq.atoms,
                  frozenset([frozenset(rng.sample(cq.variables, 2))]))
    return cq


def rand_ucq(rng, max_disjuncts=2, max_atoms=3, signature=None, free=(),
             diseq=False):
    ds = tuple(rand_cq(rng, max_atoms, signature, diseq=diseq)
               for _ in range(rng.randint(1, max_disjuncts)))
    if free:
        # make sure the free variables occur in every disjunct
        ds = tuple(CQ(d.atoms + tuple(Atom("S", (x,)) for x in free
                                      if x not in d.variables), d.diseqs)
                   for d in ds)
    return UCQ(ds, tuple(free))


def rand_tree(rng, n_nodes, labels=("a", "b")):
    """Random binary full tree with at least n_nodes leaves-ish size."""
    leaves = [Node(rng.choice(labels)) for _ in range(max(1, n_nodes))]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        left = leaves.pop(i)
        right = leaves.pop(i)
        leaves.insert(i, Node(rng.choice(labels), left, right))
    return leaves[0]


def rand_bool_automaton(rng, labels, n_states=3):
    """Random table-backed bNTA over (label, {0,1})."""
    from treeprov.automata import BNTA

    states = list(range(n_states))
    iota_map = {}
    delta_map = {}
    for l in labels:
        for b in (0, 1):
            s = [q for q in states if rng.random() < 0.5]
            if s:
                iota_map[(l, b)] = frozenset(s)
            for q1 in states:
                for q2 in states:
                    t = [q for q in states if rng.random() < 0.3]
                    if t:
                        delta_map[(q1, q2, (l, b))] = frozenset(t)
    final = {q for q in states if rng.random() < 0.5} or {states[0]}
    return BNTA.from_tables(states, final, iota_map, delta_map)


def rand_p_automaton(rng, labels, p=2, n_states=3):
    """Random table-backed bNTA over (label, {0..p})."""
    from treeprov.automata import BNTA

    states = list(range(n_states))
    iota_map = {}
    delta_map = {}
    for l in labels:
        for b in range(p + 1):
            s = [q for q in states if rng.random() < 0.5]
            if s:
                iota_map[(l, b)] = frozenset(s)
            for q1 in states:
                for q2 in states:
                    t = [q for q in states if rng.random() < 0.3]
                    if t:
                        delta_map[(q1, q2, (l, b))] = frozenset(t)
    final = {q for q in states if rng.random() < 0.5} or {states[0]}
    return BNTA.from_tables(states, final, iota_map, delta_map)


def rand_fraction(rng, den_max=10):
    den = rng.randint(1, den_max)
    num = rng.randint(0, den)
    return Fraction(num, den)


def rand_pcc(rng, max_facts=4):
    """Random pcc-instance with a small gate circuit."""
    from treeprov.prob import PCCInstance

    inst = rand_instance(rng, max_facts=max_facts, max_dom=3)
    gates = {}
    inputs = []
    for i in range(rng.randint(1, 3)):
        g = ("x", i)
        gates[g] = ("inp", ())
        inputs.append(g)
    pool = list(inputs)
    for i in range(rng.randint(0, 3)):
        t = rng.choice(("and", "or", "not"))
        if t == "not":
            ins = (rng.choice(pool),)
        else:
            ins = tuple(rng.sample(pool, min(2, len(pool))))
            if len(ins) < 2:
                ins = ()
        g = ("g", i)
        gates[g] = (t, ins)
        pool.append(g)
    gates[("one",)] = ("and", ())
    pool.append(("one",))
    circuit = Circuit("bool", gates, rng.choice(pool))
    phi = {f.id: rng.choice(pool) for f in inst.facts}
    probs = {g: rand_fraction(rng) for g in inputs}
    return PCCInstance(inst, circuit, phi, probs)


def rand_pc(rng, max_events=3, max_facts=4):
    """Random pc-instance with small event formulas."""
    from treeprov.prob import PCInstance

    inst = rand_instance(rng, max_facts=max_facts, max_dom=3)
    events = {"e%d" % i: rand_fraction(rng)
              for i in range(1, rng.randint(1, max_events) + 1)}
    names = sorted(events)

    def rand_formula(depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            return ("var", rng.choice(names))
        if r < 0.55:
            return ("not", rand_formula(depth - 1))
        op = "and" if r < 0.8 else "or"
        return (op, rand_formula(depth - 1), rand_formula(depth - 1))

    conds = {f.id: rand_formula(2) for f in inst.facts
             if rng.random() < 0.8}
    return PCInstance(inst, conds, events)


def rand_bid(rng, max_facts=5):
    """Random BID instance keyed on the first column."""
    from treeprov.prob import BIDInstance

    dom = ["d%d" % i for i in range(1, 4)]
    facts = []
    seen = set()
    for _ in range(rng.randint(1, max_facts)):
        args = (rng.choice(dom), rng.choice(dom))
        if ("R", args) in seen:
            continue
        seen.add(("R", args))
        facts.append(("R", args))
    inst = make_instance({"R": 2}, facts)
    blocks = {}
    for f in inst.facts:
        blocks.setdefault(f.args[0], []).append(f)
    probs = {}
    for key, bf in blocks.items():
        weights = [rng.randint(1, 5) for _ in bf]
        den = sum(weights) + rng.randint(0, 3)
        for f, w in zip(bf, weights):
            probs[f.id] = Fraction(w, den)
    return BIDInstance(inst, {"R": (0,)}, probs)


DOC_LABELS = ("a", "b", "c")


def rand_doc(rng, max_choices=6):
    """Random mux/ind document with a bounded number of choice edges."""
    from treeprov.prxml import PrXMLDoc, PrXMLNode

    budget = [rng.randint(1, max_choices)]

    def build(depth, kind):
        if kind == "regular":
            n = PrXMLNode(rng.choice(DOC_LABELS))
            for _ in range(rng.randint(0, 2)):
                if depth <= 0:
                    break
                ck = rng.choice(("regular", "mux", "ind"))
                if ck != "regular" and budget[0] <= 0:
                    ck = "regular"
                n.children.append((None, build(depth - 1, ck)))
            return n
        n = PrXMLNode(kind, kind)
        k = rng.randint(1, 2)
        probs = [rand_fraction(rng, den_max=4) for _ in range(k)]
        if kind == "mux":
            total = sum(probs)
            if total > 1:
                probs = [p / total for p in probs]
        for p in probs:
            if budget[0] <= 0:
                break
            budget[0] -= 1
            n.children.append((p, build(depth - 1, "regular")))
        if not n.children:
            return PrXMLNode(rng.choice(DOC_LABELS))
        return n

    return PrXMLDoc(build(3, "regular"))


def rand_wide_doc(rng):
    """Random mux/ind document whose nodes have 3-5 children: a regular
    root over leaves, one ind and one mux node, each choosing among
    leaves and at most one regular node over 3-5 leaves."""
    from treeprov.prxml import PrXMLDoc, PrXMLNode

    def leaf():
        return PrXMLNode(rng.choice(DOC_LABELS))

    def choice(kind):
        kids = [leaf() for _ in range(rng.randint(3, 5))]
        if rng.random() < 0.5:
            kids[0].children = [(None, leaf())
                                for _ in range(rng.randint(3, 5))]
        probs = [rand_fraction(rng, den_max=4) for _ in kids]
        total = sum(probs)
        if kind == "mux" and total > 1:
            probs = [p / total for p in probs]
        return PrXMLNode(kind, kind, list(zip(probs, kids)))

    kids = [choice("ind"), choice("mux")]
    kids += [leaf() for _ in range(rng.randint(1, 3))]
    rng.shuffle(kids)
    return PrXMLDoc(PrXMLNode(rng.choice(DOC_LABELS),
                              children=[(None, c) for c in kids]))


def rand_decomposed_circuit(rng, max_bags=8, max_bag=5, not_prob=0.2):
    """Random Boolean arity-two circuit together with a valid tree
    decomposition of bounded width, built decomposition-first."""
    counter = itertools.count()
    root_dom = [next(counter) for _ in range(rng.randint(1, max_bag))]
    bags = []

    def build(dom, depth):
        bag = Bag(set(dom))
        bags.append((bag, list(dom)))
        kids = []
        if depth > 0 and len(bags) < max_bags and rng.random() < 0.8:
            for _ in range(rng.randint(1, 2)):
                keep = [e for e in dom if rng.random() < 0.6]
                fresh = [next(counter)
                         for _ in range(rng.randint(0, max_bag - len(keep)))]
                kids.append(build(keep + fresh, depth - 1))
        bag.children = kids
        return bag

    root = build(root_dom, 3)
    # choose a defining bag and inputs for every gate; inputs must be
    # older gates from the same bag (keeps the circuit acyclic)
    containing = {}
    for bag, dom in bags:
        for e in dom:
            containing.setdefault(e, []).append(bag)
    gates = {}
    for g in sorted(containing):
        bag = rng.choice(containing[g])
        older = [e for e in sorted(bag.dom) if e < g]
        rng.shuffle(older)
        if not older or rng.random() < 0.4:
            gates[g] = ("inp", ())
        elif rng.random() < not_prob:
            gates[g] = ("not", (older[0],))
        elif len(older) >= 2:
            gates[g] = (rng.choice(("and", "or")), tuple(older[:2]))
        else:
            gates[g] = ("not", (older[0],))
    output = max(gates)
    circuit = Circuit("bool", gates, output)
    probs = {g: rand_fraction(rng) for g, (t, _) in gates.items() if t == "inp"}
    return circuit, TreeDecomposition(root, normalized=True), probs
