"""Correctness oracles for the benchmark.

They are written from the definitions, apart from the treeprov code they
check: a backtracking CQ matcher, a circuit evaluator over
``Circuit.gates``, closed forms for the path query, possible-world
enumerators for BID and pc inputs, and a bottom-up recursion for mux/ind
PrXML documents.  Inputs are plain Python data:

- a fact is ``(fact id, relation, args tuple)``;
- a UCQ is a list of disjuncts ``(atoms, diseqs)``, an atom is
  ``(relation, variables tuple)``, a diseq is a pair of variables;
- a PrXML node is ``(label, kind, [(edge probability or None, node)])``
  with kind ``"regular"``, ``"ind"`` or ``"mux"``.
"""

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# CQ matching


def cq_matches(atoms, diseqs, facts):
    """All matches of one CQ: a list of (assignment, fact ids per atom).

    Backtracks over the atoms; every assignment is found once because a
    relation name and its arguments identify at most one fact."""
    by_rel = {}
    for fid, rel, args in facts:
        by_rel.setdefault(rel, []).append((fid, args))
    out = []
    asg = {}
    used = []

    def extend(i):
        if i == len(atoms):
            if all(asg[x] != asg[y] for x, y in diseqs):
                out.append((dict(asg), tuple(used)))
            return
        rel, variables = atoms[i]
        for fid, args in by_rel.get(rel, ()):
            bound = []
            ok = True
            for v, a in zip(variables, args):
                if v not in asg:
                    asg[v] = a
                    bound.append(v)
                elif asg[v] != a:
                    ok = False
                    break
            if ok:
                used.append(fid)
                extend(i + 1)
                used.pop()
            for v in bound:
                del asg[v]

    extend(0)
    return out


def ucq_matches(ucq, facts):
    """(disjunct index, assignment, fact ids) for every match of a UCQ."""
    return [(j, asg, fids)
            for j, (atoms, diseqs) in enumerate(ucq)
            for asg, fids in cq_matches(atoms, diseqs, facts)]


def holds(ucq, facts):
    return any(cq_matches(atoms, diseqs, facts) for atoms, diseqs in ucq)


def holds_mask(ucq, facts, fact_masks, full):
    """Bit i is set iff the UCQ holds in world i, where fact f is present
    in world i iff bit i of fact_masks[f] is set."""
    out = 0
    for _, _, fids in ucq_matches(ucq, facts):
        m = full
        for fid in fids:
            m &= fact_masks[fid]
        out |= m
    return out


def nx_polynomial(ucq, facts):
    """N[X] provenance as {monomial: coefficient}; a monomial is the
    sorted tuple of (fact id, exponent) pairs, one term per match."""
    poly = {}
    for _, _, fids in ucq_matches(ucq, facts):
        exps = {}
        for fid in fids:
            exps[fid] = exps.get(fid, 0) + 1
        mono = tuple(sorted(exps.items()))
        poly[mono] = poly.get(mono, 0) + 1
    return poly


def nat_value(poly, assignment):
    """Value of a {monomial: coefficient} polynomial in (N, +, *)."""
    total = 0
    for mono, coeff in poly.items():
        term = coeff
        for var, exp in mono:
            term *= assignment[var] ** exp
        total += term
    return total


def count_answers(ucq, free, facts):
    """Number of distinct free-variable tuples that extend to a match."""
    return len({tuple(asg[x] for x in free)
                for _, asg, _ in ucq_matches(ucq, facts)})


# ---------------------------------------------------------------------------
# Circuits


def eval_circuit(gates, output, inputs, kind, full=1):
    """Value of the output gate of ``gates`` (id -> (type, input ids)).

    kind "bool": inputs are bit masks of width ``full``; and/or/not act
    bitwise, so one pass evaluates many valuations.  kind "nat": inputs
    are natural numbers; add/mul are + and *.  Nullary and/mul are 1,
    nullary or/add are 0."""
    val = {}
    stack = [output]
    while stack:
        g = stack[-1]
        if g in val:
            stack.pop()
            continue
        t, ins = gates[g]
        pending = [i for i in ins if i not in val]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if t == "inp":
            val[g] = inputs[g]
        elif t == "not":
            val[g] = val[ins[0]] ^ full
        elif t in ("and", "mul"):
            v = full if t == "and" else 1
            for i in ins:
                v = (v & val[i]) if t == "and" else v * val[i]
            val[g] = v
        elif t in ("or", "add"):
            v = 0
            for i in ins:
                v = (v | val[i]) if t == "or" else v + val[i]
            val[g] = v
        else:
            raise ValueError("unknown gate type %r" % (t,))
    return val[output]


# ---------------------------------------------------------------------------
# Closed forms for R(x,y),R(y,z) on the directed path v0 -> ... -> vn


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def path_query_probability(n):
    """Pr[R(x,y),R(y,z)] when each of the n edges is kept with
    probability 1/2: the complement counts edge sets with no two
    consecutive edges, of which there are F(n+2)."""
    return 1 - Fraction(fibonacci(n + 2), 2 ** n)


def path_query_count(n):
    """Answers of R(x,y),R(y,z) with x free: x is v0 .. v(n-2)."""
    return max(n - 1, 0)


# ---------------------------------------------------------------------------
# Possible worlds


def bid_probability(blocks, query_holds):
    """Sum of world probabilities where ``query_holds(present fact ids)``;
    ``blocks`` is a list of [(fact id, probability)], at most one fact
    of a block is present and blocks are independent."""
    choices = []
    for block in blocks:
        none = 1 - sum((p for _, p in block), Fraction(0))
        choices.append([(None, none)] + list(block))
    total = Fraction(0)
    for combo in itertools.product(*choices):
        w = Fraction(1)
        for _, p in combo:
            w *= p
        if w and query_holds({fid for fid, _ in combo if fid is not None}):
            total += w
    return total


def eval_formula(f, nu):
    """Formula tuples: ("var", e), ("const", b), ("not", f),
    ("and", f, g), ("or", f, g)."""
    t = f[0]
    if t == "var":
        return bool(nu[f[1]])
    if t == "const":
        return bool(f[1])
    if t == "not":
        return not eval_formula(f[1], nu)
    if t == "and":
        return eval_formula(f[1], nu) and eval_formula(f[2], nu)
    if t == "or":
        return eval_formula(f[1], nu) or eval_formula(f[2], nu)
    raise ValueError("unknown formula node %r" % (t,))


def formula_events(f):
    if f[0] == "var":
        return {f[1]}
    if f[0] == "const":
        return set()
    return set().union(*(formula_events(g) for g in f[1:]))


def pc_probability(events, conds, query_holds):
    """Sum over event valuations: fact f is present iff conds[f] holds;
    ``events`` maps event name to probability."""
    names = sorted(events)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(names)):
        nu = dict(zip(names, bits))
        w = Fraction(1)
        for e, b in nu.items():
            w *= events[e] if b else 1 - events[e]
        if w and query_holds({fid for fid, f in conds.items()
                              if eval_formula(f, nu)}):
            total += w
    return total


# ---------------------------------------------------------------------------
# PrXML


def prxml_absent_probability(node, labels):
    """Pr[no node labelled in ``labels`` appears in the subtree of
    ``node``], given that ``node`` itself is reached.  ind children are
    kept independently; a mux keeps at most one child; ind and mux nodes
    do not appear in the documents they describe."""
    label, kind, children = node
    kids = [(p, prxml_absent_probability(c, labels)) for p, c in children]
    if kind == "regular":
        out = Fraction(0 if label in labels else 1)
        for _, a in kids:
            out *= a
        return out
    if kind == "ind":
        out = Fraction(1)
        for p, a in kids:
            out *= 1 - p + p * a
        return out
    if kind == "mux":
        return (1 - sum((p for p, _ in kids), Fraction(0))
                + sum((p * a for p, a in kids), Fraction(0)))
    raise ValueError("unknown node kind %r" % (kind,))


def prxml_label_probability(root, disjuncts):
    """Pr[some disjunct has all its labels present]; ``disjuncts`` is a
    list of label sets.  Inclusion-exclusion twice: over disjuncts, then
    over the labels whose absence is counted."""
    total = Fraction(0)
    for r in range(1, len(disjuncts) + 1):
        for group in itertools.combinations(disjuncts, r):
            need = sorted(set().union(*group))
            all_present = Fraction(0)
            for s in range(len(need) + 1):
                for absent in itertools.combinations(need, s):
                    all_present += ((-1) ** s
                                    * prxml_absent_probability(root,
                                                               set(absent)))
            total += (-1) ** (r + 1) * all_present
    return total
