"""Acceptance gate: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import itertools
import random
import time
from fractions import Fraction

from treeprov.automata import count_runs, lift_boolean, memoized
from treeprov.circuits import (NAT, POSBOOL, Polynomial, eval_bool_vector,
                               expand_polynomial)
from treeprov.encoding import KFact
from treeprov.prob import (BIDInstance, count_matches, message_passing_prob,
                           pc_to_pcc, query_probability_bid,
                           query_probability_pcc)
from treeprov.provcirc import (ALL, bool_provenance_circuit,
                               nx_provenance_circuit,
                               query_provenance_circuit)
from treeprov.prxml import (fie_to_pc, muxind_to_binary, muxind_to_fie,
                            prxml_query_probability, scope_width)
from treeprov.relational import (Fact, Instance, check_decomposition,
                                 make_instance, subinstance,
                                 tree_decomposition)
from treeprov.trees import Node, postorder, size
from treeprov.ucq import (CQ, UCQ, Atom, compile_bool, enumerate_matches,
                          nx_provenance, nx_provenance_bruteforce, parse_ucq,
                          satisfies)

from genutil import (rand_bid, rand_cq, rand_decomposed_circuit, rand_doc,
                     rand_instance, rand_p_automaton, rand_pc, rand_pcc,
                     rand_tree, rand_ucq)
from oracles import (bid_worlds, brute_force_prob, fie_worlds,
                     label_worlds, muxind_worlds, pc_worlds, pcc_worlds)

EXAMPLE_INSTANCE = make_instance(
    {"R": 2}, [("R", ("a", "a")), ("R", ("b", "c")), ("R", ("c", "b"))])
EXAMPLE_QUERY = parse_ucq("R(x,y),R(y,x)")


def report(n, text):
    print("\nCRITERION %d (%s): PASS" % (n, text))


def test_criterion_1_worked_example():
    start = time.monotonic()
    poly = expand_polynomial(nx_provenance(EXAMPLE_QUERY, EXAMPLE_INSTANCE))
    assert str(poly) == "F1^2 + 2*F2*F3"
    for bits in itertools.product((0, 1), repeat=3):
        nu = dict(zip(("F1", "F2", "F3"), bits))
        want = bool(nu["F1"]) or (bool(nu["F2"]) and bool(nu["F3"]))
        got = poly.evaluate(POSBOOL, {f: bool(b) for f, b in nu.items()})
        assert got == want
    assert poly.evaluate(NAT, {"F1": 1, "F2": 1, "F3": 1}) == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "worked example took %.2fs" % elapsed
    report(1, "worked example, exact in %.2fs" % elapsed)


def test_criterion_2_bool_provenance_oracle():
    rng = random.Random(1002)
    start = time.monotonic()
    done = 0
    while done < 200:
        inst = rand_instance(rng, max_facts=7, max_dom=4)
        if tree_decomposition(inst).width > 2:
            continue
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=3)
        res, _enc = query_provenance_circuit(compile_bool(q), inst, 2)
        fids = [f.id for f in inst.facts]
        n = len(fids)
        width = 1 << n
        vec = {}
        for i, fid in enumerate(fids):
            mask = 0
            for v in range(width):
                if (v >> i) & 1:
                    mask |= 1 << v
            vec[fid] = mask
        out = eval_bool_vector(res.circuit, vec, width)
        for v in range(width):
            val = {fid: (v >> i) & 1 for i, fid in enumerate(fids)}
            assert ((out >> v) & 1) == satisfies(q, subinstance(inst, val))
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, "criterion 2 took %.1fs" % elapsed
    report(2, "%d Boolean provenance pairs vs subinstance oracle in %.1fs"
           % (done, elapsed))


def test_criterion_3_nx_oracle():
    rng = random.Random(1003)
    start = time.monotonic()
    done = 0
    while done < 100:
        cq = rand_cq(rng, max_atoms=3)
        inst = rand_instance(rng, max_facts=6, max_dom=3)
        got = expand_polynomial(nx_provenance(cq, inst))
        assert got == nx_provenance_bruteforce(UCQ((cq,)), inst)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, "criterion 3 took %.1fs" % elapsed
    report(3, "%d N[X] provenance pairs vs brute force in %.1fs"
           % (done, elapsed))


def _with_anns(t, anns):
    def rebuild(n):
        lab = (n.label, anns[id(n)])
        if n.is_leaf():
            return Node(lab)
        return Node(lab, rebuild(n.left), rebuild(n.right))

    return rebuild(t)


def _nx_tree_bruteforce(a, t, l, p):
    """Sum over all (p+1)^{|T|} annotations of run count x monomial."""
    nodes = postorder(t)
    total = Polynomial()
    for anns in itertools.product(range(p + 1), repeat=len(nodes)):
        if l != ALL and sum(anns) != l:
            continue
        amap = {id(n): v for n, v in zip(nodes, anns)}
        runs = count_runs(a, _with_anns(t, amap))
        if not runs:
            continue
        term = Polynomial.constant(runs)
        for n, v in zip(nodes, anns):
            for _ in range(v):
                term = term * Polynomial.variable(id(n))
        total = total + term
    return total


def _rename_poly(poly, mapping):
    out = {}
    for m, c in poly.monomials.items():
        key = tuple(sorted(((mapping[v], e) for v, e in m), key=repr))
        out[key] = out.get(key, 0) + c
    return Polynomial(out)


def test_criterion_4_tree_level_nx_oracle():
    rng = random.Random(1004)
    p = 2
    for _ in range(30):
        a = rand_p_automaton(rng, ("a", "b"), p=p, n_states=3)
        t = rand_tree(rng, rng.randint(1, 3))  # up to 5 tree nodes
        assert size(t) <= 6
        for l in (ALL, 0, 1, 2, 3):
            res = nx_provenance_circuit(a, t, l=l, p=p)
            got = expand_polynomial(res.circuit)
            mapping = {res.input_map[id(n)]: id(n) for n in postorder(t)}
            assert _rename_poly(got, mapping) == _nx_tree_bruteforce(a, t, l, p)
    report(4, "tree-level N[X] circuits, l-restricted and unrestricted, "
              "vs full valuation enumeration")


def _world_dist(worlds):
    out = {}
    for inst, w in worlds:
        key = frozenset(inst.fact_keys())
        out[key] = out.get(key, Fraction(0)) + w
    return out


def _pr_oracle(worlds, q):
    return sum((w for inst, w in worlds if satisfies(q, inst)), Fraction(0))


def test_criterion_5_probability():
    rng = random.Random(1005)
    done = 0
    while done < 200:
        circuit, decomp, probs = rand_decomposed_circuit(rng, max_bags=6)
        if len(circuit.inputs()) > 12:
            continue
        assert decomp.width <= 4
        got = message_passing_prob(circuit, decomp, probs)
        assert got == brute_force_prob(circuit, probs)
        done += 1
    checks = []
    for _ in range(10):
        pcc = rand_pcc(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        assert query_probability_pcc(q, pcc) == _pr_oracle(pcc_worlds(pcc), q)
    for _ in range(10):
        pc = rand_pc(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2)
        assert query_probability_pcc(q, pc_to_pcc(pc)) == \
            _pr_oracle(pc_worlds(pc), q)
    for _ in range(8):
        bid = rand_bid(rng)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2, signature={"R": 2})
        assert query_probability_bid(q, bid) == _pr_oracle(bid_worlds(bid), q)
    for _ in range(8):
        doc = rand_doc(rng, max_choices=4)
        fie = muxind_to_fie(muxind_to_binary(doc))
        pc = fie_to_pc(fie)
        # any unary label present in the document; P_fie, the label of
        # its choice nodes, holds in no world
        labels = sorted({f.rel for f in pc.instance.facts
                         if f.rel not in ("FC", "NS")})
        q = parse_ucq("%s(x)" % rng.choice(labels))
        assert prxml_query_probability(q, doc) == \
            _pr_oracle(label_worlds(doc), q)
    report(5, "%d message-passing circuits plus pcc/pc/BID/PrXML "
              "probabilities vs possible-world enumeration" % done)


def _balanced_tree(n, label):
    """Balanced binary full tree with exactly n nodes (n odd)."""
    if n == 1:
        return Node(label)
    left_n = (n - 1) // 2
    if left_n % 2 == 0:
        left_n -= 1
    return Node(label, _balanced_tree(left_n, label),
                _balanced_tree(n - 1 - left_n, label))


def test_criterion_6_structural_bounds():
    automaton = memoized(lift_boolean(compile_bool(EXAMPLE_QUERY)))
    label = KFact(frozenset({1, 2}), "R", (1, 2))
    sizes = {}
    widths = set()
    ns = [11, 101, 1001, 10001]  # closest odd sizes to 10..10000
    for n in ns:
        t = _balanced_tree(n, label)
        assert size(t) == n
        res = bool_provenance_circuit(automaton, t)
        sizes[n] = len(res.circuit)
        widths.add(res.decomposition.width)
    assert len(widths) == 1
    slope = Fraction(sizes[ns[-1]] - sizes[ns[-2]], ns[-1] - ns[-2])
    intercept = sizes[ns[-1]] - slope * ns[-1]
    for n in ns:
        predicted = slope * n + intercept
        assert abs(sizes[n] - predicted) <= Fraction(5, 100) * sizes[n], \
            "size %d at |T|=%d deviates from linear fit" % (sizes[n], n)
    report(6, "circuit sizes %s over |T| %s are linear within 5%%, "
              "decomposition width %d throughout"
           % ([sizes[n] for n in ns], ns, widths.pop()))


def test_criterion_7_treewidth_sanity():
    tree = make_instance({"E": 2}, [("E", ("v%d" % (i // 2), "v%d" % (i + 1)))
                                    for i in range(6)])
    cycle = make_instance({"E": 2}, [("E", ("v%d" % i, "v%d" % ((i + 1) % 6)))
                                     for i in range(6)])
    triangle = make_instance({"E": 2}, [("E", ("x", "y")), ("E", ("y", "z")),
                                        ("E", ("z", "x"))])
    for inst, want in ((tree, 1), (cycle, 2), (triangle, 2)):
        decomp = tree_decomposition(inst)
        assert decomp.width == want
        assert check_decomposition(inst, decomp)
    report(7, "tree width 1, cycle width 2, triangle width 2")


def test_criterion_8_counting():
    rng = random.Random(1008)
    done = 0
    while done < 100:
        if done % 10 == 9:
            free = ("x", "y")
            inst = rand_instance(rng, max_facts=3, max_dom=2)
        else:
            free = ("x",)
            inst = rand_instance(rng, max_facts=4, max_dom=3)
        q = rand_ucq(rng, max_disjuncts=2, max_atoms=2, free=free)
        want = len({tuple(m[x] for x in free)
                    for _, m in enumerate_matches(q, inst)})
        got = count_matches(q, inst)
        assert got == want
        # coherence with the reduction's probability
        pr = _reduction_probability(q, inst)
        assert got == pr * Fraction(len(inst.domain)) ** len(free)
        done += 1
    report(8, "%d counting cases vs match projection, coherent with the "
              "probability reduction" % done)


def _reduction_probability(q, inst):
    """The probability the counting reduction is based on, computed
    independently of count_matches."""
    free = tuple(q.free)
    dom = inst.domain
    sig = dict(inst.signature)
    key_positions = {r: tuple(range(a)) for r, a in sig.items()}
    facts = list(inst.facts)
    probs = {f.id: Fraction(1) for f in inst.facts}
    n = 0
    for x in free:
        rel = ("Cnt", x)
        sig[rel] = 1
        key_positions[rel] = ()
        for a in dom:
            n += 1
            fid = ("cnt", n)
            facts.append(Fact(rel, (a,), fid))
            probs[fid] = Fraction(1, len(dom))
    bid = BIDInstance(Instance(sig, facts), key_positions, probs)
    q2 = UCQ(tuple(CQ(d.atoms + tuple(Atom(("Cnt", x), (x,)) for x in free),
                      d.diseqs)
                   for d in q.disjuncts))
    return query_probability_bid(q2, bid)


def _fie_fact_ids(doc):
    """Fact id of each node's P-fact, replicating the pc-encoding's
    traversal order."""
    counter = [0]
    fid_of = {}

    def walk(node):
        counter[0] += 1
        fid_of[id(node)] = "F%d" % counter[0]
        kids = node.children
        if kids:
            counter[0] += 1  # FC fact
        counter[0] += max(0, len(kids) - 1)  # NS facts
        for _, c in kids:
            walk(c)

    walk(doc.root)
    return fid_of


def _rebuild_world(doc, present):
    """Document world induced by the per-node presence flags of the
    pc-encoding (ancestor closure applied by the recursion)."""

    def forest(node):
        if node.kind == "regular":
            kids = []
            for _, c in node.children:
                kids.extend(forest(c))
            return (("t", node.label, tuple(kids)),)
        # fie node: keep the children whose P-fact survived
        out = []
        for _, c in node.children:
            if present[id(c)]:
                out.extend(forest(c))
        return tuple(out)

    return forest(doc.root)[0]


def test_criterion_9_prxml():
    rng = random.Random(1009)
    for i in range(50):
        doc = rand_doc(rng, max_choices=6)
        binary = muxind_to_binary(doc)
        dist = muxind_worlds(doc)
        assert muxind_worlds(binary) == dist
        fie = muxind_to_fie(binary)
        assert fie_worlds(fie) == dist
        assert scope_width(fie) <= 1
        # fie -> pc preserves the distribution: rebuild each world from
        # the pc-encoding's fact presence flags
        pc = fie_to_pc(fie)
        fid_of = _fie_fact_ids(fie)
        from treeprov.prxml import doc_nodes
        from treeprov.prob import eval_formula
        events = sorted(pc.events)
        dist2 = {}
        for bits in itertools.product((0, 1), repeat=len(events)):
            nu = dict(zip(events, bits))
            w = Fraction(1)
            for e, b in nu.items():
                w *= pc.events[e] if b else 1 - pc.events[e]
            if not w:
                continue
            present = {}
            for node in doc_nodes(fie.root):
                cond = pc.conds.get(fid_of[id(node)], ("const", True))
                present[id(node)] = eval_formula(cond, nu)
            tree = _rebuild_world(fie, present)
            dist2[tree] = dist2.get(tree, Fraction(0)) + w
        assert dist2 == dist
    report(9, "50 documents: binary, fie, and pc stages preserve the "
              "world distribution; fie scope width <= 1")
