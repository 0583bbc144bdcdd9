import random
from fractions import Fraction

import pytest

from treeprov.prob import parse_formula, pc_width
from treeprov.errors import NoDecomposition
from treeprov.prxml import (PrXMLDoc, PrXMLNode, _layout, doc_from_json,
                            doc_nodes, doc_to_json, fie_to_pc, lcrs,
                            muxind_to_binary, muxind_to_fie,
                            prxml_query_probability, scope_width, unlcrs,
                            xml_relational_encoding)
from treeprov.relational import tree_decomposition
from treeprov.ucq import parse_ucq, satisfies

from genutil import rand_doc, rand_wide_doc
from oracles import (binary_doc_worlds, doc_canon, fie_worlds, label_worlds,
                     muxind_worlds)


def test_doc_validation():
    with pytest.raises(ValueError):
        PrXMLDoc(PrXMLNode("m", "mux"))
    bad_mux = PrXMLNode("r", "regular",
                        [(None, PrXMLNode("m", "mux",
                                          [(Fraction(3, 4), PrXMLNode("a")),
                                           (Fraction(1, 2), PrXMLNode("b"))]))])
    with pytest.raises(ValueError):
        PrXMLDoc(bad_mux)
    bad_fie = PrXMLNode("r", "regular",
                        [(None, PrXMLNode("f", "fie",
                                          [(("var", "e"), PrXMLNode("a"))]))])
    with pytest.raises(ValueError):
        PrXMLDoc(bad_fie)  # event e undeclared
    PrXMLDoc(bad_fie, {"e": Fraction(1, 2)})  # fine when declared
    for kind, p in (("ind", Fraction(3, 2)), ("ind", Fraction(-1, 2)),
                    ("mux", Fraction(-1, 2))):
        with pytest.raises(ValueError, match="outside"):
            PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
                kind, kind, [(p, PrXMLNode("a"))]))]))
    for p in (Fraction(3, 2), Fraction(-1, 5)):
        with pytest.raises(ValueError, match="event e has probability"):
            PrXMLDoc(bad_fie, {"e": p})
    PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
        "i", "ind", [(Fraction(0), PrXMLNode("a")),
                     (Fraction(1), PrXMLNode("b"))]))]), {"e": 1})


def fie_document(n):
    """A fie node with n children below a regular root."""
    return PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
        "f", "fie", [(("var", "e"), PrXMLNode("a")) for _ in range(n)]))]),
        {"e": Fraction(1, 2)})


def test_fie_nodes_refused():
    """The binary form, and so the probability, takes mux/ind documents
    only: a fie node is refused by name, whatever its number of
    children."""
    for n in (1, 2, 3):
        doc = fie_document(n)
        with pytest.raises(ValueError, match="fie node 'f'"):
            muxind_to_binary(doc)
        with pytest.raises(ValueError, match="fie node 'f'"):
            prxml_query_probability(parse_ucq("P_a(x)"), doc)


def test_lcrs_roundtrip():
    rng = random.Random(91)
    for _ in range(30):
        doc = rand_doc(rng)
        back = unlcrs(lcrs(doc.root))
        assert doc_canon(back) == doc_canon(doc.root)


def test_lcrs_binary_full_with_bot_pads():
    rng = random.Random(92)
    doc = rand_doc(rng)
    t = lcrs(doc.root)
    stack = [t]
    n_source = len(doc_nodes(doc.root))
    n_labeled = 0
    while stack:
        n = stack.pop()
        assert (n.left is None) == (n.right is None)
        if n.label is None:
            assert n.is_leaf()
        else:
            n_labeled += 1
        if not n.is_leaf():
            stack.extend((n.left, n.right))
    assert n_labeled == n_source


def test_xml_relational_encoding():
    doc = PrXMLDoc(PrXMLNode("r", "regular",
                             [(None, PrXMLNode("a")),
                              (None, PrXMLNode("b",
                                               children=[(None,
                                                          PrXMLNode("a"))]))]))
    inst = xml_relational_encoding(doc.root)
    keys = inst.fact_keys()
    assert ("P_r", ("n1",)) in keys
    assert ("FC", ("n1", "n2")) in keys
    assert ("NS", ("n2", "n3")) in keys
    assert ("FC", ("n3", "n4")) in keys
    assert ("P_a", ("n2",)) in keys and ("P_a", ("n4",)) in keys
    # sibling/child chains keep the width at 1
    assert tree_decomposition(inst).width == 1


def test_muxind_to_binary_preserves_distribution():
    rng = random.Random(93)
    for _ in range(40):
        doc = rand_doc(rng)
        binary = muxind_to_binary(doc)
        assert muxind_worlds(binary) == muxind_worlds(doc)


def test_binary_form_shape():
    rng = random.Random(94)
    wide = PrXMLDoc(PrXMLNode("r", children=[
        (None, PrXMLNode(x)) for x in "abc"] + [
        (None, PrXMLNode("i", "ind", [(Fraction(1, k), PrXMLNode("a"))
                                      for k in (2, 3, 4)])),
        (None, PrXMLNode("m", "mux", [(Fraction(1, 5), PrXMLNode(x))
                                      for x in "abcb"]))]))
    for doc in [wide] + [rand_doc(rng) for _ in range(30)]:
        binary = muxind_to_binary(doc)
        for n in doc_nodes(binary.root):
            assert len(n.children) in (0, 2)
            if n.kind == "mux":
                assert sum(p for p, _ in n.children) == 1
    assert muxind_worlds(muxind_to_binary(wide)) == muxind_worlds(wide)


def test_muxind_to_fie_preserves_distribution():
    rng = random.Random(95)
    for _ in range(30):
        binary = muxind_to_binary(rand_doc(rng))
        fie = muxind_to_fie(binary)
        assert fie_worlds(fie) == muxind_worlds(binary)


def test_fie_scope_width_at_most_one():
    rng = random.Random(96)
    for _ in range(30):
        fie = muxind_to_fie(muxind_to_binary(rand_doc(rng)))
        assert scope_width(fie) <= 1


def test_scope_width_hand_example():
    """Below r, a fie node f keeps a on e1 and b on e1 & e2.  In the LCRS
    tree b is a's right child, so e1's scope is {a, b} and e2's is {b}:
    b lies in two scopes."""
    doc = PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode("f", "fie", [
        (parse_formula("e1"), PrXMLNode("a")),
        (parse_formula("e1 & e2"), PrXMLNode("b"))]))]),
        {"e1": Fraction(1, 2), "e2": Fraction(1, 3)})
    assert scope_width(doc) == 2


def test_scope_width_reads_only_formula_edges():
    """Below r, a fie node f keeps a on e and an ind node i keeps b with
    probability 1/2: one event, occurring once, so the width is 1."""
    doc = PrXMLDoc(PrXMLNode("r", children=[
        (None, PrXMLNode("f", "fie", [(parse_formula("e"), PrXMLNode("a"))])),
        (None, PrXMLNode("i", "ind", [(Fraction(1, 2), PrXMLNode("b"))]))]),
        {"e": Fraction(1, 2)})
    assert scope_width(doc) == 1


def test_fie_to_pc_width_bounded():
    """pc-encoding width stays small when event scopes are small."""
    rng = random.Random(97)
    for _ in range(15):
        fie = muxind_to_fie(muxind_to_binary(rand_doc(rng)))
        pc = fie_to_pc(fie)
        w = pc_width(pc)
        assert w <= scope_width(fie) + 2


def test_fie_to_pc_worlds():
    """Possible worlds of the pc-instance induce the same document
    distribution: a P-fact holds iff its incoming fie edge is true."""
    rng = random.Random(98)
    from oracles import pc_worlds
    for _ in range(10):
        fie = muxind_to_fie(muxind_to_binary(rand_doc(rng, max_choices=4)))
        pc = fie_to_pc(fie)
        # the marginal probability of each conditioned fact must equal the
        # probability that its formula holds
        import itertools
        events = sorted(pc.events)
        for fid, cond in pc.conds.items():
            want = Fraction(0)
            for bits in itertools.product((0, 1), repeat=len(events)):
                nu = dict(zip(events, bits))
                w = Fraction(1)
                for e, b in nu.items():
                    w *= pc.events[e] if b else 1 - pc.events[e]
                from treeprov.prob import eval_formula
                if eval_formula(cond, nu):
                    want += w
            got = sum((w for inst, w in pc_worlds(pc)
                       if fid in inst.by_id), Fraction(0))
            assert got == want


def test_prxml_query_probability():
    # root with one ind child labeled a, kept with probability p:
    # Pr[exists an a-node] = p
    p = Fraction(2, 7)
    doc = PrXMLDoc(PrXMLNode("r", "regular",
                             [(None, PrXMLNode("ind", "ind",
                                               [(p, PrXMLNode("a"))]))]))
    q = parse_ucq("P_a(x)")
    assert prxml_query_probability(q, doc) == p


def test_prxml_query_probability_mux():
    # mux child: a with 3/10, b with 5/10; Pr[some b node] = 1/2
    doc = PrXMLDoc(PrXMLNode("r", "regular",
                             [(None, PrXMLNode("mux", "mux",
                                               [(Fraction(3, 10),
                                                 PrXMLNode("a")),
                                                (Fraction(5, 10),
                                                 PrXMLNode("b"))]))]))
    assert prxml_query_probability(parse_ucq("P_a(x)"), doc) == \
        Fraction(3, 10)


def nested_document(depth):
    """Label a under depth nested ind edges of probability 1/2."""
    node = PrXMLNode("a")
    for i in range(depth):
        node = PrXMLNode("ind", "ind", [(Fraction(1, 2), node)])
        if i < depth - 1:
            node = PrXMLNode("s", children=[(None, node)])
    return PrXMLDoc(PrXMLNode("r", children=[(None, node)]))


def world_probability(q, doc):
    return sum((w for inst, w in label_worlds(doc) if satisfies(q, inst)),
               Fraction(0))


def test_label_queries_match_document_worlds():
    """Label facts hold in exactly the world's nodes: a node under a
    regular edge below a choice edge is as likely as its parent, and
    P_fie, the label of choice nodes, holds nowhere."""
    rng = random.Random(100)
    for _ in range(300):
        doc = rand_doc(rng)
        a, b = (rng.choice(("a", "b", "c", "fie")) for _ in range(2))
        for text in ("P_%s(x)" % a, "P_%s(x),P_%s(y)" % (a, b),
                     "P_%s(x);P_%s(y)" % (a, b)):
            q = parse_ucq(text)
            assert prxml_query_probability(q, doc) == \
                world_probability(q, doc), text
    q = parse_ucq("P_a(x)")
    for depth, want in ((2, Fraction(1, 4)), (3, Fraction(1, 8))):
        doc = nested_document(depth)
        assert prxml_query_probability(q, doc) == \
            world_probability(q, doc) == want


def test_wide_nodes_match_worlds():
    """Regular, ind and mux nodes with 3-5 children go through the spill
    and mux chains of the binary form.  Label queries agree with the
    document's worlds, and queries over FC and NS with the worlds of its
    binary form, where P_fie holds nowhere."""
    rng = random.Random(102)
    label_queries = ("P_a(x)", "P_a(x),P_b(y)", "P_a(x);P_c(y)")
    queries = ("P_fie(x)", "P_fie(x);P_b(y)", "FC(x,y),P_a(y)",
               "NS(x,y),P_a(x),P_b(y)", "FC(x,y),NS(y,z),P_b(z)",
               "P_a(x),FC(x,y),P_c(y)")
    for _ in range(12):
        doc = rand_wide_doc(rng)
        worlds = binary_doc_worlds(muxind_to_binary(doc))
        for text in label_queries + queries:
            q = parse_ucq(text)
            want = sum((p for inst, p in worlds if satisfies(q, inst)),
                       Fraction(0))
            assert prxml_query_probability(q, doc) == want, text
            if text in label_queries:
                assert want == world_probability(q, doc), text


def test_k_bounds_the_joint_width():
    """k bounds the joint width of the document's cc-encoding with
    presence gates, which `_layout` gives in closed form: 4 for a mux
    below an ind node, 1 for a deterministic document, 0 for one node."""
    doc = PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
        "i", "ind", [(Fraction(1, 2), PrXMLNode("m", "mux", [
            (Fraction(1, 3), PrXMLNode("a")),
            (Fraction(1, 2), PrXMLNode("b"))]))]))]))
    q = parse_ucq("P_a(x)")
    width = _layout(muxind_to_binary(doc).root)[2]
    assert width == 4
    assert prxml_query_probability(q, doc, width) == Fraction(1, 6)
    with pytest.raises(NoDecomposition,
                       match="data width 1 and joint width 4, above the "
                             "bound 3"):
        prxml_query_probability(q, doc, width - 1)
    det = PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode("a")),
                                            (None, PrXMLNode("b"))]))
    assert _layout(muxind_to_binary(det).root)[2] == 1
    assert prxml_query_probability(q, det, 1) == 1
    with pytest.raises(NoDecomposition,
                       match="data width 1 and joint width 1, above the "
                             "bound 0"):
        prxml_query_probability(q, det, 0)
    single = PrXMLDoc(PrXMLNode("a"))
    assert _layout(muxind_to_binary(single).root)[2] == 0
    assert prxml_query_probability(q, single, 0) == 1
    with pytest.raises(ValueError, match="arity 1"):
        prxml_query_probability(parse_ucq("P_a(x,y)"), doc)


def doc_shape(root):
    """Each node's label, kind and edges, in preorder: the document up
    to node identity, read without recursion."""
    return [(n.label, n.kind, [e for e, _ in n.children])
            for n in doc_nodes(root)]


def test_deep_documents():
    """Wide and deep documents at the default recursion limit: 1,000 ind
    siblings become a 1,000-deep chain, and 300 nested ind levels.  Their
    JSON and LCRS forms, and those of their fie forms, round-trip."""
    wide = PrXMLDoc(PrXMLNode("r", children=[(None, PrXMLNode(
        "i", "ind", [(Fraction(1, 2), PrXMLNode("a"))
                     for _ in range(1000)]))]))
    deep = nested_document(300)
    q = parse_ucq("P_a(x)")
    assert prxml_query_probability(q, wide) == 1 - Fraction(1, 2 ** 1000)
    assert prxml_query_probability(q, deep) == Fraction(1, 2 ** 300)
    for doc in (wide, deep):
        for d in (doc, muxind_to_fie(muxind_to_binary(doc))):
            shape = doc_shape(d.root)
            back = doc_from_json(doc_to_json(d))
            assert back.events == d.events
            assert doc_shape(back.root) == shape
            assert doc_shape(unlcrs(lcrs(d.root))) == shape


def test_doc_json_roundtrip():
    rng = random.Random(99)
    for _ in range(10):
        doc = rand_doc(rng)
        back = doc_from_json(doc_to_json(doc))
        assert doc_canon(back.root) == doc_canon(doc.root)
        fie = muxind_to_fie(muxind_to_binary(doc))
        back2 = doc_from_json(doc_to_json(fie))
        assert back2.events == fie.events
        assert doc_canon(back2.root) == doc_canon(fie.root)
