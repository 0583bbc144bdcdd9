"""The benchmark's oracles against values computed by hand.

Run with ``python3 -m pytest bench``.
"""

from fractions import Fraction

import bench_oracles as orc

PATH_QUERY = [([("R", ("x", "y")), ("R", ("y", "z"))], ())]


def directed_path(n):
    return [("F%d" % i, "R", ("v%d" % i, "v%d" % (i + 1))) for i in range(n)]


def test_path_probability_closed_form():
    assert orc.fibonacci(12) == 144
    assert orc.path_query_probability(10) == Fraction(55, 64)
    assert orc.path_query_probability(20) == Fraction(1030865, 1048576)


def test_closed_form_matches_world_enumeration():
    for n in range(1, 8):
        facts = directed_path(n)
        blocks = [[(fid, Fraction(1, 2))] for fid, _, _ in facts]
        p = orc.bid_probability(blocks, lambda present: orc.holds(
            PATH_QUERY, [f for f in facts if f[0] in present]))
        assert p == orc.path_query_probability(n)


def test_path_count():
    free_x = PATH_QUERY
    for n in range(1, 7):
        assert orc.path_query_count(n) == n - 1
        assert orc.count_answers(free_x, ("x",), directed_path(n)) == n - 1


def test_readme_nx_polynomial():
    # R(a,a), R(b,c), R(c,b) under R(x,y),R(y,x): F1^2 + 2*F2*F3
    facts = [("F1", "R", ("a", "a")), ("F2", "R", ("b", "c")),
             ("F3", "R", ("c", "b"))]
    q = [([("R", ("x", "y")), ("R", ("y", "x"))], ())]
    poly = orc.nx_polynomial(q, facts)
    assert poly == {(("F1", 2),): 1, (("F2", 1), ("F3", 1)): 2}
    assert orc.nat_value(poly, {"F1": 1, "F2": 1, "F3": 1}) == 3
    assert orc.nat_value(poly, {"F1": 2, "F2": 3, "F3": 5}) == 4 + 30


def test_diseq_excludes_equal_variables():
    facts = [("F1", "R", ("a", "b")), ("F2", "R", ("c", "b")),
             ("F3", "R", ("d", "e"))]
    q = [([("R", ("x", "y")), ("R", ("z", "y"))], [("x", "z")])]
    # only x=a,z=c and x=c,z=a
    assert len(orc.ucq_matches(q, facts)) == 2
    assert not orc.holds(q, facts[1:])


def test_holds_mask():
    facts = directed_path(2)
    # worlds: bit0 both edges, bit1 only F0, bit2 only F1, bit3 none
    masks = {"F0": 0b0011, "F1": 0b0101}
    assert orc.holds_mask(PATH_QUERY, facts, masks, 0b1111) == 0b0001


def test_circuit_evaluator():
    # (a AND NOT b) OR c, plus a constant-1 and a constant-0 gate
    gates = {"a": ("inp", ()), "b": ("inp", ()), "c": ("inp", ()),
             "nb": ("not", ("b",)), "one": ("and", ()), "zero": ("or", ()),
             "x": ("and", ("a", "nb", "one")), "out": ("or", ("x", "c", "zero"))}
    # eight valuations: bit i gives a = i&1, b = i&2, c = i&4
    inputs = {"a": 0b10101010, "b": 0b11001100, "c": 0b11110000}
    assert orc.eval_circuit(gates, "out", inputs, "bool", 0xFF) == 0b11110010
    # (a + b) * a * 1 + 0 in N
    nat = {"a": ("inp", ()), "b": ("inp", ()), "s": ("add", ("a", "b")),
           "one": ("mul", ()), "zero": ("add", ()),
           "m": ("mul", ("s", "a", "one")), "out": ("add", ("m", "zero"))}
    assert orc.eval_circuit(nat, "out", {"a": 3, "b": 4}, "nat") == 21


def test_bid_readme_example():
    # R(k,a) 3/10 and R(k,b) 5/10 share a block: Pr[R(x,y)] = 4/5
    facts = [("F1", "R", ("k", "a")), ("F2", "R", ("k", "b"))]
    q = [([("R", ("x", "y"))], ())]
    blocks = [[("F1", Fraction(3, 10)), ("F2", Fraction(5, 10))]]
    p = orc.bid_probability(blocks, lambda present: orc.holds(
        q, [f for f in facts if f[0] in present]))
    assert p == Fraction(4, 5)


def test_pc_enumeration():
    # F0 iff e0 & !e1, F1 iff e1: path query needs both, never possible
    facts = directed_path(2)
    events = {"e0": Fraction(1, 2), "e1": Fraction(1, 3)}
    conds = {"F0": ("and", ("var", "e0"), ("not", ("var", "e1"))),
             "F1": ("var", "e1")}
    holds = lambda present: orc.holds(
        PATH_QUERY, [f for f in facts if f[0] in present])
    assert orc.pc_probability(events, conds, holds) == 0
    conds["F0"] = ("or", ("var", "e0"), ("const", False))
    # Pr[e0] * Pr[e1]
    assert orc.pc_probability(events, conds, holds) == Fraction(1, 6)


def test_prxml_nested_edges():
    leaf = ("a", "regular", [])
    two = ("r", "regular", [(None, ("ind", "ind", [(Fraction(1, 2), (
        "s", "regular", [(None, ("ind", "ind",
                                 [(Fraction(1, 2), leaf)]))]))]))])
    assert orc.prxml_label_probability(two, [{"a"}]) == Fraction(1, 4)
    three = ("r", "regular", [(None, ("ind", "ind",
                                      [(Fraction(1, 2), two)]))])
    assert orc.prxml_label_probability(three, [{"a"}]) == Fraction(1, 8)


def test_prxml_mux_and_conjunction():
    # mux keeps a (1/3) or b (2/3): never both; a or b is certain
    doc = ("r", "regular", [(None, ("m", "mux", [
        (Fraction(1, 3), ("a", "regular", [])),
        (Fraction(2, 3), ("b", "regular", []))]))])
    assert orc.prxml_label_probability(doc, [{"a"}]) == Fraction(1, 3)
    assert orc.prxml_label_probability(doc, [{"a", "b"}]) == 0
    assert orc.prxml_label_probability(doc, [{"a"}, {"b"}]) == 1
    # ind keeps a (1/2) and b (1/4) independently
    doc = ("r", "regular", [(None, ("i", "ind", [
        (Fraction(1, 2), ("a", "regular", [])),
        (Fraction(1, 4), ("b", "regular", []))]))])
    assert orc.prxml_label_probability(doc, [{"a", "b"}]) == Fraction(1, 8)
    assert orc.prxml_label_probability(doc, [{"a"}, {"b"}]) == Fraction(5, 8)
