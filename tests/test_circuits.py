import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprov.circuits import (FUZZY, NAT, POSBOOL, SECURITY, TROPICAL,
                               Builder, Circuit, Polynomial, arity_two,
                               circuit_from_json, circuit_relational_encoding,
                               circuit_to_json, eval_bool, eval_bool_vector,
                               eval_semiring, expand_polynomial, nx_semiring)
from treeprov.errors import SizeCap
from treeprov.relational import make_instance
from treeprov.ucq import nx_provenance, parse_ucq


def rand_bool_circuit(rng, n_inputs=4, n_gates=10):
    b = Builder("bool")
    ids = [b.add("inp") for _ in range(n_inputs)]
    for _ in range(n_gates):
        t = rng.choice(("and", "or", "not"))
        if t == "not":
            ins = (rng.choice(ids),)
        else:
            k = rng.choice((0, 2, 3))
            ins = tuple(rng.sample(ids, min(k, len(ids))))
            if len(ins) == 1:
                ins = ()
        ids.append(b.add(t, ins))
    return b.build(ids[-1])


def test_topo_order_and_cycle_detection():
    c = Circuit("bool", {0: ("inp", ()), 1: ("not", (0,)),
                         2: ("and", (0, 1))}, 2)
    order = c.topo_order()
    assert order.index(0) < order.index(1) < order.index(2)
    bad = Circuit("bool", {0: ("not", (1,)), 1: ("not", (0,))}, 0)
    with pytest.raises(ValueError):
        bad.topo_order()


def test_eval_bool_basics():
    c = Circuit("bool", {0: ("inp", ()), 1: ("inp", ()),
                         2: ("and", (0, 1)), 3: ("not", (2,)),
                         4: ("or", ()), 5: ("and", ()),
                         6: ("or", (3, 4))}, 6)
    assert eval_bool(c, {0: 1, 1: 1}) == 0
    assert eval_bool(c, {0: 1, 1: 0}) == 1
    with pytest.raises(ValueError):
        eval_bool(c, {0: 1})


def test_eval_bool_vector_matches_scalar():
    rng = random.Random(41)
    for _ in range(30):
        c = rand_bool_circuit(rng)
        inputs = c.inputs()
        width = 1 << len(inputs)
        vec = {}
        for i, g in enumerate(inputs):
            mask = 0
            for v in range(width):
                if (v >> i) & 1:
                    mask |= 1 << v
            vec[g] = mask
        out = eval_bool_vector(c, vec, width)
        for v in range(width):
            nu = {g: (v >> i) & 1 for i, g in enumerate(inputs)}
            assert ((out >> v) & 1) == eval_bool(c, nu)


def test_arity_two_preserves_semantics():
    rng = random.Random(42)
    for _ in range(40):
        c = rand_bool_circuit(rng)
        c2, rep, derived = arity_two(c)
        for g, (t, ins) in c2.gates.items():
            if t in ("and", "or"):
                assert len(ins) in (0, 2)
        inputs = c.inputs()
        assert sorted(map(repr, c2.inputs())) == sorted(map(repr, inputs))
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            nu = dict(zip(inputs, bits))
            assert eval_bool(c, nu) == eval_bool(c2, nu)


def test_circuit_relational_encoding():
    c = Circuit("bool", {"a": ("inp", ()), "b": ("inp", ()),
                         "n": ("not", ("a",)), "o": ("or", ("n", "b")),
                         "k": ("and", ())}, "o")
    inst = circuit_relational_encoding(c)
    keys = inst.fact_keys()
    assert ("R_inp", ("a",)) in keys
    assert ("R_not", ("n", "a")) in keys
    assert ("R_or", ("o", "n", "b")) in keys
    assert ("R_1", ("k",)) in keys


# ---------------------------------------------------------------------------
# Semirings and polynomials


SEMIRING_VALUES = {
    "N": st.integers(min_value=0, max_value=20),
    "posbool": st.booleans(),
    "tropical": st.one_of(st.none(), st.integers(-5, 5)),
    "security": st.sampled_from(("always", "confidential", "secret",
                                 "top-secret", "never")),
    "fuzzy": st.fractions(min_value=0, max_value=1),
}
SEMIRINGS = {"N": NAT, "posbool": POSBOOL, "tropical": TROPICAL,
             "security": SECURITY, "fuzzy": FUZZY}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEMIRINGS)), st.data())
def test_semiring_laws(name, data):
    sr = SEMIRINGS[name]
    vals = SEMIRING_VALUES[name]
    a, b, c = (data.draw(vals) for _ in range(3))
    assert sr.add(a, sr.zero) == a
    assert sr.mul(a, sr.one) == a
    assert sr.mul(a, sr.zero) == sr.zero
    assert sr.add(a, b) == sr.add(b, a)
    assert sr.mul(a, b) == sr.mul(b, a)
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


def test_polynomial_arithmetic_and_str():
    f1 = Polynomial.variable("F1")
    f2 = Polynomial.variable("F2")
    f3 = Polynomial.variable("F3")
    p = f1 * f1 + f2 * f3 + f3 * f2
    assert str(p) == "F1^2 + 2*F2*F3"
    assert p.evaluate(NAT, {"F1": 1, "F2": 1, "F3": 1}) == 3
    assert p.evaluate(NAT, {"F1": 2, "F2": 3, "F3": 5}) == 34
    assert str(Polynomial()) == "0"
    assert Polynomial.constant(0) == Polynomial()
    assert str(Polynomial.constant(2) + Polynomial.constant(3)) == "5"


def test_polynomial_semiring_specialization():
    # evaluating a polynomial in posbool equals evaluating it in N > 0
    rng = random.Random(43)
    for _ in range(20):
        mons = {}
        for _ in range(rng.randint(0, 4)):
            m = tuple(sorted({("F%d" % rng.randint(1, 3), rng.randint(1, 2))
                              for _ in range(rng.randint(0, 2))}))
            mons[m] = mons.get(m, 0) + rng.randint(1, 3)
        p = Polynomial(mons)
        nu = {"F%d" % i: rng.randint(0, 2) for i in (1, 2, 3)}
        nat = p.evaluate(NAT, nu)
        pb = p.evaluate(POSBOOL, {v: bool(x) for v, x in nu.items()})
        assert pb == (nat > 0)


def test_nx_semiring_cap():
    sr = nx_semiring(cap=2)
    p = Polynomial.variable("a") + Polynomial.variable("b")
    with pytest.raises(SizeCap):
        sr.add(p, Polynomial.variable("c"))


def test_expand_polynomial():
    c = Circuit("semiring",
                {"x": ("inp", ()), "y": ("inp", ()),
                 "s": ("add", ("x", "y")), "p": ("mul", ("s", "s"))}, "p")
    p = expand_polynomial(c)
    assert p == (Polynomial.variable("x") + Polynomial.variable("y")) * \
        (Polynomial.variable("x") + Polynomial.variable("y"))
    assert str(p) == "2*x*y + x^2 + y^2"
    # s feeds two add gates, each of which sums in place into its other
    # input, and the output feeds an add gate too
    c = Circuit("semiring",
                {"x": ("inp", ()), "y": ("inp", ()), "z": ("inp", ()),
                 "s": ("add", ("x", "y")), "a": ("add", ("s", "z")),
                 "b": ("add", ("s", "x")), "o": ("mul", ("a", "b")),
                 "d": ("add", ("o",))}, "o")
    x, y, z = map(Polynomial.variable, "xyz")
    assert expand_polynomial(c) == (x + y + z) * (x + y + x)


def test_eval_semiring_tropical():
    c = Circuit("semiring",
                {"x": ("inp", ()), "y": ("inp", ()),
                 "s": ("add", ("x", "y")), "p": ("mul", ("s", "x"))}, "p")
    assert eval_semiring(c, TROPICAL, {"x": 3, "y": 5}) == 6
    assert eval_semiring(c, TROPICAL, {"x": None, "y": 5}) is None


def test_circuit_json_roundtrip():
    rng = random.Random(44)
    for _ in range(10):
        c = rand_bool_circuit(rng)
        back = circuit_from_json(circuit_to_json(c))
        inputs = c.inputs()
        assert sorted(back.inputs()) == sorted(str(g) for g in inputs)
        for bits in itertools.product((0, 1), repeat=len(inputs)):
            v1 = eval_bool(c, dict(zip(inputs, bits)))
            v2 = eval_bool(back, {str(g): b for g, b in zip(inputs, bits)})
            assert v1 == v2


def test_eval_semiring_over_nx_sums_like_expand_polynomial():
    """Under nx_semiring, eval_semiring gives expand_polynomial's
    polynomial on a 1,000-edge path's N[X] circuit and on a circuit
    where one add gate feeds two parents, and leaves the caller's input
    values as they were."""
    path = make_instance({"R": 2}, [("R", ("v%d" % i, "v%d" % (i + 1)))
                                    for i in range(1000)])
    shared = Circuit("semiring",
                     {"x": ("inp", ()), "y": ("inp", ()), "z": ("inp", ()),
                      "s": ("add", ("x", "y")), "a": ("add", ("s", "z")),
                      "b": ("add", ("s", "x")), "o": ("mul", ("a", "b"))},
                     "o")
    ids = [f.id for f in path.facts]
    x, y, z = map(Polynomial.variable, "xyz")
    for c, want in ((nx_provenance(parse_ucq("R(x,y),R(y,z)"), path),
                     Polynomial({tuple(sorted([(a, 1), (b, 1)])): 1
                                 for a, b in zip(ids, ids[1:])})),
                    (shared, (x + y + z) * (x + y + x))):
        variables = {g: Polynomial.variable(g) for g in c.inputs()}
        assert eval_semiring(c, nx_semiring(), variables) == want
        assert expand_polynomial(c) == want
        assert all(p == Polynomial.variable(g) for g, p in variables.items())
