import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treeprov import cli
from treeprov.circuits import BUILTIN_SEMIRINGS, expand_polynomial
from treeprov.cli import main
from treeprov.relational import instance_to_json
from treeprov.ucq import nx_provenance

from genutil import rand_instance, rand_ucq

EXAMPLE_INSTANCE = {
    "signature": {"R": 2},
    "facts": [
        {"rel": "R", "args": ["a", "a"], "id": "F1"},
        {"rel": "R", "args": ["b", "c"], "id": "F2"},
        {"rel": "R", "args": ["c", "b"], "id": "F3"},
    ],
}


@pytest.fixture
def instance_file(tmp_path):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(EXAMPLE_INSTANCE))
    return str(p)


def run_main(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_decompose(capsys, instance_file):
    code, out = run_main(capsys, "decompose", "--instance", instance_file)
    assert code == 0
    data = json.loads(out)
    assert "dom" in data


def test_decompose_width_exceeded(capsys, tmp_path):
    triangle = {"signature": {"E": 2},
                "facts": [{"rel": "E", "args": [a, b]}
                          for a, b in (("x", "y"), ("y", "z"), ("z", "x"))]}
    p = tmp_path / "t.json"
    p.write_text(json.dumps(triangle))
    assert main(["decompose", "--instance", str(p), "--width", "1"]) == 2


def test_encode_decode_roundtrip(capsys, instance_file, tmp_path):
    enc_path = str(tmp_path / "enc.json")
    assert main(["encode", "--instance", instance_file,
                 "--output", enc_path]) == 0
    code, out = run_main(capsys, "decode", "--encoding", enc_path)
    assert code == 0
    data = json.loads(out)
    assert len(data["facts"]) == 3
    assert data["signature"] == {"R": 2}


def test_decode_invalid(capsys, tmp_path):
    bad = {"k": 0, "tree": {
        "dom": [1], "fact": {"rel": "R", "args": [1]},
        "children": [{"dom": [1], "fact": {"rel": "R", "args": [1]}},
                     {"dom": []}]}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["decode", "--encoding", str(p)]) == 2


def test_compile_emits_automaton(capsys, instance_file):
    code, out = run_main(capsys, "compile", "--query", "R(x,x)",
                         "--width", "1", "--instance", instance_file)
    assert code == 0
    data = json.loads(out)
    assert data["states"] and data["iota"]
    assert len(data["states"]) <= 2


@pytest.mark.parametrize("query,max_states", [("R(x,y)", 2),
                                              ("R(x,y),R(y,x)", 14)])
def test_compile_two_variables_width_one(capsys, monkeypatch, tmp_path,
                                         query, max_states):
    """Subsets holding a full match collapse into one accepting state, so
    these stay small; without that they exceed the state cap."""
    monkeypatch.setenv("TREEPROV_STATE_CAP", "64")
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"R": 2}))
    code, out = run_main(capsys, "compile", "--query", query,
                         "--width", "1", "--signature", str(sig))
    assert code == 0
    assert len(json.loads(out)["states"]) <= max_states


def test_compile_union_is_deterministic(capsys, tmp_path):
    """A union compiles to one determinised automaton: its subsets carry
    no disjunct tag, and each holding a full match of either disjunct is
    the one accepting state.  The output is the same under two hash
    seeds, also for R(x,y),R(y,x), whose states print as sets of several
    partial matches."""
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"R": 2, "S": 1}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for query, n_states in (("R(x,y);S(x)", 2), ("R(x,y),R(y,x)", 14)):
        args = ["compile", "--query", query, "--width", "1",
                "--signature", str(sig)]
        code, out = run_main(capsys, *args)
        assert code == 0
        data = json.loads(out)
        assert len(data["states"]) == n_states
        assert all(len(e["states"]) == 1
                   for e in data["iota"] + data["delta"])
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                    if p]))
            assert subprocess.run(
                [sys.executable, "-m", "treeprov.cli", *args], env=env,
                capture_output=True, check=True, text=True).stdout == out


def test_provenance_bool(capsys, instance_file):
    code, out = run_main(capsys, "provenance", "--instance", instance_file,
                         "--query", "R(x,y),R(y,x)")
    assert code == 0
    data = json.loads(out)
    names = {g.get("name") for g in data["gates"] if g["type"] == "inp"}
    assert names == {"F1", "F2", "F3"}


def test_provenance_nx_expand(capsys, instance_file):
    code, out = run_main(capsys, "provenance", "--instance", instance_file,
                         "--query", "R(x,y),R(y,x)", "--mode", "nx",
                         "--expand")
    assert code == 0
    assert out.strip() == "F1^2 + 2*F2*F3"


def test_provenance_nx_size_cap_exit_code(capsys, monkeypatch, tmp_path):
    """An expansion past expand_polynomial's monomial cap is one stderr
    line and exit code 3, not a traceback.  S(x),S(y),S(z) on 90 unary
    facts trips the default cap of 100,000; a cap of 10 keeps the test
    small: 6 facts give 56 monomials."""
    monkeypatch.setattr(cli, "expand_polynomial",
                        functools.partial(expand_polynomial, cap=10))
    facts = {"signature": {"S": 1},
             "facts": [{"rel": "S", "args": ["a%d" % i], "id": "F%d" % i}
                       for i in range(6)]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(facts))
    code = main(["provenance", "--instance", str(p), "--query",
                 "S(x),S(y),S(z)", "--mode", "nx", "--expand"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "size cap: polynomial exceeded 10 monomials\n"


def test_deep_path(capsys, tmp_path):
    """A 600-edge path: provenance and count work, while its
    decomposition and encoding nest deeper than the json module can
    write, which is one stderr line and exit code 3."""
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"signature": {"R": 2}, "facts": [
        {"rel": "R", "args": ["v%d" % i, "v%d" % (i + 1)]}
        for i in range(600)]}))
    q = "R(x,y), R(y,z)"
    for mode in ("bool", "nx"):
        code, out = run_main(capsys, "provenance", "--instance", str(p),
                             "--query", q, "--mode", mode)
        assert code == 0 and json.loads(out)["gates"]
    assert run_main(capsys, "count", "--instance", str(p), "--query", q,
                    "--free", "x") == (0, "599\n")
    for args in (["decompose", "--normalize"], ["encode"]):
        assert main([*args, "--instance", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("size cap: the output nests deeper than "
                                "the json module can write\n")


def test_provenance_nx_semiring(capsys, instance_file, tmp_path):
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"F1": 1, "F2": 1, "F3": 1}))
    code, out = run_main(capsys, "provenance", "--instance", instance_file,
                         "--query", "R(x,y),R(y,x)", "--mode", "nx",
                         "--semiring", "N", "--assign", str(assign))
    assert code == 0
    assert out.strip() == "3"


def test_provenance_nx_posbool(capsys, instance_file, tmp_path):
    assign = tmp_path / "assign.json"
    args = ("provenance", "--instance", instance_file, "--query",
            "R(x,y),R(y,x)", "--mode", "nx", "--semiring", "posbool",
            "--assign", str(assign))
    assign.write_text(json.dumps({"F1": "false", "F2": True, "F3": "1"}))
    assert run_main(capsys, *args) == (0, "True\n")
    assign.write_text(json.dumps({"F1": "false", "F2": "true", "F3": "0"}))
    assert run_main(capsys, *args) == (0, "False\n")
    for bad in ({"F1": False, "F2": "yes"}, {"F1": 1}):
        assign.write_text(json.dumps(bad))
        assert main(list(args)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "not a posbool value" in captured.err


def test_provenance_nx_tropical_infinity(capsys, tmp_path):
    """An infinite tropical answer prints as inf, as --assign writes it."""
    inst = tmp_path / "path.json"
    inst.write_text(json.dumps({"signature": {"R": 2}, "facts": [
        {"rel": "R", "args": ["a", "b"], "id": "f1"},
        {"rel": "R", "args": ["b", "c"], "id": "f2"}]}))
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"f1": "inf", "f2": 2}))
    assert run_main(capsys, "provenance", "--instance", str(inst),
                    "--query", "R(x,y),R(y,z)", "--mode", "nx",
                    "--semiring", "tropical", "--assign", str(assign)) == \
        (0, "inf\n")


def test_provenance_nx_semiring_past_the_monomial_cap(capsys, monkeypatch,
                                                     tmp_path):
    """--semiring evaluates the circuit and expands nothing, so the
    monomial cap bounds --expand only: S(x),S(y),S(z) on 6 unary facts
    has 56 monomials, past a cap of 10, and its N value at 1 is 6^3."""
    monkeypatch.setattr(cli, "expand_polynomial",
                        functools.partial(expand_polynomial, cap=10))
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"signature": {"S": 1}, "facts": [
        {"rel": "S", "args": ["a%d" % i], "id": "F%d" % i}
        for i in range(6)]}))
    args = ["provenance", "--instance", str(p), "--query", "S(x),S(y),S(z)",
            "--mode", "nx"]
    assert run_main(capsys, *args, "--semiring", "N") == (0, "216\n")
    assert main(args + ["--expand"]) == 3
    assert capsys.readouterr().err == \
        "size cap: polynomial exceeded 10 monomials\n"


def _rand_value(rng, name):
    """A random --assign value of the semiring named name, as JSON, and
    the semiring value it stands for."""
    if name == "N":
        n = rng.randint(0, 3)
        return rng.choice([n, str(n)]), n
    if name == "tropical":
        return rng.choice([("inf", None)] + [(n, n) for n in range(-2, 4)])
    if name == "fuzzy":
        value = Fraction(rng.randint(0, 4), 4)
        return str(value), value
    if name == "security":
        level = rng.choice(cli.SECURITY_ORDER)
        return level, level
    return rng.choice([(True, True), (False, False), ("true", True),
                       ("0", False)])


def test_provenance_nx_semiring_equals_the_expanded_polynomial(capsys,
                                                              tmp_path):
    """On random UCQs and instances, --semiring prints the value of the
    expanded N[X] polynomial under the same assignment, in each built-in
    semiring (tropical infinity as inf), with facts left out of
    --assign valued 1."""
    rng = random.Random(30)
    inst_file, assign_file = tmp_path / "i.json", tmp_path / "a.json"
    for _ in range(30):
        q = rand_ucq(rng, max_disjuncts=3, max_atoms=3)
        inst = rand_instance(rng, max_facts=5, max_dom=4)
        inst_file.write_text(json.dumps(instance_to_json(inst)))
        text = ";".join(",".join("%s(%s)" % (a.rel, ",".join(a.vars))
                                 for a in d.atoms) for d in q.disjuncts)
        poly = expand_polynomial(nx_provenance(q, inst))
        for name, semiring in sorted(BUILTIN_SEMIRINGS.items()):
            raw, values = {}, {}
            for f in inst.facts:
                if rng.random() < 0.8:
                    raw[f.id], values[f.id] = _rand_value(rng, name)
                else:
                    values[f.id] = semiring.one
            assign_file.write_text(json.dumps(raw))
            want = poly.evaluate(semiring, values)
            assert run_main(capsys, "provenance", "--instance",
                            str(inst_file), "--query", text, "--mode", "nx",
                            "--semiring", name, "--assign",
                            str(assign_file)) == \
                (0, "%s\n" % ("inf" if want is None else want))


@pytest.mark.parametrize("args", [
    pytest.param(("provenance", "--instance", "I"), id="provenance-no-source"),
    pytest.param(("provenance", "--instance", "I", "--query", "R(x,y)",
                  "--automaton", "A"), id="provenance-two-sources"),
    pytest.param(("provenance", "--instance", "I", "--automaton", "A",
                  "--mode", "nx"), id="provenance-nx-automaton"),
    pytest.param(("prob", "--query", "R(x,y)"), id="prob-no-input"),
    pytest.param(("prob", "--query", "R(x,y)", "--bid", "B", "--pc", "P"),
                 id="prob-two-inputs"),
    pytest.param(("compile", "--query", "R(x,y)", "--width", "1"),
                 id="compile-no-signature"),
    pytest.param(("compile", "--query", "R(x,y)", "--width", "1",
                  "--instance", "I", "--signature", "S"),
                 id="compile-two-signatures"),
    pytest.param(("provenance", "--instance", "I", "--query", "R(x,y)",
                  "--expand"), id="provenance-bool-expand"),
    pytest.param(("provenance", "--instance", "I", "--query", "R(x,y)",
                  "--mode", "bool", "--semiring", "N"),
                 id="provenance-bool-semiring"),
    pytest.param(("provenance", "--instance", "I", "--automaton", "A",
                  "--assign", "V"), id="provenance-bool-assign"),
    pytest.param(("provenance", "--instance", "I", "--query", "R(x,y)",
                  "--free", "x"), id="provenance-bool-free"),
    pytest.param(("provenance", "--instance", "I", "--query", "R(x,y)",
                  "--mode", "nx", "--expand", "--free", "x,y"),
                 id="provenance-nx-free"),
])
def test_usage_error_exit_code(capsys, args):
    """A missing or doubled input flag, a flag that the provenance mode
    does not read, and free variables of a provenance query are argparse's
    usage error, exit code 2, before any file is read."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err


@pytest.mark.parametrize("semiring, values, want", [
    ("N", {"F1": "2", "F2": 3, "F3": 0}, "4"),
    ("tropical", {"F1": "-2", "F2": "inf", "F3": 5}, "-4"),
    ("fuzzy", {"F1": "1/3", "F2": 0.5, "F3": 0}, "1/3"),
])
def test_provenance_nx_semiring_values(capsys, instance_file, tmp_path,
                                       semiring, values, want):
    """Values inside each semiring are read as they are: an integer
    string in N and in tropical, "inf" in tropical, and a fraction
    string or a number in [0, 1] in fuzzy."""
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps(values))
    assert run_main(capsys, "provenance", "--instance", instance_file,
                    "--query", "R(x,y),R(y,x)", "--mode", "nx",
                    "--semiring", semiring, "--assign", str(assign)) == \
        (0, want + "\n")


def test_prob_pc(capsys, tmp_path):
    pc = {
        "signature": {"R": 1},
        "facts": [{"rel": "R", "args": ["a"], "id": "F1", "cond": "x & !y"}],
        "events": {"x": "1/2", "y": "1/3"},
    }
    p = tmp_path / "pc.json"
    p.write_text(json.dumps(pc))
    code, out = run_main(capsys, "prob", "--query", "R(x)", "--pc", str(p))
    assert code == 0
    assert out.strip() == "1/3"


def test_prob_bid(capsys, tmp_path):
    bid = {
        "signature": {"R": 2},
        "facts": [
            {"rel": "R", "args": ["k", "a"], "id": "F1", "prob": "3/10"},
            {"rel": "R", "args": ["k", "b"], "id": "F2", "prob": "5/10"},
        ],
        "key_positions": {"R": [0]},
    }
    p = tmp_path / "bid.json"
    p.write_text(json.dumps(bid))
    code, out = run_main(capsys, "prob", "--query", "R(x,y)", "--bid", str(p))
    assert code == 0
    assert out.strip() == "4/5"


def test_invalid_input_exit_code(capsys, instance_file, tmp_path):
    bid = {"signature": {"R": 2},
           "facts": [{"rel": "R", "args": ["k", "a"], "prob": "1/2"}]}
    bid_file = tmp_path / "bid.json"
    bid_file.write_text(json.dumps(bid))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{\"signature\": ")
    no_signature = tmp_path / "no_signature.json"
    no_signature.write_text(json.dumps({"facts": []}))
    no_prob = tmp_path / "no_prob.json"
    no_prob.write_text(json.dumps(
        {"signature": {"R": 2}, "facts": [{"rel": "R", "args": ["a", "b"]}]}))
    too_deep = tmp_path / "too_deep.json"
    too_deep.write_text("[" * 5000 + "]" * 5000)

    def doc_file(name, node, event="1/2"):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps({"tree": {"label": "r", "children": [
            {"node": node}]}, "events": {"e": event}}))
        return str(path)

    def ind(prob):
        return {"label": "i", "kind": "ind", "children": [
            {"prob": prob, "node": {"label": "a"}}]}

    # a fie node where mux/ind are expected, whatever its number of
    # children, and probabilities outside [0, 1]
    docs = [(doc_file("fie%d" % n, {"label": "f", "kind": "fie", "children": [
        {"cond": "e", "node": {"label": "a"}}] * n}), "fie node 'f'")
        for n in (1, 2, 3)]
    docs += [(doc_file("high", ind("3/2")), "outside [0, 1]"),
             (doc_file("negative", ind("-1/2")), "outside [0, 1]"),
             (doc_file("event", ind("1/2"), "3/2"),
              "event e has probability 3/2")]
    # a required key left out: an ind edge's prob, a fie edge's cond, an
    # edge's node, each below a choice node c, and a node's label
    leaf = {"label": "a"}
    for key, kind, edge in (("prob", "ind", {"node": leaf}),
                            ("cond", "fie", {"node": leaf}),
                            ("node", "ind", {"prob": "1/2"})):
        docs.append((doc_file("lacks_" + key, {
            "label": "c", "kind": kind, "children": [edge]}), "'%s'" % key))
    docs.append((doc_file("lacks_label", {"kind": "ind", "children": [
        {"prob": "1/2", "node": leaf}]}), "'label'"))
    # a node, an edge or the whole document that is not a JSON object
    for name, value, needle in (
            ("str_node", {"label": "r", "children": [{"node": "x"}]},
             "document node is not a JSON object"),
            ("int_edge", {"label": "r", "children": [5]},
             "document edge is not a JSON object"),
            ("list_doc", [1, 2], "document is not a JSON object")):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(value if name == "list_doc"
                                   else {"tree": value}))
        docs.append((str(path), needle))

    def input_file(name, data):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(data))
        return str(path)

    fact = {"rel": "R", "args": ["a", "b"], "id": "F1"}
    bad_keys = input_file("bad_keys", dict(
        bid, key_positions={"R": 0}))
    key_past_arity = input_file("key_past_arity", dict(
        bid, key_positions={"R": [2]}))
    int_cond = input_file("int_cond", {"signature": {"R": 2}, "facts": [
        dict(fact, cond=3)]})
    event_above_one = input_file("event_above_one", {
        "signature": {"R": 2}, "facts": [dict(fact, cond="e")],
        "events": {"e": "2"}})
    pcc = {"instance": {"signature": {"R": 2}, "facts": [fact]},
           "circuit": {"gates": [{"type": "inp", "name": "g", "inputs": []}],
                       "output": 0},
           "phi": [{"fact": "F1", "gate": 0}],
           "probs": [{"gate": 0, "prob": "1/2"}]}
    output_past_end = input_file("output_past_end", dict(
        pcc, circuit=dict(pcc["circuit"], output=5)))
    phi_past_end = input_file("phi_past_end", dict(
        pcc, phi=[{"fact": "F1", "gate": 1}]))
    signature = input_file("signature", {"R": 2})
    cases = [
        (("compile", "--query", "R(x,y)", "--width", "0",
          "--signature", signature), "width bound must be >= 1"),
        (("compile", "--query", "R(x,y)", "--width", "-1",
          "--signature", signature), "width bound must be >= 1"),
        (("prob", "--query", "R(x)", "--bid", str(bid_file)), "arity"),
        (("count", "--query", "R(x)", "--free", "x",
          "--instance", instance_file), "arity"),
        (("prob", "--query", "R(x,", "--bid", str(bid_file)), "expected"),
        (("count", "--query", "R(x,y)", "--free", "x",
          "--instance", str(bad_json)), "not valid JSON"),
        (("prob", "--query", "R(x,y)", "--bid",
          str(tmp_path / "missing.json")), "missing.json"),
        (("count", "--query", "R(x,y)", "--free", "x",
          "--instance", str(no_signature)), "'signature'"),
        (("prob", "--query", "R(x,y)", "--bid", str(no_prob)), "'prob'"),
        (("prob", "--query", "R(x,y)", "--pcc", str(no_signature)),
         "'instance'"),
        (("prob", "--query", "R(x,y)", "--bid", bad_keys), "'key_positions'"),
        (("prob", "--query", "R(x,y)", "--bid", key_past_arity),
         "'key_positions'"),
        (("prob", "--query", "R(x,y)", "--pc", int_cond), "'cond'"),
        (("prob", "--query", "R(x,y)", "--pc", event_above_one),
         "event e has probability 2"),
        (("prob", "--query", "R(x,y)", "--pcc", output_past_end),
         "'output'"),
        (("prob", "--query", "R(x,y)", "--pcc", phi_past_end),
         "phi entry 'gate'"),
        (("decode", "--encoding", str(too_deep)), "nests deeper"),
        (("prxml-convert", "--input", str(too_deep), "--to", "fie"),
         "nests deeper"),
    ]
    for path, needle in docs:
        cases += [(("prob", "--query", "P_a(x)", "--prxml", path), needle),
                  (("prxml-convert", "--input", path, "--to", "fie"), needle)]
    for args, needle in cases:
        assert main(list(args)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ")
        assert captured.err.count("\n") == 1 and needle in captured.err


_FACT = {"rel": "R", "args": ["a", "b"]}
_NODE = {"dom": [1]}
_TABLE = {"states": ["q"], "final": [0], "iota": [], "delta": []}
_PROB = ("prob", "--query", "R(x,y)")
_COMPILE = ("compile", "--query", "R(x,y)", "--width", "1")
_SUM = ("provenance", "--query", "R(x,y)", "--mode", "nx", "--semiring")
_COUNT = ("count", "--query", "R(x,y)", "--free", "x")


def _pcc(gate):
    """A pcc file whose one fact reads gate 1, the gate given, over one
    input gate 0."""
    return {"instance": {"signature": {"R": 2}, "facts": [_FACT]},
            "circuit": {"kind": "bool", "output": 1, "gates": [
                {"type": "inp", "name": "e", "inputs": []}, gate]},
            "phi": [{"fact": "F1", "gate": 1}],
            "probs": [{"gate": 0, "prob": "1/2"}]}



@pytest.mark.parametrize("command, flag, data, needle", [
    pytest.param(_PROB, "--bid", {"signature": {"R": 2},
                                  "facts": [dict(_FACT, prob=[1])]},
                 "fact 1 'prob' is not a number", id="bid-prob-list"),
    pytest.param(_PROB, "--bid", {"signature": {"R": 2},
                                  "facts": [dict(_FACT, args=5, prob="1/2")]},
                 "fact 1 'args' is not a list", id="fact-args-int"),
    pytest.param(_PROB, "--pc", {"signature": {"R": 2}, "facts": [_FACT],
                                 "events": []},
                 "events is not a JSON object", id="pc-events-list"),
    pytest.param(_PROB, "--prxml", {"tree": {"label": "r", "children": 5}},
                 "document node 'children' is not a list",
                 id="prxml-children-int"),
    pytest.param(_PROB, "--prxml", {"tree": {"label": "r"}, "events": 5},
                 "events is not a JSON object", id="prxml-events-int"),
    pytest.param(_PROB, "--prxml", {"tree": {"label": "r"}, "events": []},
                 "events is not a JSON object", id="prxml-events-list"),
    pytest.param(("decode",), "--encoding", {"k": 1},
                 "encoding has no 'tree' key", id="encoding-no-tree"),
    pytest.param(("decode",), "--encoding", {"tree": _NODE},
                 "encoding has no 'k' key", id="encoding-no-k"),
    pytest.param(("decode",), "--encoding", {"k": "1", "tree": _NODE},
                 "encoding 'k' is not an integer", id="encoding-k-str"),
    pytest.param(("decode",), "--encoding",
                 {"k": 1, "tree": dict(_NODE, fact={"rel": "R"})},
                 "encoding node fact has no 'args' key",
                 id="encoding-fact-no-args"),
    pytest.param(("decode",), "--encoding", {"k": 1, "tree": {"dom": 5}},
                 "encoding node 'dom' is not a list", id="encoding-dom-int"),
    pytest.param(("decode",), "--encoding", {"k": 1, "tree": {"dom": [[1]]}},
                 "encoding node 'dom' holds a slot that is not an integer",
                 id="encoding-dom-slot-list"),
    pytest.param(("decode",), "--encoding",
                 {"k": 1, "tree": dict(_NODE, fact={"rel": "R",
                                                    "args": [2]})},
                 "encoding node fact 'args' lie outside its 'dom'",
                 id="encoding-args-outside-dom"),
    pytest.param(("decode",), "--encoding",
                 {"k": 1, "tree": dict(_NODE, children=5)},
                 "encoding node 'children' is not a list",
                 id="encoding-children-int"),
    pytest.param(("decode",), "--encoding",
                 {"k": 1, "tree": dict(_NODE, children=[1, 2])},
                 "encoding node is not a JSON object",
                 id="encoding-child-int"),
    pytest.param(("decode",), "--encoding", [1],
                 "encoding is not a JSON object", id="encoding-list"),
    pytest.param(("provenance",), "--automaton", {"states": []},
                 "automaton has no 'final' key", id="automaton-no-final"),
    pytest.param(("provenance",), "--automaton", [1],
                 "automaton is not a JSON object", id="automaton-list"),
    pytest.param(("provenance",), "--automaton", dict(_TABLE, final=[1]),
                 "automaton 'final' is 1, not a state index below 1",
                 id="automaton-final-past-end"),
    pytest.param(("provenance",), "--automaton",
                 dict(_TABLE, iota=[{"label": _NODE}]),
                 "iota entry has no 'states' key",
                 id="automaton-iota-no-states"),
    pytest.param(("provenance",), "--automaton", dict(_TABLE, delta=[
        {"left": "0", "right": 0, "label": _NODE, "states": [0]}]),
                 "delta entry 'left' is '0', not a state index below 1",
                 id="automaton-left-str"),
    pytest.param(("provenance",), "--automaton", dict(_TABLE, delta=[
        {"left": 0, "right": 0, "label": dict(_NODE, ann="1"),
         "states": [0]}]), "delta label 'ann' is not an integer",
                 id="automaton-ann-str"),
    pytest.param(_COMPILE, "--signature", [1, 2],
                 "signature is not a JSON object", id="signature-list"),
    pytest.param(_COMPILE, "--signature", {"R": "x"},
                 "signature arity of R is 'x', not a positive integer",
                 id="signature-arity-str"),
    pytest.param(_COMPILE, "--signature", {"R": 0},
                 "signature arity of R is 0, not a positive integer",
                 id="signature-arity-0"),
    pytest.param(_SUM + ("N",), "--assign", [],
                 "assignment is not a JSON object", id="assign-list"),
    pytest.param(_SUM + ("N",), "--assign", {"F1": [1]},
                 "assignment of F1 is [1], not a N value",
                 id="assign-N-list"),
    pytest.param(_SUM + ("tropical",), "--assign", {"F1": [1]},
                 "assignment of F1 is [1], not a tropical value",
                 id="assign-tropical-list"),
    pytest.param(_SUM + ("security",), "--assign", {"F1": "public"},
                 "assignment of F1 is \"public\", not a security value",
                 id="assign-security-unknown"),
    pytest.param(_SUM + ("N",), "--assign", {"F1": 1.5},
                 "assignment of F1 is 1.5, not a N value",
                 id="assign-N-float"),
    pytest.param(_SUM + ("N",), "--assign", {"F1": True},
                 "assignment of F1 is true, not a N value",
                 id="assign-N-bool"),
    pytest.param(_SUM + ("N",), "--assign", {"F1": -1},
                 "assignment of F1 is -1, not a N value",
                 id="assign-N-negative"),
    pytest.param(_SUM + ("N",), "--assign", {"F1": "-1"},
                 "assignment of F1 is \"-1\", not a N value",
                 id="assign-N-negative-str"),
    pytest.param(_SUM + ("tropical",), "--assign", {"F1": 2.7},
                 "assignment of F1 is 2.7, not a tropical value",
                 id="assign-tropical-float"),
    pytest.param(_SUM + ("tropical",), "--assign", {"F1": True},
                 "assignment of F1 is true, not a tropical value",
                 id="assign-tropical-bool"),
    pytest.param(_SUM + ("fuzzy",), "--assign", {"F1": 1.5},
                 "assignment of F1 is 1.5, not a fuzzy value",
                 id="assign-fuzzy-above-one"),
    pytest.param(_SUM + ("fuzzy",), "--assign", {"F1": "-1/2"},
                 "assignment of F1 is \"-1/2\", not a fuzzy value",
                 id="assign-fuzzy-negative"),
    pytest.param(_SUM + ("fuzzy",), "--assign", {"F1": "1/0"},
                 "assignment of F1 is \"1/0\", not a fuzzy value",
                 id="assign-fuzzy-zero-denominator"),
    pytest.param(_COUNT, "--instance", {"signature": {"R": 2}, "facts": 5},
                 "instance 'facts' is not a list", id="instance-facts-int"),
    pytest.param(_COUNT, "--instance",
                 {"signature": {"R": 2}, "facts": [dict(_FACT, id=["x"])]},
                 "fact 1 'id' is ['x'], not a string or an integer",
                 id="fact-id-list"),
    pytest.param(_PROB, "--pcc", _pcc({"type": "xor", "inputs": [0]}),
                 "gate 1 'type' is 'xor', not a bool gate type",
                 id="pcc-gate-xor"),
    pytest.param(_PROB, "--pcc", _pcc({"type": "not", "inputs": [0, 0]}),
                 "gate 1 of type 'not' has 2 inputs, not 1",
                 id="pcc-not-two-inputs"),
    pytest.param(_PROB, "--pcc", _pcc({"type": "not", "inputs": []}),
                 "gate 1 of type 'not' has 0 inputs, not 1",
                 id="pcc-not-no-input"),
    pytest.param(_PROB, "--pcc",
                 _pcc({"type": "inp", "name": "f", "inputs": [0]}),
                 "gate 1 of type 'inp' has 1 inputs, not 0",
                 id="pcc-inp-with-input"),
])
def test_wrong_typed_field_exit_code(capsys, tmp_path, instance_file,
                                     command, flag, data, needle):
    """A field of an input file that is missing or of the wrong JSON type
    is refused with exit code 4 and one stderr line that names it, not a
    traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    args = [*command, flag, str(path)]
    if command[0] == "provenance":
        args += ["--instance", instance_file]
    assert main(args) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert captured.err.count("\n") == 1 and needle in captured.err


def test_prob_prxml(capsys, tmp_path):
    doc = {"tree": {"label": "r", "children": [
        {"node": {"label": "ind", "kind": "ind",
                  "children": [{"prob": "2/7",
                                "node": {"label": "a"}}]}}]}}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out = run_main(capsys, "prob", "--query", "P_a(x)",
                         "--prxml", str(p))
    assert code == 0
    assert out.strip() == "2/7"
    # a below two nested ind edges of 1/2: present in a quarter of worlds
    ind = {"label": "a"}
    for label in ("s", "r"):
        ind = {"label": label, "children": [{"node": {
            "label": "ind", "kind": "ind",
            "children": [{"prob": "1/2", "node": ind}]}}]}
    p.write_text(json.dumps({"tree": ind}))
    code, out = run_main(capsys, "prob", "--query", "P_a(x)",
                         "--prxml", str(p))
    assert code == 0
    assert out.strip() == "1/4"


def test_compile_out_of_memory(capsys, monkeypatch, tmp_path):
    """A MemoryError is one stderr line and exit code 3, like a size
    cap."""
    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr(cli, "materialize", exhausted)
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"R": 2}))
    code = main(["compile", "--query", "R(x,y)", "--width", "1",
                 "--signature", str(sig)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "out of memory in compile\n"


def test_count(capsys, instance_file):
    code, out = run_main(capsys, "count", "--query", "R(x,y)",
                         "--free", "x", "--instance", instance_file)
    assert code == 0
    assert out.strip() == "3"


def test_prxml_convert(capsys, tmp_path):
    doc = {"tree": {"label": "r", "children": [
        {"node": {"label": "mux", "kind": "mux",
                  "children": [{"prob": "3/10", "node": {"label": "a"}},
                               {"prob": "5/10", "node": {"label": "b"}}]}}]}}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out = run_main(capsys, "prxml-convert", "--input", str(p),
                         "--to", "binary")
    assert code == 0
    data = json.loads(out)
    assert data["tree"]["label"] == "r"
    code, out = run_main(capsys, "prxml-convert", "--input", str(p),
                         "--to", "fie")
    assert code == 0
    assert json.loads(out)["events"]
    code, out = run_main(capsys, "prxml-convert", "--input", str(p),
                         "--to", "pc")
    assert code == 0
    assert json.loads(out)["events"]


def test_output_deterministic(capsys, instance_file):
    _, out1 = run_main(capsys, "encode", "--instance", instance_file)
    _, out2 = run_main(capsys, "encode", "--instance", instance_file)
    assert out1 == out2


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "treeprov.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "decompose" in proc.stdout
