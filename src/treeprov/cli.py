"""Command-line front end.

Subcommands: decompose, encode, decode, compile, provenance, prob,
count, prxml-convert.  All outputs are deterministic JSON or plain
text.  Exit codes: 2 signals NoDecomposition or an invalid encoding,
3 a resource cap (a state blowup, a polynomial expansion past its
monomial cap, running out of memory, or an output that nests deeper
than the json module can write, about 1,000 levels of arrays and
objects), and 4 invalid input: a missing or unreadable file, malformed
JSON or JSON nested deeper than the json module can read, an input file
without a required key, a query or formula that does not parse, a query
atom whose arity disagrees with the instance, or a PrXML document with
a probability outside [0, 1] or a fie node where mux/ind are expected.
Each error is one line on stderr.  The tree-shaped formats
(decompositions, encodings, PrXML documents) nest two or three levels
per tree level, so their depth limit comes from the json module.
"""

import argparse
import json
import sys
from fractions import Fraction

from .automata import automaton_from_json, automaton_to_json, materialize
from .circuits import (BUILTIN_SEMIRINGS, SECURITY_ORDER, circuit_to_json,
                       expand_polynomial)
from .encoding import (decode, encode, encoding_from_json,
                       encoding_to_json, kfact_labels)
from .errors import NoDecomposition, SizeCap, StateBlowup
from .prob import (bid_from_json, format_fraction, pc_from_json,
                   pc_to_pcc, pcc_from_json,
                   query_probability_bid, query_probability_pcc)
from .provcirc import query_provenance_circuit
from .prxml import (doc_from_json, doc_to_json, fie_to_pc,
                    muxind_to_binary, muxind_to_fie,
                    prxml_query_probability)
from .relational import (decomposition_to_json, instance_from_json,
                         instance_to_json, normalize_decomposition,
                         signature_from_json, tree_decomposition)
from .ucq import _compile_det, compile_bool, nx_provenance, parse_ucq
from . import prob as _prob


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("%s is not valid JSON: %s" % (path, exc))
        except RecursionError:
            raise ValueError("%s nests deeper than the json module can "
                             "read" % path) from None


def _load_instance(path):
    return instance_from_json(_load_json(path))


def _emit(data, path=None):
    try:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        raise SizeCap("the output nests deeper than the json module can "
                      "write") from None
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _println(text, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _query(args):
    free = tuple(x for x in (args.free or "").split(",") if x)
    return parse_ucq(args.query, free)


def cmd_decompose(args):
    instance = _load_instance(args.instance)
    decomp = tree_decomposition(instance, args.width)
    if args.normalize:
        decomp = normalize_decomposition(decomp)
    _emit(decomposition_to_json(decomp), args.output)
    return 0


def cmd_encode(args):
    instance = _load_instance(args.instance)
    decomp = normalize_decomposition(tree_decomposition(instance, args.width))
    _emit(encoding_to_json(encode(instance, decomp)), args.output)
    return 0


def cmd_decode(args):
    enc = encoding_from_json(_load_json(args.encoding))
    instance = decode(enc.root)
    if instance is None:
        sys.stderr.write("invalid encoding: a fact is created twice\n")
        return 2
    _emit(instance_to_json(instance), args.output)
    return 0


def cmd_compile(args):
    q = _query(args)
    if args.width < 1:
        raise ValueError("width bound must be >= 1")
    if args.instance:
        signature = _load_instance(args.instance).signature
    else:
        signature = signature_from_json(_load_json(args.signature),
                                        "signature")
    labels = kfact_labels(signature, args.width)
    automaton = _compile_det(q, lambda step: materialize(step, labels))
    _emit(automaton_to_json(automaton), args.output)
    return 0


def cmd_provenance(args):
    instance = _load_instance(args.instance)
    if args.mode == "nx":
        if not args.query:
            raise SystemExit("--mode nx needs --query")
        circuit = nx_provenance(_query(args), instance, args.width)
        if args.expand or args.semiring:
            poly = expand_polynomial(circuit)
            if args.semiring:
                semiring = BUILTIN_SEMIRINGS[args.semiring]
                assign = {}
                if args.assign:
                    assign = _load_json(args.assign)
                    if not isinstance(assign, dict):
                        raise ValueError("assignment is not a JSON object")
                values = {}
                for m, _ in poly.monomials.items():
                    for v, _e in m:
                        values[v] = _parse_value(args.semiring, str(v),
                                                 assign.get(str(v)), semiring)
                _println(str(poly.evaluate(semiring, values)), args.output)
            else:
                _println(str(poly), args.output)
        else:
            _emit(circuit_to_json(circuit), args.output)
        return 0
    if args.query:
        automaton = compile_bool(_query(args))
    else:
        automaton = automaton_from_json(_load_json(args.automaton))
    res, _enc = query_provenance_circuit(automaton, instance, args.width)
    _emit(circuit_to_json(res.circuit), args.output)
    return 0


_POSBOOL_STRINGS = {"true": True, "1": True, "false": False, "0": False}


def _parse_value(name, var, raw, semiring):
    """The --assign value raw of input var in the semiring named name."""
    if raw is None:
        return semiring.one
    if isinstance(raw, (list, dict)) or name == "security" and \
            raw not in SECURITY_ORDER:
        raise ValueError("assignment of %s is %s, not a %s value"
                         % (var, json.dumps(raw), name))
    if name == "N":
        return int(raw)
    if name == "posbool":
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str) and raw in _POSBOOL_STRINGS:
            return _POSBOOL_STRINGS[raw]
        raise SystemExit("--semiring posbool takes true, false, \"true\", "
                         "\"false\", \"1\" or \"0\", not %s"
                         % json.dumps(raw))
    if name == "tropical":
        return None if raw == "inf" else int(raw)
    if name == "security":
        return raw
    return Fraction(raw)


def cmd_prob(args):
    q = _query(args)
    if args.pcc:
        pr = query_probability_pcc(q, pcc_from_json(_load_json(args.pcc)),
                                   args.width)
    elif args.pc:
        pcc = pc_to_pcc(pc_from_json(_load_json(args.pc)), args.width)
        pr = query_probability_pcc(q, pcc, None)
    elif args.bid:
        pr = query_probability_bid(q, bid_from_json(_load_json(args.bid)),
                                   args.width)
    elif args.prxml:
        pr = prxml_query_probability(q, doc_from_json(_load_json(args.prxml)),
                                     args.width)
    else:
        raise SystemExit("one of --pcc/--pc/--bid/--prxml is required")
    _println(format_fraction(pr), args.output)
    return 0


def cmd_count(args):
    instance = _load_instance(args.instance)
    n = _prob.count_matches(_query(args), instance, args.width)
    _println(str(n), args.output)
    return 0


def cmd_prxml_convert(args):
    doc = doc_from_json(_load_json(args.input))
    if args.to == "binary":
        _emit(doc_to_json(muxind_to_binary(doc)), args.output)
    elif args.to == "fie":
        _emit(doc_to_json(muxind_to_fie(muxind_to_binary(doc))), args.output)
    else:
        pc = fie_to_pc(muxind_to_fie(muxind_to_binary(doc)))
        _emit(_prob.pc_to_json(pc), args.output)
    return 0


def _add_common(p):
    p.add_argument("--output", help="write to a file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(prog="treeprov")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="tree-decompose an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--width", type=int)
    p.add_argument("--normalize", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("encode", help="tree-encode an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--width", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a tree encoding")
    p.add_argument("--encoding", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("compile", help="compile a UCQ to an automaton")
    p.add_argument("--query", required=True)
    p.add_argument("--free", default="")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--instance", help="take the signature from an instance")
    p.add_argument("--signature", help="signature JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("provenance", help="provenance circuit of a query")
    p.add_argument("--instance", required=True)
    p.add_argument("--query")
    p.add_argument("--free", default="")
    p.add_argument("--automaton")
    p.add_argument("--width", type=int)
    p.add_argument("--mode", choices=("bool", "nx"), default="bool")
    p.add_argument("--expand", action="store_true")
    p.add_argument("--semiring", choices=sorted(BUILTIN_SEMIRINGS))
    p.add_argument("--assign", help="JSON file of input values")
    _add_common(p)
    p.set_defaults(func=cmd_provenance)

    p = sub.add_parser("prob", help="query probability")
    p.add_argument("--query", required=True)
    p.add_argument("--free", default="")
    p.add_argument("--pcc")
    p.add_argument("--pc")
    p.add_argument("--bid")
    p.add_argument("--prxml")
    p.add_argument("--width", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("count", help="count query matches")
    p.add_argument("--query", required=True)
    p.add_argument("--free", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--width", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("prxml-convert", help="convert a PrXML document")
    p.add_argument("--input", required=True)
    p.add_argument("--to", choices=("binary", "fie", "pc"), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_prxml_convert)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoDecomposition as exc:
        sys.stderr.write("no decomposition: %s\n" % exc)
        return 2
    except StateBlowup as exc:
        sys.stderr.write("state blowup: %s\n" % exc)
        return 3
    except SizeCap as exc:
        sys.stderr.write("size cap: %s\n" % exc)
        return 3
    except MemoryError:
        sys.stderr.write("out of memory in %s\n" % args.command)
        return 3
    except (OSError, SyntaxError, ValueError) as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
