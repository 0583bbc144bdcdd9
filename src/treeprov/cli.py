"""Command-line front end.

Subcommands: decompose, encode, decode, compile, provenance, prob,
count, prxml-convert.  All outputs are deterministic JSON or plain
text.  Exit codes: 2 signals NoDecomposition, an invalid encoding or a
usage error (argparse's: a required flag missing, two of the input
flags that exclude each other, `provenance --mode nx` without --query,
`provenance` --expand, --semiring or --assign without `--mode nx`, or
`provenance` with a non-empty --free), 3 a resource cap (a state
blowup, an `--expand` past its monomial cap, running out of memory, or
an output that nests deeper than the json module can write, about
1,000 levels of arrays and objects), and 4 invalid input: a missing or unreadable file, malformed
JSON or JSON nested deeper than the json module can read, an input file
without a required key, an --assign value outside its semiring, a query
or formula that does not parse, a query atom whose arity disagrees with
the instance, or a PrXML document with a probability outside [0, 1] or
a fie node where mux/ind are expected.
Each error is one line on stderr.  The tree-shaped formats
(decompositions, encodings, PrXML documents) nest two or three levels
per tree level, so their depth limit comes from the json module.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .automata import automaton_from_json, automaton_to_json, materialize
from .circuits import (BUILTIN_SEMIRINGS, SECURITY_ORDER, circuit_to_json,
                       eval_semiring, expand_polynomial)
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
        circuit = nx_provenance(_query(args), instance, args.width)
        if args.semiring:
            semiring = BUILTIN_SEMIRINGS[args.semiring]
            assign = _load_json(args.assign) if args.assign else {}
            if not isinstance(assign, dict):
                raise ValueError("assignment is not a JSON object")
            value = eval_semiring(circuit, semiring, {
                g: _parse_value(args.semiring, str(g), assign.get(str(g)),
                                semiring) for g in circuit.inputs()})
            # tropical's zero, +infinity, is None
            _println("inf" if value is None else str(value), args.output)
        elif args.expand:
            _println(str(expand_polynomial(circuit)), args.output)
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
    """The --assign value raw of input var in the semiring named name:
    N takes a non-negative integer, tropical an integer or "inf" (each
    integer a JSON integer or its decimal string), fuzzy a number in
    [0, 1] (as a fraction string too), security a level, and posbool a
    truth value.  Any other value is a ValueError, not a value rounded
    or read into the semiring."""
    if raw is None:
        return semiring.one
    # JSON true and false are bools, not integers
    integer = type(raw) is int or isinstance(raw, str) and \
        re.fullmatch("-?[0-9]+", raw) is not None
    if name == "N" and integer and int(raw) >= 0:
        return int(raw)
    if name == "tropical" and (integer or raw == "inf"):
        return None if raw == "inf" else int(raw)
    if name == "fuzzy" and type(raw) in (int, float, str):
        try:
            value = Fraction(raw)
        except (ValueError, OverflowError, ZeroDivisionError):
            value = None
        if value is not None and 0 <= value <= 1:
            return value
    if name == "security" and raw in SECURITY_ORDER:
        return raw
    if name == "posbool" and type(raw) is bool:
        return raw
    if name == "posbool" and isinstance(raw, str) and raw in _POSBOOL_STRINGS:
        return _POSBOOL_STRINGS[raw]
    raise ValueError("assignment of %s is %s, not a %s value"
                     % (var, json.dumps(raw), name))


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
    else:
        pr = prxml_query_probability(q, doc_from_json(_load_json(args.prxml)),
                                     args.width)
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance",
                        help="take the signature from an instance")
    source.add_argument("--signature", help="signature JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("provenance", help="provenance circuit of a query")
    p.add_argument("--instance", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--query")
    source.add_argument("--automaton")
    p.add_argument("--free", default="")
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
    source = p.add_mutually_exclusive_group(required=True)
    for flag in ("--pcc", "--pc", "--bid", "--prxml"):
        source.add_argument(flag)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "provenance":
        if args.mode == "nx" and args.automaton:
            parser.error("provenance --mode nx needs --query, not --automaton")
        for flag in ("expand", "semiring", "assign"):
            if args.mode != "nx" and getattr(args, flag):
                parser.error("provenance --%s needs --mode nx" % flag)
        if args.free:  # circuits are of the Boolean query
            parser.error("provenance takes no --free variables")
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
