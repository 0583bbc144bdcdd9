"""Provenance circuits and probabilistic query evaluation on
treelike data: tree decompositions, tree encodings, bottom-up tree
automata, Boolean and N[X] provenance circuits, exact probability
by running the query automaton over the instance's (or the
cc-encoding's) tree with integer world weights, and PrXML support."""

__version__ = "0.1.0"

from .relational import (Fact, Instance, TreeDecomposition, make_instance,
                         tree_decomposition, check_decomposition,
                         normalize_decomposition)
from .encoding import KFact, TreeEncoding, encode, decode, annotate, teval
from .automata import (BNTA, accepts, count_runs, determinize,
                       lazy_determinize, intersect, union, lift_boolean,
                       monotonize)
from .circuits import (Circuit, Polynomial, Semiring, NAT, POSBOOL,
                       TROPICAL, SECURITY, FUZZY, eval_bool, eval_semiring,
                       expand_polynomial, arity_two)
from .provcirc import (bool_provenance_circuit, monotone_provenance_circuit,
                       nx_provenance_circuit, query_provenance_circuit)
from .ucq import (CQ, UCQ, Atom, parse_ucq, satisfies, enumerate_matches,
                  compile_bool, compile_bag, nx_provenance,
                  nx_provenance_bruteforce)
from .prob import (PCInstance, PCCInstance, BIDInstance,
                   message_passing_prob, lineage_circuit, cc_encode,
                   query_probability_pcc, query_probability_bid,
                   pc_to_pcc, bid_to_pcc, count_matches)
from .prxml import (PrXMLDoc, PrXMLNode, lcrs, unlcrs,
                    xml_relational_encoding, muxind_to_binary,
                    muxind_to_fie, scope_width, fie_to_pc,
                    prxml_query_probability)
from .errors import (TreeprovError, NoDecomposition, StateBlowup,
                     NotMonotone, SizeCap)
