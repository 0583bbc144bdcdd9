"""Tree encodings of treelike instances over the k-fact alphabet.

A k-fact is a pair (dom, struct) where dom is a subset of at most k+1 of
the 2k+2 slot names (here: integers 1..2k+2) and struct is zero or one
fact whose arguments are slots of dom.  A tree encoding is a binary full
tree labeled with k-facts; decoding reads the tree top-down, picking
fresh elements for slots not shared with the parent.

An instance's encoding depends only on the instance and the width bound,
so `_encoded` builds it once per process: it keeps, weakly per
`Instance` object and once per bound, the encoding of the instance's
normalized decomposition (and none of its bags), with its postorder
node tuple, and rebuilds it when `instance.facts` has been replaced.  An
encoding it returns is shared by every later call on that instance and
must not be changed.
"""

import weakref
from dataclasses import dataclass, field

from .relational import (Fact, Instance, TreeDecomposition,
                         normalize_decomposition, tree_decomposition)
from .trees import Node, children, fold, map_labels, postorder


@dataclass(frozen=True)
class KFact:
    dom: frozenset
    rel: object = None  # relation name or None
    args: tuple = ()
    # the hash, computed once: labels key every automaton memo lookup
    _hash: int = field(init=False, compare=False, repr=False)
    # neuter()'s result, made on its first call
    _neutered: object = field(default=None, init=False, compare=False,
                              repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.dom, self.rel, self.args)))

    def __hash__(self):
        return self._hash

    def neuter(self):
        if self.rel is None:
            return self
        if self._neutered is None:
            object.__setattr__(self, "_neutered", KFact(self.dom))
        return self._neutered

    def __repr__(self):
        d = ",".join("a%d" % s for s in sorted(self.dom))
        if self.rel is None:
            return "({%s},-)" % d
        return "({%s},%s(%s))" % (d, self.rel,
                                  ",".join("a%d" % s for s in self.args))


def alphabet_label(dom, struct, k):
    """Canonical KFact, validated against the width parameter k."""
    dom = frozenset(dom)
    if len(dom) > k + 1:
        raise ValueError("k-fact domain too large for width %d" % k)
    if any(s < 1 or s > 2 * k + 2 for s in dom):
        raise ValueError("slot outside 1..%d" % (2 * k + 2))
    if struct is None:
        return KFact(dom)
    rel, args = struct
    if not set(args) <= dom:
        raise ValueError("fact arguments outside the label domain")
    return KFact(dom, rel, tuple(args))


_PAD = KFact(frozenset())  # the label of every padding leaf


class TreeEncoding:
    """Binary full KFact-tree plus the fact-id <-> node bijection."""

    def __init__(self, root, k, fact_nodes=None):
        self.root = root
        self.k = k
        self.fact_nodes = dict(fact_nodes or {})  # fact id -> Node
        self.node_fact = {id(n): fid for fid, n in self.fact_nodes.items()}
        self._nodes = None

    def nodes(self):
        """The nodes in postorder, as a tuple computed once."""
        if self._nodes is None:
            self._nodes = tuple(postorder(self.root))
        return self._nodes


def encode(instance, decomposition):
    """Tree encoding of a normalized decomposition of the instance.

    Slot choice: shared elements reuse the parent's slots; fresh elements
    take the smallest slots not used by the parent, in sorted element
    order, so a slot that two adjacent nodes share names the same
    element in both.  The root bag maps its elements to slots 1.. in
    sorted order.
    """
    if not decomposition.normalized:
        if decomposition.instance is None:
            decomposition = TreeDecomposition(decomposition.root, instance)
        decomposition = normalize_decomposition(decomposition)
    k = max(decomposition.width, 0)
    slots = range(1, 2 * k + 3)
    fact_nodes = {}
    done = []  # the nodes of finished bags
    # (bag, its parent's slots, False) on the way down, then (bag, its
    # slots, True) on the way up, once its children are pushed
    stack = [(decomposition.root, {}, False)]
    while stack:
        bag, slot_of, up = stack.pop()
        if not (up or bag.dom or bag.facts or bag.children):
            done.append(Node(_PAD))  # a padding leaf needs no slots
            continue
        if not up:
            used = set(slot_of.values())
            slot_of = {a: s for a, s in slot_of.items() if a in bag.dom}
            free = [s for s in slots if s not in used]
            fresh = sorted(bag.dom - set(slot_of), key=str)
            slot_of.update(zip(fresh, free))
            stack.append((bag, slot_of, True))
            stack.extend((c, slot_of, False) for c in reversed(bag.children))
            continue
        struct = None
        if bag.facts:
            f = instance.by_id[bag.facts[0]]
            struct = (f.rel, tuple(slot_of[a] for a in f.args))
        label = alphabet_label({slot_of[a] for a in bag.dom}, struct, k)
        cut = len(done) - len(bag.children)
        node = Node(label, *done[cut:])
        del done[cut:]
        if bag.facts:
            fact_nodes[bag.facts[0]] = node
        done.append(node)
    return TreeEncoding(done[0], k, fact_nodes)


_ENCODED = weakref.WeakKeyDictionary()  # Instance -> {k: (facts, encoding)}


def _kept(cache, instance, key, build):
    """build(), kept weakly per instance object and key in cache while
    instance.facts is the tuple it was built from, so an entry goes with
    its instance; what build raises (a refusal) is raised every call."""
    entries = cache.get(instance) or {}
    built = entries.get(key)
    if built is not None and built[0] is instance.facts:
        return built[1]
    value = build()
    entries[key] = (instance.facts, value)
    cache[instance] = entries
    return value


def _encoded(instance, k):
    """The instance's encoding at width k, `_kept` in `_ENCODED`."""
    return _kept(_ENCODED, instance, k, lambda: encode(
        instance, normalize_decomposition(tree_decomposition(instance, k))))


INVALID = None  # decode returns None for invalid encodings


def decode(root):
    """Instance decoded from a KFact-tree, or None if some fact is
    created twice.  Fresh elements are named e1, e2, ... in preorder."""
    facts = []
    seen = set()
    fresh = 0
    stack = [(root, {})]  # (node, its parent's slot -> element)
    while stack:
        node, parent_map = stack.pop()
        label = node.label
        elem_of = {}
        for s in sorted(label.dom):
            if s in parent_map:
                elem_of[s] = parent_map[s]
            else:
                fresh += 1
                elem_of[s] = "e%d" % fresh
        if label.rel is not None:
            key = (label.rel, tuple(elem_of[s] for s in label.args))
            if key in seen:
                return INVALID
            seen.add(key)
            facts.append(key)
        stack.extend((c, elem_of) for c in reversed(children(node)))
    signature = {}
    for rel, args in facts:
        signature[rel] = len(args)
    return Instance(signature,
                    [Fact(rel, args, "F%d" % (i + 1))
                     for i, (rel, args) in enumerate(facts)])


def annotate(encoding, valuation, default=1):
    """Tree with labels (KFact, i): fact nodes get the valuation of their
    fact, all other nodes get the default annotation."""
    node_fact = encoding.node_fact

    def ann(node):
        fid = node_fact.get(id(node))
        return valuation[fid] if fid is not None else default

    return fold(encoding.root, children,
                lambda n, kids: Node((n.label, ann(n)), *kids))


def teval(root):
    """Strip a Boolean annotation: (tau,1) -> tau, (tau,0) -> neuter(tau)."""
    return map_labels(root, lambda label: teval_label(*label))


def teval_label(label, b):
    return label if b else label.neuter()


def kfact_labels(signature, k):
    """The full (finite) k-fact alphabet for a signature."""
    import itertools

    slots = range(1, 2 * k + 3)
    out = []
    for size in range(0, k + 2):
        for dom in itertools.combinations(slots, size):
            domset = frozenset(dom)
            out.append(KFact(domset))
            for rel in sorted(signature, key=str):
                arity = signature[rel]
                for args in itertools.product(sorted(domset), repeat=arity):
                    out.append(KFact(domset, rel, args))
    return out


# ---------------------------------------------------------------------------
# JSON

def label_to_json(label):
    out = {"dom": sorted(label.dom)}
    if label.rel is not None:
        out["fact"] = {"rel": label.rel, "args": list(label.args)}
    return out


def label_from_json(data):
    struct = None
    if "fact" in data:
        struct = (data["fact"]["rel"], tuple(data["fact"]["args"]))
    dom = frozenset(data["dom"])
    if struct is None:
        return KFact(dom)
    return KFact(dom, struct[0], struct[1])


def encoding_to_json(encoding):
    node_fact = encoding.node_fact

    def conv(node, kids):
        out = label_to_json(node.label)
        fid = node_fact.get(id(node))
        if fid is not None:
            out["fact_id"] = fid
        if kids:
            out["children"] = kids
        return out

    return {"k": encoding.k, "tree": fold(encoding.root, children, conv)}


def encoding_from_json(data):
    fact_nodes = {}

    def conv(d, kids):
        node = Node(label_from_json(d), *kids)
        if "fact_id" in d:
            fact_nodes[d["fact_id"]] = node
        return node

    root = fold(data["tree"], lambda d: (d.get("children") or ())[:2], conv)
    return TreeEncoding(root, data["k"], fact_nodes)
