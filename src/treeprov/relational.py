"""Relational instances, fact valuations, and tree decompositions."""

import heapq
from dataclasses import dataclass

from .errors import NoDecomposition
from .trees import fold


@dataclass(frozen=True)
class Fact:
    rel: str
    args: tuple
    id: str

    def key(self):
        return (self.rel, self.args)


class Instance:
    """A finite set of ground facts over a signature (set semantics)."""

    def __init__(self, signature, facts):
        self.signature = dict(signature)
        for name, arity in self.signature.items():
            if arity < 1:
                raise ValueError("arity must be positive: %s" % name)
        seen = set()
        out = []
        for f in facts:
            if f.rel not in self.signature:
                raise ValueError("unknown relation %s" % f.rel)
            if len(f.args) != self.signature[f.rel]:
                raise ValueError("arity mismatch for %s" % f.rel)
            if f.key() in seen:
                raise ValueError("duplicate fact %s%s" % (f.rel, f.args))
            seen.add(f.key())
            out.append(f)
        self.facts = tuple(out)
        self.by_id = {f.id: f for f in self.facts}
        if len(self.by_id) != len(self.facts):
            raise ValueError("duplicate fact ids")
        self.by_rel = {}
        for f in self.facts:
            self.by_rel.setdefault(f.rel, []).append(f)

    @property
    def domain(self):
        out = []
        seen = set()
        for f in self.facts:
            for a in f.args:
                if a not in seen:
                    seen.add(a)
                    out.append(a)
        return out

    def fact_keys(self):
        return {f.key() for f in self.facts}

    def __len__(self):
        return len(self.facts)

    def __repr__(self):
        return "Instance(%d facts)" % len(self.facts)


def make_instance(signature, triples):
    """Convenience: triples are (rel, args) pairs; ids assigned F1, F2, ..."""
    facts = [Fact(rel, tuple(args), "F%d" % (i + 1))
             for i, (rel, args) in enumerate(triples)]
    return Instance(signature, facts)


def subinstance(instance, valuation):
    """Keep the facts mapped to 1 by the (total) valuation."""
    for f in instance.facts:
        if f.id not in valuation:
            raise ValueError("partial valuation: missing %s" % f.id)
    kept = [f for f in instance.facts if valuation[f.id] == 1]
    return Instance(instance.signature, kept)


# ---------------------------------------------------------------------------
# Tree decompositions


class Bag:
    """One bag of a decomposition; holds domain elements and assigned facts."""

    def __init__(self, dom, children=(), facts=()):
        self.dom = frozenset(dom)
        self.children = list(children)
        self.facts = tuple(facts)

    def __repr__(self):
        return "Bag(%s)" % sorted(self.dom, key=str)


def _children(bag):
    return bag.children


class TreeDecomposition:
    def __init__(self, root, instance=None, normalized=False):
        self.root = root
        self.instance = instance
        self.normalized = normalized

    def bags(self):
        out = []
        stack = [self.root]
        while stack:
            b = stack.pop()
            out.append(b)
            stack.extend(b.children)
        return out

    @property
    def width(self):
        return max(len(b.dom) for b in self.bags()) - 1

    def bag_parents(self):
        par = {}
        for b in self.bags():
            for c in b.children:
                par[id(c)] = b
        return par

    def assigned_bag(self):
        """Map fact id -> bag (normalized decompositions)."""
        out = {}
        for b in self.bags():
            for fid in b.facts:
                out[fid] = b
        return out


def primal_graph(instance):
    """Vertices = domain elements; edges between co-occurring elements."""
    verts = instance.domain
    adj = {v: set() for v in verts}
    for f in instance.facts:
        args = set(f.args)
        for a in args:
            for b in args:
                if a != b:
                    adj[a].add(b)
    return verts, adj


def _exact_elimination_order(verts, adj):
    """Optimal-width elimination ordering by DP over vertex subsets."""
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for v in verts:
        for u in adj[v]:
            nbr[index[v]] |= 1 << index[u]
    full = (1 << n) - 1
    INF = n + 1

    def q_count(s_mask, v):
        # vertices outside s_mask (and != v) reachable from v through s_mask
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            m = nbr[u] & ~seen
            seen |= m
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                if (s_mask >> w) & 1:
                    stack.append(w)
                else:
                    out |= low
        return bin(out).count("1")

    best = {0: -1}
    choice = {}
    # process subsets in increasing popcount
    by_count = [[] for _ in range(n + 1)]
    for s in range(1 << n):
        by_count[bin(s).count("1")].append(s)
    for cnt in range(1, n + 1):
        for s in by_count[cnt]:
            val = INF
            pick = -1
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                sub = s ^ low
                if best[sub] >= val:
                    continue  # max(best[sub], q) cannot beat val
                cand = max(best[sub], q_count(sub, v))
                if cand < val:
                    val = cand
                    pick = v
            best[s] = val
            choice[s] = pick
    order_rev = []
    s = full
    while s:
        v = choice[s]
        order_rev.append(verts[v])
        s ^= 1 << v
    return list(reversed(order_rev)), best[full]


def _min_fill_order(verts, adj):
    """Min-fill elimination ordering (Bodlaender & Koster, "Treewidth
    computations I: Upper bounds", 2010) with incremental fill counts.

    A vertex's fill is the number of non-adjacent pairs among its
    remaining neighbours.  Eliminating v changes it only for v's
    neighbours and for the common neighbours of each fill edge it adds,
    so only those are recounted.  Among equal fills the vertex latest in
    ``verts`` goes first: the last one eliminated, whose bag becomes the
    root, is the earliest, and the order does not depend on the hash
    seed."""
    adj = {v: set(adj[v]) for v in verts}
    rank = {v: i for i, v in enumerate(verts)}

    def fill(v):
        nb = adj[v]
        return sum(len(nb - adj[a]) - 1 for a in nb) // 2

    fills = {v: fill(v) for v in verts}
    heap = [(f, -rank[v], v) for v, f in fills.items()]
    heapq.heapify(heap)
    order = []
    width = 0
    while heap:
        f, _, v = heapq.heappop(heap)
        if fills.get(v) != f:
            continue  # eliminated, or recounted since this entry
        del fills[v]
        nb = adj.pop(v)
        order.append(v)
        width = max(width, len(nb))
        for a in nb:
            adj[a].discard(v)
        touched = set(nb)
        for a in nb:
            missing = nb - adj[a]
            missing.discard(a)
            for b in missing:
                touched |= adj[a] & adj[b]
            adj[a] |= missing
        for u in touched:
            f = fill(u)
            if f != fills[u]:
                fills[u] = f
                heapq.heappush(heap, (f, -rank[u], u))
    return order, width


def _mmd_plus(verts, adj):
    """MMD+ (minor-min-width) lower bound on treewidth (Bodlaender &
    Koster, "Treewidth computations II: Lower bounds", 2011).

    Every minor of a graph has treewidth at most the graph's, and at
    least its own minimum degree.  So repeatedly take a minimum-degree
    vertex, raise the bound to its degree, and contract it into its
    minimum-degree neighbour.  Ties go to the vertex earliest in
    ``verts``."""
    adj = {v: set(adj[v]) for v in verts}
    rank = {v: i for i, v in enumerate(verts)}
    heap = [(len(adj[v]), rank[v], v) for v in verts]
    heapq.heapify(heap)
    low = 0
    while len(adj) > 1:
        d, _, v = heapq.heappop(heap)
        if v not in adj or len(adj[v]) != d:
            continue  # contracted, or its degree changed since
        low = max(low, d)
        nb = adj.pop(v)
        if not nb:
            continue
        u = min(nb, key=lambda w: (len(adj[w]), rank[w]))
        for w in nb:
            adj[w].discard(v)
        moved = nb - adj[u]
        moved.discard(u)
        for w in moved:
            adj[w].add(u)
        adj[u] |= moved
        for w in nb:
            heapq.heappush(heap, (len(adj[w]), rank[w], w))
    return low


def _decomposition_from_order(verts, adj, order, instance):
    """Standard bag construction along an elimination ordering."""
    if not verts:
        return TreeDecomposition(Bag(frozenset()), instance)
    adj = {v: set(adj[v]) for v in verts}
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    later_nbrs = []
    remaining = set(verts)
    for v in order:
        nb = adj[v] & remaining  # `remaining - {v}` would copy it per v
        nb.discard(v)
        bags.append(Bag({v} | nb))
        later_nbrs.append(nb)
        for a in nb:
            for b in nb:
                if a != b:
                    adj[a].add(b)
        remaining.remove(v)
    # attach each bag to the bag of its earliest-eliminated later neighbor
    roots = []
    for i, nb in enumerate(later_nbrs):
        if nb:
            j = min(pos[u] for u in nb)
            bags[j].children.append(bags[i])
        else:
            roots.append(bags[i])
    root = roots[-1]
    for r in roots[:-1]:
        root.children.append(r)
    return TreeDecomposition(root, instance)


EXACT_LIMIT = 14


def tree_decomposition(instance, k=None):
    """A tree decomposition of the instance's primal graph, of minimal
    width when the domain has at most EXACT_LIMIT elements.

    Min-fill runs first.  When its width is above the MMD+ lower bound
    and the domain is small enough, the exact subset DP replaces it;
    otherwise min-fill is provably optimal or the domain too large.
    NoDecomposition if the width exceeds k, before any ordering when
    the lower bound already does."""
    if k is not None and k < 1:
        raise ValueError("width bound must be >= 1")
    verts, adj = primal_graph(instance)
    if not verts:
        return TreeDecomposition(Bag(frozenset()), instance)
    small = len(verts) <= EXACT_LIMIT
    # the bound serves the early refusal and the choice of the exact DP
    low = _mmd_plus(verts, adj) if small or k is not None else 0
    if k is not None and low > k:
        raise NoDecomposition("treewidth lower bound %d (MMD+) exceeds "
                              "bound %d" % (low, k))
    order, width = _min_fill_order(verts, adj)
    if small and width > low:
        order, width = _exact_elimination_order(verts, adj)
    if k is not None and width > k:
        raise NoDecomposition("width %d exceeds bound %d" % (width, k))
    return _decomposition_from_order(verts, adj, order, instance)


def check_decomposition(instance, decomposition):
    """Connectivity + coverage + assigned bags cover their facts."""
    bags = decomposition.bags()
    parent = decomposition.bag_parents()
    elems = set()
    for b in bags:
        elems |= b.dom
    for a in elems:
        containing = [b for b in bags if a in b.dom]
        edges = sum(1 for b in containing
                    if id(b) in parent and a in parent[id(b)].dom)
        if len(containing) - edges != 1:
            return False
    for f in instance.facts:
        if not any(set(f.args) <= b.dom for b in bags):
            return False
    for b in bags:
        for fid in b.facts:
            f = instance.by_id.get(fid)
            if f is None or not set(f.args) <= b.dom:
                return False
    return True


def normalize_decomposition(decomposition):
    """Binary full tree, at most one assigned fact per bag, same width.

    Each fact is assigned to its topmost covering bag, then every bag is
    expanded into a chain with one fact per node; fan-out is binarized
    through copies of the bag and empty-domain padding leaves.
    """
    instance = decomposition.instance
    if instance is None:
        raise ValueError("decomposition has no attached instance")
    # topmost (first in BFS order) covering bag per fact: walk the bags
    # in BFS order and try only the facts on the bag's elements
    bfs = [decomposition.root]
    for b in bfs:
        bfs.extend(b.children)
    need = [frozenset(f.args) for f in instance.facts]
    target = {i: bfs[0] for i, args in enumerate(need) if not args}
    on = {}
    for i, args in enumerate(need):
        for a in args:
            on.setdefault(a, []).append(i)
    for b in bfs:
        for a in b.dom:
            for i in on.get(a, ()):
                if i not in target and need[i] <= b.dom:
                    target[i] = b
    assigned = {id(b): [] for b in bfs}
    for i, f in enumerate(instance.facts):
        if i not in target:
            raise ValueError("decomposition does not cover %s" % f.id)
        assigned[id(target[i])].append(f.id)

    def pad():
        return Bag(frozenset())

    def build(bag, kids):
        # fan-out hangs below a chain of copies of the bag
        while len(kids) > 2:
            kids[-2:] = [Bag(bag.dom, kids[-2:])]
        if len(kids) == 1:
            kids.append(pad())
        facts = assigned[id(bag)]
        chain_facts = facts if facts else [None]
        # bottom of the chain carries the children
        node = None
        for fid in reversed(chain_facts):
            fs = (fid,) if fid is not None else ()
            if node is None:
                node = Bag(bag.dom, kids, fs)
            else:
                node = Bag(bag.dom, [node, pad()], fs)
        return node

    root = fold(decomposition.root, _children, build)
    return TreeDecomposition(root, instance, normalized=True)


# ---------------------------------------------------------------------------
# JSON formats


def instance_to_json(instance):
    return {
        "signature": dict(instance.signature),
        "facts": [{"rel": f.rel, "args": list(f.args), "id": f.id}
                  for f in instance.facts],
    }


def json_field(data, key, where):
    """data[key] of parsed JSON, or ValueError naming what is wrong."""
    if not isinstance(data, dict):
        raise ValueError("%s is not a JSON object" % where)
    if key not in data:
        raise ValueError("%s has no %r key" % (where, key))
    return data[key]


def json_list(data, key, where):
    """`json_field` that must be a JSON array."""
    value = json_field(data, key, where)
    if not isinstance(value, list):
        raise ValueError("%s %r is not a list" % (where, key))
    return value


def signature_from_json(data, where):
    """A signature read from JSON: an object from relation names to
    positive integer arities, or ValueError naming what is wrong."""
    if not isinstance(data, dict):
        raise ValueError("%s is not a JSON object" % where)
    for rel, arity in data.items():
        if type(arity) is not int or arity < 1:
            raise ValueError("%s arity of %s is %r, not a positive integer"
                             % (where, rel, arity))
    return data


def instance_from_json(data):
    signature = signature_from_json(json_field(data, "signature", "instance"),
                                    "instance 'signature'")
    facts = []
    entries = data.get("facts", [])
    if not isinstance(entries, list):
        raise ValueError("instance 'facts' is not a list")
    for i, f in enumerate(entries):
        where = "fact %d" % (i + 1)
        args = json_list(f, "args", where)
        fid = f.get("id", "F%d" % (i + 1))
        if type(fid) not in (str, int):
            raise ValueError("%s 'id' is %r, not a string or an integer"
                             % (where, fid))
        facts.append(Fact(json_field(f, "rel", where), tuple(args), fid))
    return Instance(signature, facts)


def decomposition_to_json(decomposition):
    def conv(bag, kids):
        out = {"dom": sorted(bag.dom, key=str)}
        if bag.facts:
            out["facts"] = list(bag.facts)
        if kids:
            out["children"] = kids
        return out

    return fold(decomposition.root, _children, conv)


def decomposition_from_json(data, instance=None):
    return TreeDecomposition(fold(
        data, lambda node: node.get("children", []),
        lambda node, kids: Bag(node["dom"], kids,
                               tuple(node.get("facts", [])))), instance)
