"""Circuit DAGs (Boolean and semiring), semirings, and polynomials.

Gates are stored in a dict keyed by arbitrary hashable ids; the
serialized form uses dense indices in topological order.  Nullary
and/or gates are the constants 1 and 0 (likewise nullary mul/add for
semiring circuits).
"""

from fractions import Fraction

from .errors import SizeCap
from .relational import Fact, Instance, json_field


class Circuit:
    """kind is 'bool' or 'semiring'."""

    def __init__(self, kind, gates, output):
        self.kind = kind
        self.gates = dict(gates)  # id -> (type, tuple of input ids)
        self.output = output
        self._topo = None

    def inputs(self):
        return [g for g, (t, _) in self.gates.items() if t == "inp"]

    def topo_order(self):
        if self._topo is None:
            order = []
            state = {}  # 0 in progress, 1 done
            for start in self.gates:
                if start in state:
                    continue
                stack = [(start, False)]
                while stack:
                    g, expanded = stack.pop()
                    if expanded:
                        state[g] = 1
                        order.append(g)
                        continue
                    if state.get(g) == 1:
                        continue
                    if state.get(g) == 0:
                        raise ValueError("circuit has a cycle at %r" % (g,))
                    state[g] = 0
                    stack.append((g, True))
                    for child in self.gates[g][1]:
                        if state.get(child) != 1:
                            stack.append((child, False))
            self._topo = order
        return self._topo

    def __len__(self):
        return len(self.gates)


class Builder:
    """Construct a circuit with fresh ids (ints by default)."""

    def __init__(self, kind):
        self.kind = kind
        self.gates = {}
        self._next = 0

    def add(self, gtype, inputs=(), gid=None):
        if gid is None:
            gid = self._next
            self._next += 1
        if gid in self.gates:
            raise ValueError("duplicate gate id %r" % (gid,))
        inputs = tuple(inputs)
        if len(set(inputs)) != len(inputs):
            raise ValueError("duplicate wire into gate %r" % (gid,))
        if gtype == "not" and len(inputs) != 1:
            raise ValueError("not-gates have fan-in 1")
        if gtype == "inp" and inputs:
            raise ValueError("input gates have fan-in 0")
        self.gates[gid] = (gtype, inputs)
        return gid

    def build(self, output):
        return Circuit(self.kind, self.gates, output)


def _check_total(circuit, valuation):
    for g in circuit.inputs():
        if g not in valuation:
            raise ValueError("partial valuation: missing %r" % (g,))


def eval_bool(circuit, valuation):
    _check_total(circuit, valuation)
    val = {}
    for g in circuit.topo_order():
        t, ins = circuit.gates[g]
        if t == "inp":
            val[g] = 1 if valuation[g] else 0
        elif t == "not":
            val[g] = 1 - val[ins[0]]
        elif t == "and":
            val[g] = 1 if all(val[i] for i in ins) else 0
        elif t == "or":
            val[g] = 1 if any(val[i] for i in ins) else 0
        else:
            raise ValueError("bad gate type %s" % t)
    return val[circuit.output]


def eval_bool_vector(circuit, valuation, width):
    """Bit-parallel evaluation: each value is a width-bit mask."""
    full = (1 << width) - 1
    val = {}
    for g in circuit.topo_order():
        t, ins = circuit.gates[g]
        if t == "inp":
            val[g] = valuation[g] & full
        elif t == "not":
            val[g] = val[ins[0]] ^ full
        elif t == "and":
            v = full
            for i in ins:
                v &= val[i]
            val[g] = v
        else:
            v = 0
            for i in ins:
                v |= val[i]
            val[g] = v
    return val[circuit.output]


def eval_semiring(circuit, semiring, assignment):
    """The circuit's value in the semiring, its inputs valued by
    assignment.  Under `nx_semiring` an add gate sums in place into the
    largest of its inputs' values that this evaluation made and that no
    other gate reads (see `_sum_in_place`), so a chain of n add gates
    costs O(n) monomial updates rather than n copies of a growing sum."""
    _check_total(circuit, assignment)
    sum_into = semiring._sum_into
    if sum_into is not None:
        readers = {circuit.output: 1}  # the caller reads the output
        for _t, ins in circuit.gates.values():
            for i in ins:
                readers[i] = readers.get(i, 0) + 1
        sole = set()  # made here, read by one gate only
    val = {}
    for g in circuit.topo_order():
        t, ins = circuit.gates[g]
        if t == "inp":
            val[g] = assignment[g]
        elif t == "add":
            if sum_into is None:
                v = semiring.zero
                for i in ins:
                    v = semiring.add(v, val[i])
            else:
                v = _sum_in_place(ins, val, sole, sum_into)
            val[g] = v
        elif t == "mul":
            v = semiring.one
            for i in ins:
                v = semiring.mul(v, val[i])
            val[g] = v
        else:
            raise ValueError("bad gate type %s" % t)
        # an input's value is the caller's and a constant the semiring's
        if sum_into is not None and ins and readers.get(g) == 1:
            sole.add(g)
    return val[circuit.output]


def _sum_in_place(ins, val, sole, sum_into):
    """An add gate's value: the values val[i] of its inputs summed by
    sum_into into the largest one whose gate is in sole, which then
    leaves val, or into a new zero if no input is in sole."""
    own = max((i for i in ins if i in sole), key=lambda i: len(val[i]),
              default=None)
    acc = None if own is None else val.pop(own)
    return sum_into(acc, [val[i] for i in ins if i != own])


# ---------------------------------------------------------------------------
# Arity-two normal form


def arity_two(circuit):
    """Rewrite so that and/or gates have fan-in exactly 2 (nullary gates
    stay as constants, fan-in-1 gates are merged with their child).

    Returns (circuit, rep, derived): rep maps old gate id to the id that
    now computes it; derived maps old id to all ids introduced for it
    (for rewriting decompositions).
    """
    if circuit.kind != "bool":
        raise ValueError("arity-two normal form is for Boolean circuits")
    rep = {}
    derived = {}
    gates = {}
    for g in circuit.topo_order():
        t, ins = circuit.gates[g]
        mapped = []
        for i in ins:
            ri = rep[i]
            if ri not in mapped:  # x op x = x for and/or
                mapped.append(ri)
        ins = tuple(mapped)
        if t in ("inp", "not") or len(ins) in (0, 2):
            gates[g] = (t, ins)
            rep[g] = g
            derived[g] = [g]
        elif len(ins) == 1:
            rep[g] = ins[0]
            derived[g] = []
        else:
            acc = ins[0]
            mids = []
            for j, nxt in enumerate(ins[1:]):
                gid = g if j == len(ins) - 2 else (g, "chain", j)
                gates[gid] = (t, (acc, nxt))
                mids.append(gid)
                acc = gid
            rep[g] = acc
            derived[g] = mids
    out = Circuit(circuit.kind, gates, rep[circuit.output])
    return out, rep, derived


# ---------------------------------------------------------------------------
# Relational encoding of arity-two Boolean circuits and decompositions


CIRCUIT_SIGNATURE = {"R_inp": 1, "R_0": 1, "R_1": 1,
                     "R_not": 2, "R_and": 3, "R_or": 3}


def circuit_relational_encoding(circuit):
    """Instance over the circuit schema; elements are the gate ids."""
    return Instance(CIRCUIT_SIGNATURE, _circuit_facts(circuit))


def _circuit_facts(circuit):
    """The facts of `circuit_relational_encoding`, not yet validated."""
    facts = []
    n = 0

    def add(rel, args):
        nonlocal n
        n += 1
        facts.append(Fact(rel, tuple(args), "C%d" % n))

    for g in circuit.topo_order():
        t, ins = circuit.gates[g]
        if t == "inp":
            add("R_inp", (g,))
        elif t == "not":
            add("R_not", (g, ins[0]))
        elif t in ("and", "or"):
            if len(ins) == 0:
                add("R_1" if t == "and" else "R_0", (g,))
            elif len(ins) == 2:
                add("R_and" if t == "and" else "R_or", (g, ins[0], ins[1]))
            else:
                raise ValueError("relational encoding needs arity-two form")
    return facts


# ---------------------------------------------------------------------------
# Semirings


class Semiring:
    def __init__(self, name, zero, one, add, mul, eq=None):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.eq = eq or (lambda a, b: a == b)
        # sum_into(acc, values): acc plus values, made in acc, a value no
        # one else holds (a new zero if acc is None); `nx_semiring` sets
        # it, and `eval_semiring` then sums in place
        self._sum_into = None

    def times_int(self, n, x):
        v = self.zero
        for _ in range(n):
            v = self.add(v, x)
        return v

    def power(self, x, n):
        v = self.one
        for _ in range(n):
            v = self.mul(v, x)
        return v


NAT = Semiring("N", 0, 1, lambda a, b: a + b, lambda a, b: a * b)

POSBOOL = Semiring("posbool", False, True,
                   lambda a, b: a or b, lambda a, b: a and b)


def _trop_add(a, b):  # None is +infinity
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _trop_mul(a, b):
    if a is None or b is None:
        return None
    return a + b

TROPICAL = Semiring("tropical", None, 0, _trop_add, _trop_mul)

SECURITY_ORDER = ("always", "confidential", "secret", "top-secret", "never")
_SEC_IDX = {l: i for i, l in enumerate(SECURITY_ORDER)}

SECURITY = Semiring(
    "security", "never", "always",
    lambda a, b: a if _SEC_IDX[a] <= _SEC_IDX[b] else b,
    lambda a, b: a if _SEC_IDX[a] >= _SEC_IDX[b] else b)

FUZZY = Semiring("fuzzy", Fraction(0), Fraction(1), max, min)


class Polynomial:
    """Canonical N[X] value: monomial (sorted (var, exp) tuple) -> coeff."""

    __slots__ = ("monomials",)

    def __init__(self, monomials=None):
        self.monomials = {m: c for m, c in (monomials or {}).items() if c}

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    @classmethod
    def constant(cls, n):
        return cls({(): n} if n else {})

    def __add__(self, other):
        out = dict(self.monomials)
        for m, c in other.monomials.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.monomials.items():
            for m2, c2 in other.monomials.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and \
            self.monomials == other.monomials

    def __hash__(self):
        return hash(frozenset(self.monomials.items()))

    def __len__(self):
        return len(self.monomials)

    def evaluate(self, semiring, assignment):
        total = semiring.zero
        for m, c in sorted(self.monomials.items()):
            term = semiring.one
            for v, e in m:
                term = semiring.mul(term, semiring.power(assignment[v], e))
            total = semiring.add(total, semiring.times_int(c, term))
        return total

    def __str__(self):
        if not self.monomials:
            return "0"
        parts = []
        for m, c in sorted(self.monomials.items()):
            factors = []
            if c != 1 or not m:
                factors.append(str(c))
            for v, e in m:
                factors.append(str(v) if e == 1 else "%s^%d" % (v, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def nx_semiring(cap=None):
    """N[X] as a semiring over Polynomial values; cap bounds the number
    of monomials produced by any single operation."""

    def checked(p):
        if cap is not None and len(p) > cap:
            raise SizeCap("polynomial exceeded %d monomials" % cap)
        return p

    def sum_into(acc, values):
        acc = Polynomial() if acc is None else acc
        out = acc.monomials
        for p in values:
            for m, c in p.monomials.items():
                out[m] = out.get(m, 0) + c
            checked(acc)
        return acc

    sr = Semiring("nx", Polynomial(), Polynomial.constant(1),
                  lambda a, b: checked(a + b), lambda a, b: checked(a * b))
    sr._sum_into = sum_into
    return sr


BUILTIN_SEMIRINGS = {
    "N": NAT, "posbool": POSBOOL, "tropical": TROPICAL,
    "security": SECURITY, "fuzzy": FUZZY,
}


def expand_polynomial(circuit, cap=100000):
    """Canonical polynomial captured by an N[X] circuit; inputs are the
    variables (named by their gate ids): `eval_semiring` over
    `nx_semiring(cap)`."""
    return eval_semiring(circuit, nx_semiring(cap),
                         {g: Polynomial.variable(g)
                          for g in circuit.inputs()})


# ---------------------------------------------------------------------------
# JSON


def circuit_to_json(circuit):
    order = circuit.topo_order()
    idx = {g: i for i, g in enumerate(order)}
    gates = []
    for g in order:
        t, ins = circuit.gates[g]
        entry = {"type": t, "inputs": [idx[i] for i in ins]}
        if t == "inp":
            entry["name"] = str(g)
        gates.append(entry)
    return {"kind": circuit.kind, "gates": gates,
            "output": idx[circuit.output]}


def _gate_ids(data):
    """The gate id of each entry of a circuit's JSON: an input's name, or
    its index."""
    ids = []
    for i, e in enumerate(json_field(data, "gates", "circuit")):
        kind = json_field(e, "type", "gate %d" % i)
        ids.append(e.get("name", i) if kind == "inp" else i)
    return ids


def _gate_at(ids, j, where):
    """ids[j] for a gate index j read from JSON, or ValueError naming
    where it was read."""
    if type(j) is not int or not 0 <= j < len(ids):
        raise ValueError("%s is %r, not a gate index below %d"
                         % (where, j, len(ids)))
    return ids[j]


# circuit kind -> its gate types
_GATE_TYPES = {"bool": ("inp", "not", "and", "or"),
              "semiring": ("inp", "add", "mul")}


def circuit_from_json(data):
    ids = _gate_ids(data)
    kind = data.get("kind", "bool")
    if not isinstance(kind, str) or kind not in _GATE_TYPES:
        raise ValueError("circuit 'kind' is %r, not bool or semiring"
                         % (kind,))
    gates = {}
    for i, e in enumerate(data["gates"]):
        where = "gate %d" % i
        gtype = e["type"]
        ins = tuple(_gate_at(ids, j, where + " 'inputs'")
                    for j in json_field(e, "inputs", where))
        if gtype not in _GATE_TYPES[kind]:
            raise ValueError("%s 'type' is %r, not a %s gate type"
                             % (where, gtype, kind))
        arity = {"inp": 0, "not": 1}.get(gtype, len(ins))
        if len(ins) != arity:
            raise ValueError("%s of type %r has %d inputs, not %d"
                             % (where, gtype, len(ins), arity))
        gates[ids[i]] = (gtype, ins)
    return Circuit(kind, gates, _gate_at(
        ids, json_field(data, "output", "circuit"), "circuit 'output'"))
