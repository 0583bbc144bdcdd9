"""Every name a module imports is used in that module, every parameter
of a package function is read, the package never sorts by ``repr``, no
package function calls itself, one function builds the tree encoding
of an instance from scratch, one determinises a query's automaton, and
every private module-level function or class is read somewhere in the
package, so a helper that a change leaves without callers goes.

The import scan covers the package modules and the test files;
``__init__.py`` is left out, since its imports are the package's
re-exports.  The ``repr`` of a set lists its members in hash order, so a
``repr``-keyed sort makes the output depend on ``PYTHONHASHSEED``.  A
walk that recurses fails with ``RecursionError`` on an input about
1,000 levels deep, so walks whose depth follows the input use
``trees.fold``, ``postorder``/``preorder`` or a loop.  An instance's
encoding is kept across calls by ``encoding._encoded``, so a function
that chains ``tree_decomposition``, ``normalize_decomposition`` and
``encode`` itself builds, on every call, what that function keeps, and
one that normalizes a decomposition of an instance it decomposed
rebuilds the normalized decomposition that the kept encoding is of.
Likewise ``ucq._det_automaton`` determinises ``compile_bool``'s
automaton once per query, under one state cap, so no other function
takes ``lazy_determinize`` but the two that determinise an automaton
they are given.  An automaton with a projection is given its step on
projected states, and ``automata`` alone builds delta from the two, so
no other ``delta`` projects its states (again, when a provenance
circuit has projected them already)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "treeprov").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_imports():
    source = ("import os.path\nimport sys as system\n"
              "from a import b, c as d\n"
              "def f():\n    from e import g\n    return os.path, d\n")
    assert unused_imports(source) == [(2, "system"), (3, "b"), (5, "g")]


def test_no_unused_imports():
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, "imported but never used: %s" % found


def unused_parameters(source):
    """(line, function, parameter) of each parameter of a def that its
    body, nested functions included, never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.AugAssign)
                 and isinstance(n.target, ast.Name)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg not in read]
    return sorted(out)


def test_scanner_flags_unused_parameters():
    source = ("def f(a, b, *c, d=1, **e):\n    return a\n"
              "def g(x, y):\n    def h():\n        return x\n"
              "    y += 1\n    return h\n")
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "d"), (1, "f", "e")]


def test_package_reads_every_parameter():
    found = {str(path.relative_to(ROOT)): unused for path in PACKAGE
             for unused in [unused_parameters(path.read_text())] if unused}
    assert not found, "parameters never read: %s" % found


def repr_sorts(source):
    """Lines of the sorted(...) and .sort(...) calls keyed by repr."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "sorted"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"):
            if any(kw.arg == "key" and isinstance(kw.value, ast.Name)
                   and kw.value.id == "repr" for kw in node.keywords):
                out.append(node.lineno)
    return sorted(out)


def test_scanner_flags_repr_sorts():
    source = ("a = sorted(s, key=repr)\nb = sorted(s, key=str)\n"
              "s.sort(key=repr)\nc = sorted(s, key=lambda q: repr(q))\n")
    assert repr_sorts(source) == [1, 3]


def test_package_does_not_sort_by_repr():
    found = {str(path.relative_to(ROOT)): lines for path in PACKAGE
             for lines in [repr_sorts(path.read_text())] if lines}
    assert not found, "sorted by repr: %s" % found


def self_recursive(source):
    """(line, function) of each def whose body, nested functions
    included, calls the def's own name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == node.name
                for stmt in node.body for n in ast.walk(stmt)):
            out.append((node.lineno, node.name))
    return sorted(out)


def test_scanner_flags_self_recursion():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g(x):\n    def h(y):\n        return [h(z) for z in y]\n"
              "    return h(x)\n"
              "def k(x):\n    return f(x) + x.k()\n")
    assert self_recursive(source) == [(1, "f"), (4, "h")]


# depth bounded by the query (_state_key) or by the argument (the test
# helpers full_binary and enumerate_shapes), not by the input tree
RECURSION_ALLOWED = {("provcirc.py", "_state_key"),
                     ("trees.py", "full_binary"),
                     ("trees.py", "enumerate_shapes")}


def test_package_walks_do_not_recurse():
    found = sorted((path.name, line, name) for path in PACKAGE
                   for line, name in self_recursive(path.read_text())
                   if (path.name, name) not in RECURSION_ALLOWED)
    assert not found, "self-recursive functions: %s" % found


_DECOMPOSE = {"tree_decomposition", "normalize_decomposition"}
_CHAIN = _DECOMPOSE | {"encode"}


def callers_of_all(source, names):
    """(line, function) of each def whose body, nested functions
    included, calls every one of names, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {n.func.id if isinstance(n.func, ast.Name)
                      else getattr(n.func, "attr", None)
                      for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Call)}
            if names <= called:
                out.append((node.lineno, node.name))
    return sorted(out)


def encoding_chains(source):
    """(line, function) of each def whose body, nested functions
    included, calls all of tree_decomposition, normalize_decomposition
    and encode."""
    return callers_of_all(source, _CHAIN)


def decomposition_chains(source):
    """(line, function) of each def whose body, nested functions
    included, calls both tree_decomposition and normalize_decomposition."""
    return callers_of_all(source, _DECOMPOSE)


def test_scanner_flags_encoding_chains():
    source = ("def f(i, k):\n"
              "    return encode(i, normalize_decomposition(\n"
              "        relational.tree_decomposition(i, k)))\n"
              "def g(i, k):\n    d = tree_decomposition(i, k)\n"
              "    def h():\n        return encode(i, d)\n"
              "    return normalize_decomposition(d), h\n"
              "def m(i, d):\n"
              "    return encode(i, normalize_decomposition(d))\n")
    assert encoding_chains(source) == [(1, "f"), (4, "g")]


# the cache itself, and the CLI command that prints an encoding
ENCODING_CHAINS_ALLOWED = {("encoding.py", "_encoded"),
                           ("cli.py", "cmd_encode")}


def test_only_the_cache_encodes_an_instance():
    found = sorted((path.name, line, name) for path in PACKAGE
                   for line, name in encoding_chains(path.read_text())
                   if (path.name, name) not in ENCODING_CHAINS_ALLOWED)
    assert not found, "encodes an instance outside _encoded: %s" % found


def test_scanner_flags_decomposition_chains():
    source = ("def f(i, k):\n"
              "    return normalize_decomposition(\n"
              "        relational.tree_decomposition(i, k)).bags()\n"
              "def g(i, k):\n    d = tree_decomposition(i, k)\n"
              "    def h():\n        return r.normalize_decomposition(d)\n"
              "    return h\n"
              "def m(i, d):\n"
              "    return tree_decomposition(i), normalize_decomposition(d)\n"
              "def n(i, k):\n    return tree_decomposition(i, k)\n")
    assert decomposition_chains(source) == [(1, "f"), (4, "g"), (9, "m")]


# the cache, and the CLI commands that print a normalized decomposition
# or an encoding
DECOMPOSITION_CHAINS_ALLOWED = {("encoding.py", "_encoded"),
                                ("cli.py", "cmd_encode"),
                                ("cli.py", "cmd_decompose")}


def test_only_the_cache_normalizes_an_instance_decomposition():
    """The encoding that `_encoded` keeps is of the instance's normalized
    decomposition, so a function that needs those bags reads the kept
    encoding's nodes instead of normalizing a decomposition again."""
    found = sorted((path.name, line, name) for path in PACKAGE
                   for line, name in decomposition_chains(path.read_text())
                   if (path.name, name) not in DECOMPOSITION_CHAINS_ALLOWED)
    assert not found, \
        "normalizes an instance decomposition outside _encoded: %s" % found


def determinizers(source):
    """(line, function) of each read of the name lazy_determinize, bare
    or as an attribute, with the innermost def around it (None at module
    level)."""
    out = []
    stack = [(ast.parse(source), None)]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif (isinstance(node, ast.Name) and node.id == "lazy_determinize"
              or isinstance(node, ast.Attribute)
              and node.attr == "lazy_determinize"):
            out.append((node.lineno, where))
        stack.extend((kid, where) for kid in ast.iter_child_nodes(node))
    return sorted(out)


def test_scanner_flags_determinizers():
    source = ("from automata import lazy_determinize\n"
              "def f(a):\n    return lazy_determinize(a)\n"
              "def g(a):\n    def h():\n"
              "        return automata.lazy_determinize(a)\n"
              "    return h\n"
              "step = lazy_determinize\n"
              "def lazy_determinize(a):\n    return a\n")
    assert determinizers(source) == [(3, "f"), (6, "h"), (8, None)]


# the query automaton's one determinisation, and the two that determinise
# an automaton they are given: a user-supplied one, or one over a finite
# label universe
DETERMINIZERS_ALLOWED = {("ucq.py", "_det_automaton"),
                         ("prob.py", "_with_step"),
                         ("automata.py", "determinize")}


def test_one_determinisation_per_query():
    found = sorted((path.name, name) for path in PACKAGE
                   for _line, name in determinizers(path.read_text()))
    assert found == sorted(DETERMINIZERS_ALLOWED), \
        "lazy_determinize taken by %s" % found


def projecting_deltas(source):
    """(line, function) of each def named delta whose body, nested
    functions included, calls project, bare or as an attribute."""
    return [(line, name) for line, name in callers_of_all(source, {"project"})
            if name == "delta"]


def test_scanner_flags_projecting_deltas():
    source = ("def delta(q1, q2, l):\n"
              "    return step(project(q1, l), a.project(q2, l), l)\n"
              "def build(a):\n    def delta(q1, q2, l):\n"
              "        return a.project(q1, l)\n    return delta\n"
              "def step(p1, p2, l):\n    return project(p1, l)\n"
              "def delta(q1, q2, l):\n    return step(q1, q2, l)\n")
    assert projecting_deltas(source) == [(1, "delta"), (4, "delta")]


def test_only_automata_composes_project_with_step():
    """The one delta that projects its states is the one `automata`
    builds from an automaton's project and step."""
    found = [(path.name, name) for path in PACKAGE
             for _line, name in projecting_deltas(path.read_text())]
    assert found == [("automata.py", "delta")], \
        "deltas that project their states: %s" % found


def private_definitions(source):
    """(line, name) of each module-level def or class whose name starts
    with one underscore."""
    return sorted((node.lineno, node.name) for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.startswith("__"))


def names_read(source, skip=None):
    """Names read in source, bare or as an attribute, outside the
    module-level definition named skip."""
    out = set()
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == skip:
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def test_scanner_flags_unreferenced_private_definitions():
    source = ("def _used():\n    return 1\n"
              "def _self(n):\n    return _self(n - 1)\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _used(), m._Kept\n"
              "def __dunder__():\n    pass\n")
    assert private_definitions(source) == [(1, "_used"), (3, "_self"),
                                           (5, "_Kept")]
    assert "_self" not in names_read(source, skip="_self")
    assert {"_used", "_Kept"} <= names_read(source, skip="_self")


def test_every_private_definition_is_referenced():
    """A private helper that nothing in the package reads any more (the
    tests aside) is dead code and goes."""
    sources = {path.name: path.read_text() for path in PACKAGE}
    found = []
    for name, source in sources.items():
        for line, defined in private_definitions(source):
            if not any(defined in names_read(
                    other, skip=defined if other_name == name else None)
                    for other_name, other in sources.items()):
                found.append((name, line, defined))
    assert not found, "private definitions never referenced: %s" % found
