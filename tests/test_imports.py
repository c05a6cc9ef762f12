"""Every module of the package uses each name it imports, and every private name it defines;
every public name has a reader in the package or a recorded reason."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ghilb_kit"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that the module never reads.

    A name listed in the module's __all__ is a re-export and counts as read;
    `from __future__ import ...` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_reexported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from fractions import Fraction as F\n"
        "from typing import Optional\n"
        "__all__ = ['F']\n"
        "def f(x: Optional[int]) -> None:\n"
        "    sys.exit(x)\n"
    )
    assert unused_imports(source) == ["line 2: os"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _read_name(node):
    """The name a Name or Attribute node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions of a package that no code in it refers to.

    sources maps module names to their source.  A private definition is a
    module-level function or class, or a method, whose name has one leading
    underscore.  It is referenced when some Name or Attribute of the package
    reads its name outside the definition itself, so a function that only
    calls itself is unreferenced.
    """
    definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    reads = Counter()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defs = [node for node in tree.body if isinstance(node, definition)]
        defs += [node for cls in defs if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, definition[:2])]
        defined += [(module, node) for node in defs if _is_private(node.name)]
        reads.update(_read_name(node) for node in ast.walk(tree))

    def own_reads(node) -> int:
        return sum(_read_name(sub) == node.name for sub in ast.walk(node))

    return sorted(f"{module}: {node.name}" for module, node in defined
                  if reads[node.name] == own_reads(node))


def test_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_detector_sees_unreferenced_private_names():
    sources = {
        "a": (
            "def _used():\n"
            "    return 1\n"
            "def _dead():\n"
            "    return _used()\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def __dunder__():\n"
            "    pass\n"
            "class _Dead:\n"
            "    def _method(self):\n"
            "        return self._helper()\n"
            "    def _helper(self):\n"
            "        return 0\n"
        ),
        "b": "import a\nx = a._Dead\n",
    }
    assert unreferenced_private_names(sources) == [
        "a: _dead", "a: _method", "a: _recursive",
    ]


TESTS = Path(__file__).resolve().parent


def integrity_messages(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line, constant text) of each `raise IntegrityError(message)` in a module.

    The constant text of a message is its literal pieces, stripped: the whole
    string of a plain literal, the parts between the fields of an f-string.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "IntegrityError" and call.args):
            continue
        message = call.args[0]
        pieces = message.values if isinstance(message, ast.JoinedStr) else [message]
        text = tuple(p.value.strip() for p in pieces
                     if isinstance(p, ast.Constant) and isinstance(p.value, str) and p.value.strip())
        found.append((node.lineno, text))
    return found


def unreached_integrity_messages(sources: dict[str, str], tests: list[str]) -> list[str]:
    """IntegrityError messages whose constant text no single test source contains whole."""
    return sorted(f"{module} line {line}: {' ... '.join(text)}"
                  for module, source in sorted(sources.items())
                  for line, text in integrity_messages(source)
                  if not any(all(piece in test for piece in text) for test in tests))


def test_every_integrity_error_is_reached_by_a_test():
    # an internal check no test provokes may have a wrong message or be dead
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    tests = [path.read_text() for path in TESTS.rglob("*.py")]
    assert unreached_integrity_messages(sources, tests) == []


def test_detector_sees_unreached_integrity_errors():
    sources = {
        "a": (
            "def f(x):\n"
            "    if x:\n"
            "        raise IntegrityError('plain check failed')\n"
            "    raise IntegrityError(f'value {x} is off by {x + 1} units')\n"
            "def g():\n"
            "    raise ValueError('not an internal check')\n"
        ),
    }
    tests = ["match='value 3 is off by'", "err == 'units'"]
    assert unreached_integrity_messages(sources, tests) == [
        "a line 3: plain check failed", "a line 4: value ... is off by ... units",
    ]
    assert unreached_integrity_messages(sources, tests + ["value 3 is off by 4 units"]) == [
        "a line 3: plain check failed",
    ]


def repeated_integrity_messages(sources: dict[str, str]) -> list[str]:
    """IntegrityError messages whose constant text is raised at more than one site."""
    sites: dict[tuple[str, ...], list[str]] = {}
    for module, source in sorted(sources.items()):
        for line, text in integrity_messages(source):
            sites.setdefault(text, []).append(f"{module} line {line}")
    return sorted(f"{' ... '.join(text)}: {', '.join(where)}"
                  for text, where in sites.items() if len(where) > 1)


def test_each_integrity_error_is_raised_at_one_site():
    # one message, one check: a repeated message hides which check failed
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert repeated_integrity_messages(sources) == []


def test_detector_sees_repeated_integrity_errors():
    sources = {
        "a": (
            "def f(x):\n"
            "    if x:\n"
            "        raise IntegrityError('plain check failed')\n"
            "    raise IntegrityError(f'value {x} is off')\n"
        ),
        "b": (
            "def g(y):\n"
            "    if y:\n"
            "        raise IntegrityError(f'value {y + 1} is off')\n"
            "    raise IntegrityError('another check failed')\n"
            "    raise ValueError('plain check failed')\n"
        ),
    }
    assert repeated_integrity_messages(sources) == [
        "value ... is off: a line 4, b line 3",
    ]


def method_references(source: str, class_name: str, names) -> list[str]:
    """'method: name' for each of names that a method of the class reads.

    A read is a Name or an Attribute anywhere in the method's body.  A class
    missing from the source is reported, so that a renamed class does not
    pass unseen.
    """
    classes = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == class_name]
    if not classes:
        return [f"no class {class_name}"]
    return sorted(f"{method.name}: {name}" for cls in classes for method in cls.body
                  if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for name in {_read_name(node) for node in ast.walk(method)} & set(names))


# the solver of the staircase route, which the dense route checks as its oracle
STAIRCASE_ROUTE = ("variable_steps", "tangent_space", "_relative_classes", "_slot_classes",
                   "_indicator_basis", "_StaircaseRelative")


def test_dense_route_shares_nothing_with_the_staircase_route():
    source = (PACKAGE / "tangent.py").read_text()
    assert method_references(source, "_DenseRelative", STAIRCASE_ROUTE) == []


def test_detector_sees_method_references():
    source = (
        "def steps():\n"
        "    return 0\n"
        "class Route:\n"
        "    table = steps\n"
        "    def build(self):\n"
        "        return steps()\n"
        "    @property\n"
        "    def walk(self):\n"
        "        return self.coinv.steps(), self.solve\n"
        "    def clean(self):\n"
        "        return 1\n"
        "class Other:\n"
        "    def build(self):\n"
        "        return steps(), self.solve\n"
    )
    assert method_references(source, "Route", ("steps", "solve", "unused")) == [
        "build: steps", "walk: solve", "walk: steps",
    ]
    assert method_references(source, "Missing", ("steps",)) == ["no class Missing"]


# the class and the function that alone may tell a cluster's presentation
KIND_READERS = ("GCluster", "_admit")


def kind_dispatches(sources: dict[str, str]) -> list[str]:
    """'module: function line n' for each read of an attribute kind and each
    call isinstance(_, GCluster), a tuple of classes included, outside the
    definitions named in KIND_READERS."""
    found = []

    def visit(node, module: str, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in KIND_READERS:
                    visit(child, module, child.name)
                continue
            reads_kind = isinstance(child, ast.Attribute) and child.attr == "kind"
            tests_cluster = (isinstance(child, ast.Call) and _read_name(child.func) == "isinstance"
                             and len(child.args) == 2
                             and any(_read_name(n) == "GCluster" for n in ast.walk(child.args[1])))
            if reads_kind or tests_cluster:
                found.append(f"{module}: {name} line {child.lineno}")
            visit(child, module, name)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(set(found))


def test_only_admit_tells_presentations_apart():
    # cluster._admit maps each input to its kind and payload; an operation
    # branches on the kind it returns, so no payload is read that its kind lacks
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert kind_dispatches(sources) == []


def test_detector_sees_kind_dispatches():
    sources = {
        "a": (
            "class GCluster:\n"
            "    def check(self):\n"
            "        return self.kind\n"
            "def _admit(target):\n"
            "    return isinstance(target, GCluster) and target.kind\n"
            "def op(cluster):\n"
            "    if isinstance(cluster, (GCluster, list)):\n"
            "        return cluster.rows\n"
            "    return cluster\n"
            "def other(x):\n"
            "    def inner(y):\n"
            "        return y.kind == 'orbit'\n"
            "    return isinstance(x, mod.GCluster), isinstance(x, dict)\n"
            "flag = thing.kind\n"
        ),
    }
    assert kind_dispatches(sources) == [
        "a: <module> line 14", "a: inner line 12", "a: op line 7", "a: other line 13",
    ]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(node) -> list[ast.arg]:
    """The parameters of a function or lambda, * and ** ones included."""
    args = node.args
    return args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]


def unread_parameters(source: str) -> list[str]:
    """'function: parameter' for each parameter its function's body never reads.

    Every function and lambda counts, methods and nested functions included;
    self and cls are exempt.  A read is a Name loading the parameter anywhere
    in the body, a nested function's body included.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        params = _parameters(node)
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}: {p.arg}" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter nothing reads is an option that silently does nothing
    assert unread_parameters(path.read_text()) == []


def test_detector_sees_unread_parameters():
    source = (
        "def f(a, b, *args, c=0, **kwargs):\n"
        "    b = a\n"
        "    return kwargs\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        def inner(z):\n"
        "            return x\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return 1\n"
        "key = lambda m, n: m\n"
    )
    assert unread_parameters(source) == [
        "<lambda>: n", "f: args", "f: b", "f: c", "inner: z", "m: y",
    ]


def _instance_attributes(cls: ast.ClassDef) -> list[str]:
    """Names a method of the class assigns as self.name, in first-seen order."""
    names = [node.attr for node in ast.walk(cls)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return list(dict.fromkeys(names))


def rebound_names(tracer: str) -> set[str]:
    """The entries of the SPANNED and COUNTED tables of the benchmark's tracer:
    each a module-level 'name' or a 'Class.member' it rebinds."""
    names = set()
    for node in ast.parse(tracer).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets):
            for entries in ast.literal_eval(node.value).values():
                names.update(entries)
    return names


def _local_stores(node):
    """The names node binds in the function whose body holds it: assignment
    targets and the names of nested definitions, whose bodies are not entered."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif not isinstance(node, ast.Lambda):
        for child in ast.iter_child_nodes(node):
            yield from _local_stores(child)


def unbound_loads(tree: ast.AST) -> set[str]:
    """The names a Name loads where no enclosing function binds them, by a
    parameter or an assignment in its own body: the reads of module names."""
    loads = set()

    def visit(node, bound: frozenset) -> None:
        if isinstance(node, FUNCTIONS):
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = bound.union((p.arg for p in _parameters(node)),
                                (name for stmt in body for name in _local_stores(stmt)))
            # decorators, defaults and annotations are read in the enclosing scope
            for child in ast.iter_child_nodes(node):
                visit(child, inner if child in body else bound)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            loads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return loads


def unread_names(sources: dict[str, str], tracer: str) -> list[str]:
    """'Class.member' for each method, property or instance attribute (set as
    self.name) of a class of the sources that no Attribute reads, and each
    name of an __all__ of the sources that no Attribute reads and no Name
    loads outside a function binding a local of that name (see unbound_loads).

    Dunder methods are exempt, and so are the names the tracer rebinds (see
    rebound_names); an assignment, a definition, an import or an __all__
    entry is not a read.
    """
    attributes, names, members, exported = set(), set(), [], []
    for source in sources.values():
        tree = ast.parse(source)
        names |= unbound_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attributes.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                members += [f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not sub.name.startswith("__")]
                members += [f"{node.name}.{name}" for name in _instance_attributes(node)]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported += ast.literal_eval(node.value)
    exempt = rebound_names(tracer)
    return sorted([m for m in members if m.split(".")[1] not in attributes and m not in exempt] +
                  [n for n in exported if n not in names | attributes and n not in exempt])


# public names with no reader in the library, kept as public API
PUBLIC_WITHOUT_READER = {
    "ActionData.is_sl_action": "the node-budget switch of ROADMAP item 2 needs it",
    "RationalMatrix.apply": "RationalMatrix is public API (ROADMAP, decisions that stand)",
    "RationalMatrix.from_rows": "RationalMatrix is public API (ROADMAP, decisions that stand)",
    "SpecParseError.pos": "the position of a spec error, read by callers of parse_action_spec",
    "StratRep.dimension": "StratRep is public API; the tangent command reads its numbers off slot classes",
    "kernel_basis": "public API (ROADMAP, decisions that stand)",
    "rank": "public API (ROADMAP, decisions that stand)",
    "solve": "public API (ROADMAP, decisions that stand)",
    "monomial_cluster": "a verified cluster constructor the README documents",
    "subspace_cluster": "a verified cluster constructor the README documents",
}


def test_every_public_name_has_a_library_reader():
    # a public name that only tests read is test scaffolding in the library;
    # it moves to tests/oracles.py or goes, unless it is listed above
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    tracer = (PACKAGE.parent.parent / "perfbench" / "tracer.py").read_text()
    assert unread_names(sources, tracer) == sorted(PUBLIC_WITHOUT_READER)


def test_detector_sees_unread_members():
    # a local variable or a parameter of an enclosing function hides no
    # export of its name: 'rank' and 'unused' stay unread; 'kept_fn' is read
    sources = {
        "a": (
            "__all__ = ['Algebra', 'f', 'unused', 'traced_fn', 'rank', 'kept_fn']\n"
            "class Algebra:\n"
            "    def __init__(self):\n"
            "        self.size = 0\n"
            "        self.kept = 0\n"
            "    @property\n"
            "    def dim(self):\n"
            "        return self.size\n"
            "    def steps(self):\n"
            "        return self.dim\n"
            "    def unread(self):\n"
            "        return steps()\n"
            "    def traced(self):\n"
            "        return 1\n"
            "    def counted(self):\n"
            "        return 1\n"
            "    @classmethod\n"
            "    def zero(cls):\n"
            "        return cls()\n"
            "class _Other:\n"
            "    def helper(self):\n"
            "        return 0\n"
            "def unused():\n"
            "    return 0\n"
            "def traced_fn():\n"
            "    return 0\n"
            "def rank(rows):\n"
            "    return len(rows)\n"
            "def kept_fn():\n"
            "    return 0\n"
        ),
        "b": (
            "def f(algebra):\n"
            "    return algebra.steps(), Algebra\n"
            "def g(rows, unused):\n"
            "    rank = len(rows)\n"
            "    def inner():\n"
            "        return rank, unused, kept_fn\n"
            "    return inner\n"
        ),
    }
    # the tracer exempts its table entries only: 'zero' and 'unread' in its
    # prose, a string or a local variable, and 'kept' as a bare entry, do not count
    tracer = (
        '"""Rebinds Algebra.traced; unread is not rebound."""\n'
        "SPANNED = {'a': ('traced_fn', 'Algebra.traced', 'kept')}\n"
        "COUNTED = {'a': {'Algebra.counted': 'calls'}}\n"
        "def _name(args):\n"
        "    zero = args[0]\n"
        "    return 'Algebra.zero' if zero else 'unread'\n"
    )
    assert unread_names(sources, tracer) == [
        "Algebra.kept", "Algebra.unread", "Algebra.zero", "_Other.helper", "f", "rank", "unused",
    ]


def unchecked_reads(sources: dict[str, str]) -> list[str]:
    """'module line N' for each read of an attribute named _unchecked."""
    return sorted(f"{module} line {node.lineno}" for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_unchecked")


# the walks of monomial_algebra and the enumeration of cluster build their
# Monomials and ideals unchecked, and group_rep its character table; every
# other caller goes through the checks
UNCHECKED_BUILDERS = ("monomial_algebra", "cluster", "group_rep")


def test_unchecked_constructors_stay_with_the_walks():
    paths = [p for p in PACKAGE.glob("*.py") if p.stem not in UNCHECKED_BUILDERS]
    paths += Path(__file__).resolve().parent.glob("*.py")
    assert unchecked_reads({path.stem: path.read_text() for path in paths}) == []


def test_detector_sees_unchecked_reads():
    sources = {
        "a": (
            "def f(e):\n"
            "    return Monomial._unchecked(e)\n"
            "build = map(MonomialIdeal._unchecked, [])\n"
        ),
        "b": "def g(e):\n    return Monomial(e), unchecked(e)\n",
    }
    assert unchecked_reads(sources) == ["a line 2", "a line 3"]


def calls_by_function(source: str) -> list[tuple[str, ast.Call]]:
    """(name of the innermost enclosing function, call) for each call of a module.

    A call outside every function is under "<module>"; a lambda belongs to the
    function that holds it.
    """
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                found.append((name, child))
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def conductor_rules(sources: dict[str, str]) -> list[str]:
    """'module: function' for each function that decides a cyclotomic field itself:
    it calls an lcm whose arguments read a .conductor attribute, or from_rational."""
    found = set()
    for module, source in sources.items():
        for name, call in calls_by_function(source):
            func = _read_name(call.func)
            reads_conductor = any(isinstance(node, ast.Attribute) and node.attr == "conductor"
                                  for arg in call.args for node in ast.walk(arg))
            if func == "from_rational" or (func == "lcm" and reads_conductor):
                found.add(f"{module}: {name}")
    return sorted(found)


def test_only_cyclotomic_places_scalars_in_a_field():
    # which Q(zeta_m) holds some scalars, and what each one is there, is decided
    # by common_conductor and embed_to_conductor alone
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py") if path.stem != "cyclotomic"}
    assert conductor_rules(sources) == []


def test_detector_sees_conductor_rules():
    sources = {
        "a": (
            "import math\n"
            "from math import lcm\n"
            "def own(points):\n"
            "    return math.lcm(4, *(c.conductor for p in points for c in p))\n"
            "def loop(values):\n"
            "    m = 1\n"
            "    for v in values:\n"
            "        m = lcm(m, v.conductor)\n"
            "    return m\n"
            "def lift(c, m):\n"
            "    return CyclotomicNumber.from_rational(c, m)\n"
            "def fine(action, values):\n"
            "    return math.lcm(action.group.exponent, common_conductor(values))\n"
            "top = math.lcm(1, x.conductor)\n"
        ),
    }
    assert conductor_rules(sources) == ["a: <module>", "a: lift", "a: loop", "a: own"]


def fraction_conversions(sources: dict[str, str]) -> list[str]:
    """'module: function' for each function that calls Fraction(x) with one
    argument that is not a literal."""
    found = set()
    for module, source in sources.items():
        for name, call in calls_by_function(source):
            if _read_name(call.func) != "Fraction" or len(call.args) != 1 or call.keywords:
                continue
            try:
                ast.literal_eval(call.args[0])
            except ValueError:
                found.add(f"{module}: {name}")
    return sorted(found)


def test_scalars_become_fractions_through_one_check():
    # Fraction(x) reads a float as its binary value and parses a string, so a
    # scalar from outside passes exact_linalg._as_fraction, which rejects both.
    # The parser converts the coefficient text its regex matched.  A cyclotomic
    # number keeps integers and shows them as Fraction(numerator, denominator).
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert fraction_conversions(sources) == [
        "cyclotomic: parse_cyclotomic", "exact_linalg: _as_fraction",
    ]


def test_detector_sees_fraction_conversions():
    sources = {
        "a": (
            "from fractions import Fraction\n"
            "import fractions\n"
            "Q1 = Fraction(1)\n"
            "def rows(rs):\n"
            "    return [[Fraction(e) for e in r] for r in rs]\n"
            "def half(n, d):\n"
            "    return Fraction(n, d), Fraction(-1), Fraction('1/2')\n"
            "def qualified(x):\n"
            "    return fractions.Fraction(x)\n"
            "def nested():\n"
            "    def inner(y):\n"
            "        return Fraction(y + 1)\n"
            "    return inner\n"
        ),
    }
    assert fraction_conversions(sources) == ["a: inner", "a: qualified", "a: rows"]


def module_caches(sources: dict[str, str]) -> list[str]:
    """'module: function(parameters)' for each module-level function that a
    functools cache decorates: lru_cache or cache, called or bare, read off
    functools or imported by name."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(_read_name(d.func if isinstance(d, ast.Call) else d) in ("lru_cache", "cache")
                   for d in node.decorator_list):
                params = ", ".join(p.arg for p in _parameters(node))
                found.append(f"{module}: {node.name}({params})")
    return sorted(found)


def names_imported_from(source: str, module: str) -> list[str]:
    """The names a module's source imports from module; a plain import of it is '*'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += ["*" for alias in node.names if alias.name == module]
    return sorted(found)


def test_caches_are_keyed_by_one_conductor():
    # a process-wide cache keyed by query input grows with every request;
    # the cyclotomic polynomials and their degrees are keyed by one conductor
    # each, and every number reads them.  The hash needs no linear algebra.
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert module_caches(sources) == [
        "cyclotomic: _phi_tail(m)", "cyclotomic: cyclotomic_polynomial(m)", "cyclotomic: euler_phi(m)",
    ]
    assert names_imported_from(sources["cyclotomic"], "ghilb_kit.exact_linalg") == ["_as_fraction"]


def test_detector_sees_caches():
    sources = {
        "a": (
            "import functools\n"
            "from functools import cache, lru_cache, cached_property\n"
            "import ghilb_kit.exact_linalg\n"
            "from ghilb_kit.exact_linalg import solve, rank as r\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def rows(d, m):\n"
            "    return d\n"
            "@lru_cache\n"
            "def bare(m):\n"
            "    return m\n"
            "@cache\n"
            "def plain(*ms):\n"
            "    return ms\n"
            "def fresh(m):\n"
            "    @functools.cache\n"
            "    def inner(k):\n"
            "        return k\n"
            "    return inner(m)\n"
            "class K:\n"
            "    @cached_property\n"
            "    def table(self):\n"
            "        return 0\n"
            "    @functools.lru_cache\n"
            "    def method(self, m):\n"
            "        return m\n"
        ),
    }
    assert module_caches(sources) == ["a: bare(m)", "a: plain(ms)", "a: rows(d, m)"]
    assert names_imported_from(sources["a"], "ghilb_kit.exact_linalg") == ["*", "rank", "solve"]
