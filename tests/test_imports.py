"""Every module under src/ and tests/ uses each name it imports, every
module-level constant under src/ is read somewhere, and every top-level
function and class under src/, and every method and property of those
classes, is read from src/ or bench/."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
# constants kept although nothing reads them, each with its reason
UNREAD_CONSTANTS = {}
# top-level functions and classes kept although nothing under src/ or
# bench/ reads them, each with its reason
UNREAD_FUNCTIONS = {
    "main": "cli.main is the arthurcalc console script that pyproject.toml "
            "declares",
}
# methods and properties of classes under src/ kept although nothing
# under src/ or bench/ reads them, each with its reason
UNREAD_MEMBERS = {}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_cached_property_under_src():
    """Derived values are kept by params._Derived alone: on Python 3.11,
    functools.cached_property takes one lock for all instances of a
    class, so a first read on one value would wait for another."""
    modules = sorted(ROOT.glob("src/**/*.py"))
    assert modules
    found = [f"{path.relative_to(ROOT)}:{k}"
             for path in modules
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if "cached_property" in line]
    assert found == []


def test_no_function_cache_under_src():
    """Derived values are kept by params._Derived or weyl._memo, whose
    lifetime is the value's own; a functools.cache or lru_cache would
    keep its keys alive for the life of the process.  The one use is the
    shared command-line parser, which takes no argument."""
    modules = sorted(ROOT.glob("src/**/*.py"))
    assert modules
    allowed, found = [], []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        exempt = {id(d) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and path.name == "cli.py" and node.name == "_shared_parser"
                  for d in node.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "functools":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "functools":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"cache", "lru_cache"}.intersection(names):
                (allowed if id(node) in exempt else found).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == [] and len(allowed) == 1


def test_derived_is_the_only_descriptor_under_src():
    """Keyless derived values are kept by params._Derived alone: no other
    class under src/ defines __get__."""
    modules = sorted(ROOT.glob("src/**/*.py"))
    assert modules
    found = [f"{path.relative_to(ROOT)}:{node.name}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef)
                     and item.name == "__get__" for item in node.body)]
    assert found == ["src/arthurcalc/params.py:_Derived"]


def test_keyed_values_use_the_memo_decorator():
    """Keyed derived values are kept by weyl._memo used as a decorator
    alone, so that no hand-written key or build closure comes back."""
    modules = sorted(ROOT.glob("src/**/*.py"))
    assert modules
    decorated, found = 0, []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        decorators = {id(d) for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      for d in node.decorator_list}
        for node in ast.walk(tree):
            if (node.id if isinstance(node, ast.Name) else
                    getattr(node, "attr", None)) != "_memo":
                continue
            if id(node) in decorators:
                decorated += 1
            else:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == [] and decorated


def test_no_unused_imports():
    modules = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(modules) > 20
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _constants(tree):
    """The UPPER_CASE names a module assigns at its top level."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                yield target.id, node.lineno


def _references(tree):
    """Every name a module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unread_constants():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*ROOT.glob("src/**/*.py"),
                                 *ROOT.glob("tests/**/*.py"),
                                 *ROOT.glob("bench/**/*.py")])}
    read = {name for tree in trees.values() for name in _references(tree)}
    defined = [(f"{path.relative_to(ROOT)}:{line}", name)
               for path, tree in trees.items()
               if path.is_relative_to(ROOT / "src")
               for name, line in _constants(tree)]
    assert len(defined) > 30
    unread = [f"{where}: {name}" for where, name in defined
              if name not in read and name not in UNREAD_CONSTANTS]
    assert unread == []


def test_no_unread_functions():
    """Names are matched as words, so a function counts as read when any
    name, attribute or import under src/ or bench/ spells it, except
    inside its own definition.  Tests do not count: a function only its
    tests read belongs in the tests."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*ROOT.glob("src/**/*.py"),
                                 *ROOT.glob("bench/**/*.py")])}
    reads = Counter(name for tree in trees.values()
                    for name in _references(tree))
    defined = [(f"{path.relative_to(ROOT)}:{node.lineno}", node)
               for path, tree in trees.items()
               if path.is_relative_to(ROOT / "src")
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 200
    unread = [f"{where}: {node.name}" for where, node in defined
              if reads[node.name] == list(_references(node)).count(node.name)
              and node.name not in UNREAD_FUNCTIONS]
    assert unread == []


def _tracer_names():
    """The dotted names in the string constants of bench/tracer.py, other
    than docstrings, split into their parts: the tracer reads members
    that they name."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            yield from re.findall(r"\w+", node.value)


def _attributes(tree):
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)]


def test_no_unread_members():
    """Like test_no_unread_functions for the methods and properties of
    the classes under src/, dunders aside: each must be read as an
    attribute under src/ or bench/, outside its own definition, or be
    named in a string that bench/tracer.py uses."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*ROOT.glob("src/**/*.py"),
                                 *ROOT.glob("bench/**/*.py")])}
    reads = Counter(name for tree in trees.values()
                    for name in _attributes(tree))
    reads.update(_tracer_names())
    defined = [(f"{path.relative_to(ROOT)}:{member.lineno}", cls, member)
               for path, tree in trees.items()
               if path.is_relative_to(ROOT / "src")
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for member in cls.body
               if isinstance(member, ast.FunctionDef)
               and not (member.name.startswith("__")
                        and member.name.endswith("__"))]
    assert len(defined) > 40
    unread = [f"{where}: {cls.name}.{member.name}"
              for where, cls, member in defined
              if reads[member.name] == _attributes(member).count(member.name)
              and f"{cls.name}.{member.name}" not in UNREAD_MEMBERS]
    assert unread == []
