"""Dead-code guard for ``src/factopo``, by an ``ast`` scan.

Two things fail it: a name a module imports and never uses (``from
__future__ import annotations`` is used where the module has an
annotation), and a function, class or method, ``_``-prefixed or not
(dunders are exempt), that cannot be reached from the roots: ``cli.main``,
each public name of the lazy table ``_LAYERS`` in ``__init__.py``, as
defined in its own layer, which makes it public API, and the module-level
tables (``COMMANDS``, ``SUITES`` and the like).  Past the roots, reaching
is by name: a reached body reaches every top-level definition that carries
a name it reads, and every method that carries the name of an attribute it
reads (``x.name``, not a bare ``name``), and a reached class reaches its
own dunder methods.  A reference from ``tests`` or ``bench`` does not
count, because code that only tests reach belongs in ``tests``; nor does a
reference from a definition that is itself unreachable, nor a definition
elsewhere that only shares a public name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factopo"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used(node, aliases=True):
    """Every identifier that the subtree reads, an attribute ``x.name`` as
    ``.name``, and imports if ``aliases``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add("." + sub.attr)
        elif aliases and isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[0])
    return out


def has_annotation(tree):
    """Whether an assignment, argument or return in the tree is annotated."""
    return any(getattr(node, "annotation", None) is not None or
               getattr(node, "returns", None) is not None
               for node in ast.walk(tree))


def public_names():
    """Each layer of the lazy table in ``__init__.py``, with the public
    names it defines there."""
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["_LAYERS"]:
            return {layer: names.split()
                    for layer, names in ast.literal_eval(node.value).items()}
    raise AssertionError("__init__.py has no _LAYERS table")


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = parse(path)
        used = names_used(tree, aliases=False)
        if has_annotation(tree):
            used.add("annotations")
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append("%s: %s" % (path.name, bound))
    assert not unused, "unused imports: " + ", ".join(unused)


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_public_definition_is_referenced():
    # name -> the definitions carrying it: top-level functions and classes
    # under their name and ``.name``, as a module attribute reads them too,
    # and the non-dunder methods of those classes under ``.name`` only
    defs = {}
    names = ["main"]
    for path in MODULES:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                entry = ("%s: %s" % (path.name, node.name), node)
                defs.setdefault(node.name, []).append(entry)
                defs.setdefault("." + node.name, []).append(entry)
                methods = node.body if isinstance(node, ast.ClassDef) else ()
                for item in methods:
                    if isinstance(item, ast.FunctionDef) and \
                            not dunder(item.name):
                        defs.setdefault("." + item.name, []).append(
                            ("%s: %s.%s" % (path.name, node.name, item.name),
                             item))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names.extend(names_used(node, aliases=False))
    # a public name roots its definition in its own layer only
    todo = [entry for layer, public in public_names().items()
            for name in public for entry in defs.get(name, ())
            if entry[0] == "%s.py: %s" % (layer, name)]
    reached, seen = set(), set()
    while todo or names:
        if names:
            name = names.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(defs.get(name, ()))
            continue
        label, node = todo.pop()
        if label in reached:
            continue
        reached.add(label)
        if not isinstance(node, ast.ClassDef):
            names.extend(names_used(node))
            continue
        # a class reaches its bases, decorators, class-level statements
        # and dunders; its other methods wait until their name is read
        for part in node.bases + node.decorator_list + node.body:
            if not isinstance(part, ast.FunctionDef) or dunder(part.name):
                names.extend(names_used(part))
    dead = {label for name, entries in defs.items()
            if not dunder(name.lstrip(".")) for label, _node in entries} - \
        reached
    assert not dead, "unreachable definitions: " + ", ".join(sorted(dead))
