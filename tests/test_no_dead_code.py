"""Dead-code guard for ``src/factopo``, by an ``ast`` scan.

Two things fail it: a name a module imports and never uses (``__future__``
imports and the re-exports of ``__init__.py`` are exempt), and a top-level
function or class, ``_``-prefixed or not (dunders are exempt), that no code
in ``src`` refers to outside its own definition.  A re-export from
``__init__.py`` counts as a reference, because it makes the name public API;
a reference from ``tests`` or ``bench`` does not, because code that only
tests reach belongs in ``tests``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factopo"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used(node, aliases=True):
    """Every identifier that the subtree reads, and imports if ``aliases``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif aliases and isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[0])
    return out


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = names_used(tree, aliases=False)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append("%s: %s" % (path.name, bound))
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_public_definition_is_referenced():
    # which top-level statements, anywhere, mention each name
    holders = {}
    for path in MODULES:
        for node in parse(path).body:
            for name in names_used(node):
                holders.setdefault(name, []).append((path, node))
    dead = []
    for path in MODULES:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not (node.name.startswith("__") and
                         node.name.endswith("__")) and \
                    all(p == path and n.lineno == node.lineno
                        for p, n in holders.get(node.name, ())):
                dead.append("%s: %s" % (path.name, node.name))
    assert not dead, "unreferenced definitions: " + ", ".join(dead)
