"""One-budget guard for ``src/factopo``, by an ``ast`` scan.

A request runs on one budget, so work may not land on a budget that
nothing sees.  Two things fail the scan: a function other than an entry
point whose ``budget`` parameter defaults to None, which lets a caller
leave it out and the function make its own; and a ``Budget`` constructed
anywhere but in ``ensure_budget`` and ``cli.dispatch``.  The entry points
are the names ``factopo`` exports (a class by its ``__init__``),
``run_suite``, and ``category_catalogue``, which the benchmark calls with
no budget.  Calls of an entry point that leave out the budget inside the
package are caught at run time instead, by the golden cases, which each
make exactly one budget.
"""

import ast

import factopo
from test_no_dead_code import MODULES, parse

ENTRY_POINTS = set(factopo.__all__) | {"run_suite", "category_catalogue"}
BUDGET_MAKERS = {("budget.py", "ensure_budget"), ("cli.py", "dispatch")}


def scopes(node, name=""):
    """Every node below ``node``, with the dotted name of the innermost
    function, class or lambda that holds it (a def holds itself)."""
    for child in ast.iter_child_nodes(node):
        inner = name
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = name + "." + child.name if name else child.name
        elif isinstance(child, ast.Lambda):
            inner = name + ".<lambda>" if name else "<lambda>"
        yield inner, child
        yield from scopes(child, inner)


def defaults_budget_to_none(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults)) + list(zip(args.kwonlyargs,
                                                args.kw_defaults))
    return any(arg.arg == "budget" and isinstance(value, ast.Constant)
               and value.value is None for arg, value in pairs)


def is_entry_point(name):
    owner, _, method = name.partition(".")
    return owner in ENTRY_POINTS and method in ("", "__init__")


def test_only_entry_points_default_the_budget():
    found = ["%s: %s" % (path.name, name)
             for path in MODULES for name, node in scopes(parse(path))
             if isinstance(node, (ast.FunctionDef, ast.Lambda))
             and defaults_budget_to_none(node) and not is_entry_point(name)]
    assert not found, "budget=None outside the entry points: " + \
        ", ".join(found)


def test_only_ensure_budget_and_dispatch_construct_a_budget():
    found = ["%s: %s" % (path.name, name or "<module>")
             for path in MODULES for name, node in scopes(parse(path))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "Budget" and (path.name, name) not in BUDGET_MAKERS]
    assert not found, "Budget constructed in " + ", ".join(found)
