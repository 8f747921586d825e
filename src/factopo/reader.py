"""Every input file kind, declared once as a table of fields.

A table is a Python literal.  ``int`` and ``str`` are a JSON integer
(never a bool or a float) and a string, and a tuple of tables is any one
of them, picked by the value's JSON type.  ``[t]`` is a list of t and
``[t1, t2, ...]`` a list of exactly those.  ``{str: t}`` is an object of
t, and ``{DIM: t}`` one keyed by dimensions in canonical decimal.
``{"field": t, "other?": t}`` is an object with those fields and no
others, ``?`` marking the optional ones, and ``Kinds`` picks one such
table by an object's ``kind``.

``read`` checks a whole document against its table and refuses the first
value that breaks it, with its field path.  Each builder calls it once at
its top and then reads its fields unguarded: what it checks itself is
meaning, such as names, faces, identities and axioms.  The README's "File
formats" section states these tables in prose.
"""

import json
import re
from itertools import repeat

from .errors import InvalidSpec

_NAMES = {type(None): "null", bool: "a bool", int: "an int", float: "a float",
          str: "a string", list: "a list", dict: "an object"}


class Kinds:
    """Objects told apart by their ``kind``, each read by its own table; an
    object with no ``kind`` is read by ``untagged``, if there is one."""

    def __init__(self, what, untagged=None, **tables):
        self.what, self.untagged, self.tables = what, untagged, tables

    def pick(self, value):
        if "kind" not in value:
            return (self.untagged, None) if self.untagged else \
                (self, "missing field 'kind'")
        kind = value["kind"]
        if type(kind) is str and kind in self.tables:
            return self.tables[kind], None
        return self, "unknown %s kind %r" % (self.what, kind)


def _outer(t):
    """The JSON type of the values ``t`` reads; None for a choice."""
    return t if type(t) is type else dict if type(t) is Kinds else \
        None if type(t) is tuple else type(t)


def _name(t):
    return " or ".join(map(_name, t)) if type(t) is tuple else \
        "a list of %d" % len(t) if type(t) is list and len(t) > 1 else \
        _NAMES[_outer(t)]


def match(value, t):
    """The table that reads ``value`` (``t``, or its choice for the value),
    and what is wrong with the value there, if anything."""
    if type(t) is tuple:
        t = next((u for u in t if type(value) is _outer(u)), t)
    if type(value) is not _outer(t):
        return t, "expected %s, got %s" % (
            _name(t), _NAMES.get(type(value), type(value).__name__))
    if type(t) is Kinds:
        t, problem = t.pick(value)
        if problem:
            return t, problem
    if type(t) is list and len(t) > 1 and len(value) != len(t):
        return t, "expected %s, got %d values" % (_name(t), len(value))
    if type(t) is not dict or next(iter(t)) is str:
        return t, None
    if next(iter(t)) is DIM:
        bad = [k for k in value if not DIM.fullmatch(k)]
        return t, bad and "key %s is not a dimension in canonical " \
                          "decimal" % json.dumps(bad[0])
    for k in t:  # the fields of a record
        if k[-1] != "?" and k not in value:
            return t, "missing field %r" % k
    for k in value:
        if k not in t and k + "?" not in t:
            return t, "unknown field %r" % k
    return t, None


def entries(t, value):
    """(key, entry, its table) for each entry of a list or an object that
    ``t`` reads."""
    if type(t) is list:
        return zip(range(len(value)), value,
                   repeat(t[0]) if len(t) == 1 else t)
    keys = next(iter(t))
    if keys is str or keys is DIM:
        return zip(value, value.values(), repeat(t[keys]))
    return ((k, v, t.get(k) or t[k + "?"]) for k, v in value.items())


def read(doc, table, error=InvalidSpec):
    """Check ``doc`` against ``table`` and return it; the first value that
    breaks the table is refused by ``error`` with its field path."""
    todo = [(doc, table, ())]
    for value, t, path in todo:  # grows as it runs: breadth first
        t, problem = match(value, t)
        if problem:
            raise error(_where(path) + problem)
        for k, v, u in entries(t, value) if type(t) in (list, dict) else ():
            # a scalar of a type its table names needs no visit of its own
            if u is not type(v) and not (type(u) is tuple and type(v) in u):
                todo.append((v, u, path + (k,)))
    return doc


def _where(path):
    text = "".join("[%d]" % k if type(k) is int else
                   "." + k if k.isidentifier() else "[%s]" % json.dumps(k)
                   for k in path)
    return text.lstrip(".") + ": " if path else ""


# a dimension key: no sign, space, underscore or leading zero, below 10^18
DIM = re.compile("0|[1-9][0-9]{0,17}")
REF = (str, int)  # an element or a cell, by its name or its index
ID = (str, int, float)  # a category's object or morphism

RING = Kinds("ring")
RING.tables.update(
    zmod={"kind": str, "n": int},
    gf={"kind": str, "p": int, "k?": int},
    product={"kind": str, "factors": [RING]},
    quotient={"kind": str, "base": RING, "ideal_gens": [REF]},
    table={"kind": str, "elements": [str], "add": [[REF]], "mul": [[REF]],
           "one": REF, "zero?": REF, "generators?": [REF], "name?": str})
_IMAGES = {"images?": {str: REF}, "map?": ({str: REF}, [REF])}
HOM = dict(_IMAGES, source=RING, target=RING)

_PAIR = [[int], REF]  # [operator values, cell]: a face, or a cell's image
_STOCK = {"kind": str, "n": int, "dim?": int}
SSET = Kinds("sset", {"dim": int, "name?": str, "nondegenerate": {
    DIM: [(str, {"name": str, "faces": [_PAIR]})]}},
    delta=_STOCK, boundary=_STOCK, horn=dict(_STOCK, k=int))
SMAP = {"source": SSET, "assignment": {DIM: {str: _PAIR}}, "name?": str}

_HOMS = {"homs": [dict(_IMAGES, target=RING)], "topology?": str}
_MAPS = {"maps": [SMAP], "topology?": str}
FAMILIES = {"zar": {"elements": [REF], "topology?": str},
            "dom": {"ideals": [[REF]], "topology?": str},
            "fin": _HOMS, "nfin": _HOMS, "raw": _MAPS, "delta-nis": _MAPS}

CATEGORY = {"objects": [ID], "morphisms": [{"id": ID, "src": ID, "tgt": ID}],
            "identities": {str: ID}, "compose": [[ID, ID, ID]], "name?": str}
VSPACE = {"q": int, "n": int, "name?": str}
GSET = {"group": {"table": [[int]], "elements?": [str], "name?": str},
        "carrier": [str], "action": [[int]], "name?": str}
