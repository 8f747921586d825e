"""Finite posets: closure, Hasse diagrams, and the point spectra built on
them."""

from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

from .errors import InvalidSpec


class Poset:
    """A finite poset over hashable labels, built from a generating
    relation: ``pairs`` may be any subrelation whose closure is intended,
    and a cycle through two distinct elements is refused.  Element i keeps
    its up-set and down-set as bitmasks ``up[i]`` and ``down[i]`` (bit j
    of ``up[i]`` is set when i <= j); every query reads them.  ``budget``
    pays one step per element and generating pair before any allocation.
    """

    def __init__(self, elements, pairs, budget):
        budget.spend(len(elements) + len(pairs))
        self.elements = list(elements)
        pos = {x: i for i, x in enumerate(self.elements)}
        if len(pos) != len(self.elements):
            raise InvalidSpec("duplicate poset elements")
        above, below = [[] for _ in pos], [[] for _ in pos]
        for x, y in pairs:
            if x not in pos or y not in pos:
                raise InvalidSpec("relation pair outside the element list")
            if x != y:
                above[pos[x]].append(pos[y])
                below[pos[y]].append(pos[x])
        try:
            # every element after the elements directly above it
            order = list(TopologicalSorter(dict(enumerate(above)))
                         .static_order())
        except CycleError as err:
            i, j = err.args[1][:2]
            raise InvalidSpec("not antisymmetric: %r and %r compare both ways"
                              % (self.elements[i], self.elements[j])) from None
        self._pos = pos
        self.up = _close(order, above)
        self.down = _close(reversed(order), below)

    @property
    def size(self):
        return len(self.elements)

    def le(self, x, y):
        return bool(self.up[self._pos[x]] >> self._pos[y] & 1)

    def order_pairs(self):
        """All (x, y) with x <= y, reflexive pairs included, element order."""
        els = self.elements
        return [(x, els[j]) for x, up in zip(els, self.up) for j in _bits(up)]

    def hasse_edges(self):
        """Covering pairs only, x < y with nothing strictly between, in
        element order: the transitive reduction of the up-set masks."""
        els, up = self.elements, self.up
        out = []
        for i, x in enumerate(els):
            strict = up[i] ^ 1 << i
            far = 0
            for z in _bits(strict):
                far |= up[z] ^ 1 << z
            out.extend((x, els[j]) for j in _bits(strict & ~far))
        return out

    def __repr__(self):
        return "Poset(%d elements)" % len(self.elements)


def _close(order, succ):
    """Purdom's closure: bit i OR'd with the masks of succ[i], built first."""
    masks = [0] * len(succ)
    for i in order:
        mask = 1 << i
        for j in succ[i]:
            mask |= masks[j]
        masks[i] = mask
    return masks


def _bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def poset_to_dot(P, label=str, name="poset"):
    """Hasse diagram only; edges point from smaller to larger."""
    lines = ["digraph %s {" % name, "  rankdir=BT;"]
    for i, x in enumerate(P.elements):
        text = str(label(x)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (i, text))
    for x, y in P.hasse_edges():
        lines.append("  n%d -> n%d;" % (P._pos[x], P._pos[y]))
    lines.append("}")
    return "\n".join(lines)


class Spectrum(NamedTuple):
    """A point poset or lattice over the indices 0..n-1, with its report.

    ``header`` holds the report's leading fields (``base``, and ``topology``,
    ``kind`` or ``mode``), ``rows`` one JSON row per element (the report adds
    its ``id``), ``labels`` one DOT label per element, and ``tables`` any
    further report tables, such as a lattice's meet and join.  The DOT graph
    is drawn only when asked for.
    """

    poset: Poset
    header: dict
    rows: list
    labels: list
    graph: str
    tables: dict

    @property
    def size(self):
        return len(self.rows)

    def as_json(self):
        return {
            **self.header,
            "elements": [{"id": i, **row} for i, row in enumerate(self.rows)],
            "order": [[i, j] for i, j in self.poset.order_pairs()],
            **self.tables,
        }

    def to_dot(self):
        return poset_to_dot(self.poset, label=self.labels.__getitem__,
                            name=self.graph)
