"""Finite posets: closure, Hasse diagrams, (anti)isomorphism search, and
the point spectra built on them."""

from __future__ import annotations

from dataclasses import dataclass, field

from .budget import ensure_budget
from .errors import InvalidSpec


class Poset:
    """A finite poset over hashable labels.

    Built from a generating relation; the constructor takes the
    reflexive-transitive closure and rejects cycles, so ``pairs`` may be any
    subrelation whose closure is intended.
    """

    def __init__(self, elements, pairs=()):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidSpec("duplicate poset elements")
        pos = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for x, y in pairs:
            if x not in pos or y not in pos:
                raise InvalidSpec("relation pair outside the element list")
            rel[pos[x]][pos[y]] = True
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    row, rowk = rel[i], rel[k]
                    for j in range(n):
                        if rowk[j]:
                            row[j] = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i][j] and rel[j][i]:
                    raise InvalidSpec(
                        "not antisymmetric: %r and %r compare both ways"
                        % (self.elements[i], self.elements[j]))
        self._pos = pos
        self._rel = rel

    @property
    def size(self):
        return len(self.elements)

    def le(self, x, y):
        return self._rel[self._pos[x]][self._pos[y]]

    def lt(self, x, y):
        return x != y and self.le(x, y)

    def order_pairs(self):
        """All (x, y) with x <= y, reflexive pairs included, element order."""
        out = []
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                if self._rel[i][j]:
                    out.append((x, y))
        return out

    def hasse_edges(self):
        """Covering pairs only: x < y with nothing strictly between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if not self.lt(x, y):
                    continue
                if any(self.lt(x, z) and self.lt(z, y) for z in self.elements):
                    continue
                out.append((x, y))
        return out

    def downset(self, x):
        return [y for y in self.elements if self.le(y, x)]

    def upset(self, x):
        return [y for y in self.elements if self.le(x, y)]

    def is_antichain(self):
        return all(not self.lt(x, y)
                   for x in self.elements for y in self.elements)

    def meet(self, x, y):
        """Greatest lower bound, or None when the pair has none."""
        lower = [z for z in self.elements if self.le(z, x) and self.le(z, y)]
        best = [z for z in lower if all(self.le(w, z) for w in lower)]
        return best[0] if best else None

    def join(self, x, y):
        upper = [z for z in self.elements if self.le(x, z) and self.le(y, z)]
        best = [z for z in upper if all(self.le(z, w) for w in upper)]
        return best[0] if best else None

    def op(self):
        flipped = Poset.__new__(Poset)
        flipped.elements = list(self.elements)
        flipped._pos = dict(self._pos)
        n = len(self.elements)
        flipped._rel = [[self._rel[j][i] for j in range(n)] for i in range(n)]
        return flipped

    def __repr__(self):
        return "Poset(%d elements)" % len(self.elements)


def order_isomorphism(P, Q, budget=None):
    """A bijection preserving and reflecting order, or None.

    Backtracking over elements sorted by (|downset|, |upset|) signature;
    candidates restricted to matching signatures, so antichains cost little
    despite their n! symmetries.
    """
    budget = ensure_budget(budget)
    if P.size != Q.size:
        return None

    def signature(poset, x):
        return (len(poset.downset(x)), len(poset.upset(x)))

    psig = {x: signature(P, x) for x in P.elements}
    qsig = {y: signature(Q, y) for y in Q.elements}
    if sorted(psig.values()) != sorted(qsig.values()):
        return None
    order = sorted(P.elements, key=lambda x: (psig[x], P.elements.index(x)))

    assigned = {}
    used = set()

    def extend(k):
        if k == len(order):
            return True
        x = order[k]
        for y in Q.elements:
            if y in used or qsig[y] != psig[x]:
                continue
            budget.spend()
            ok = True
            for x0, y0 in assigned.items():
                if P.le(x0, x) != Q.le(y0, y) or P.le(x, x0) != Q.le(y, y0):
                    ok = False
                    break
            if not ok:
                continue
            assigned[x] = y
            used.add(y)
            if extend(k + 1):
                return True
            del assigned[x]
            used.discard(y)
        return False

    return dict(assigned) if extend(0) else None


def anti_isomorphism(P, Q, budget=None):
    """An order-reversing bijection P -> Q, or None."""
    return order_isomorphism(P, Q.op(), budget=budget)


def poset_to_dot(P, label=str, name="poset"):
    """Hasse diagram only; edges point from smaller to larger."""
    lines = ["digraph %s {" % name, "  rankdir=BT;"]
    idx = {x: i for i, x in enumerate(P.elements)}
    for x in P.elements:
        text = str(label(x)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (idx[x], text))
    for x, y in P.hasse_edges():
        lines.append("  n%d -> n%d;" % (idx[x], idx[y]))
    lines.append("}")
    return "\n".join(lines)


@dataclass
class Spectrum:
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
    tables: dict = field(default_factory=dict)

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
