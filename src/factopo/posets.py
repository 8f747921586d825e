"""Finite posets given by their up-set masks, checked and drawn, the point
spectra built on them, and the factorisation and cover records."""

from typing import NamedTuple

from .errors import InvalidSpec


class Poset:
    """A finite order on the indices 0..n-1, given by its up-sets: bit j of
    ``up[i]`` is set when i <= j, reflexive pairs included.  One pass checks
    the order laws on the masks and builds the down-sets ``down[i]`` by
    transposing them; every query reads the two lists.  ``budget`` pays one
    step per element and per order pair before the pass."""

    def __init__(self, up, budget):
        self.up = up = list(up)
        n = len(up)
        budget.spend(n + sum(mask.bit_count() for mask in up))
        self.down = down = [0] * n
        for i, mask in enumerate(up):
            if not mask >> i & 1:
                raise InvalidSpec("not reflexive: %d is not below itself" % i)
            for j in _bits(mask):
                if up[j] & ~mask:
                    raise InvalidSpec("not transitive: %d <= %d, but not all "
                                      "above %d are above %d" % (i, j, j, i))
                if j != i and up[j] >> i & 1:
                    raise InvalidSpec("not antisymmetric: %d and %d compare "
                                      "both ways" % (i, j))
                down[j] |= 1 << i

    @property
    def size(self):
        return len(self.up)

    def order_pairs(self):
        """All (i, j) with i <= j, reflexive pairs included, in index order."""
        return [(i, j) for i, mask in enumerate(self.up) for j in _bits(mask)]

    def hasse_edges(self):
        """Covering pairs only, i < j with nothing strictly between, in
        index order: the transitive reduction of the up-set masks."""
        out = []
        for i, mask in enumerate(self.up):
            strict = mask ^ 1 << i
            far = 0
            for z in _bits(strict):
                far |= self.up[z] ^ 1 << z
            out.extend((i, j) for j in _bits(strict & ~far))
        return out

    def __repr__(self):
        return "Poset(%d elements)" % len(self.up)


def _bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def poset_to_dot(P, label=str, name="poset"):
    """Hasse diagram only; edges point from smaller to larger."""
    lines = ["digraph %s {" % name, "  rankdir=BT;"]
    for i in range(P.size):
        text = str(label(i)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (i, text))
    for i, j in P.hasse_edges():
        lines.append("  n%d -> n%d;" % (i, j))
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


class Factorization(NamedTuple):
    """``left`` into ``middle``, then ``right``: every factoriser's result."""
    left: object
    middle: object
    right: object


class CoverResult(NamedTuple):
    topology: str
    covers: bool
    certificate: object
