"""Truncated simplicial sets with the collapse/nondegenerate system.

Every simplex is stored as its Eilenberg-Zilber pair: a monotone surjection
applied to a nondegenerate cell (Gabriel-Zisman, II).  Face and degeneracy
actions are computed from that representation plus the stored faces of
nondegenerate cells, so the pair is unique by construction; the ``ez``
suite checks that the action rebuilds every pair.  Pairs are searched for,
and checked unique, only in the quotients built by the factorization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .budget import ensure_budget
from .errors import (IdentityViolation, InvalidFamily, InvalidSpec,
                     NotSimplicial, TruncationTooLow)
from .fincat import CoverResult
from .posets import Poset, Spectrum
from .reader import SMAP, SSET, read


# ---------------------------------------------------------------------------
# monotone operators between finite ordinals

def monotone_ops(k, n):
    """Value tuples of all monotone maps [k] -> [n]."""
    return [tuple(v) for v in
            itertools.combinations_with_replacement(range(n + 1), k + 1)]


def surjective_ops(k, n):
    return [v for v in monotone_ops(k, n) if len(set(v)) == n + 1]


def identity_op(n):
    return tuple(range(n + 1))


def is_identity_op(values):
    return values == tuple(range(len(values)))


def compose_ops(outer, inner):
    """outer . inner as value tuples; inner feeds positions of outer."""
    return tuple(map(outer.__getitem__, inner))


def epi_mono_split(values):
    """(delta, tau) injective after surjective with delta . tau = values."""
    image = sorted(set(values))
    pos = {v: i for i, v in enumerate(image)}
    return tuple(image), tuple(pos[v] for v in values)


def coface(n, i):
    """The injection [n-1] -> [n] missing i."""
    return tuple(j for j in range(n + 1) if j != i)


def codegeneracy(n, j):
    """The surjection [n+1] -> [n] repeating j."""
    return tuple(x if x <= j else x - 1 for x in range(n + 2))


# ---------------------------------------------------------------------------
# the simplicial sets themselves

class FinSSet:
    """A truncated simplicial set presented by nondegenerate cells.

    ``labels[n]`` names the nondegenerate n-cells; ``faces[(n, j, i)]`` is
    the i-th face of cell j in dimension n, itself a simplex: a pair
    (surjection values, (m, cell index)).  The truncation dimension must
    leave one dimension of headroom above the top cell so that degeneracies
    of top cells exist.
    """

    def __init__(self, dim, labels, faces, name="sset", budget=None):
        self.dim = dim
        self.labels = {n: list(v) for n, v in sorted(labels.items()) if v}
        self.faces_tbl = dict(faces)
        self.name = name
        self.budget = ensure_budget(budget)
        self._action = {}
        if dim < 0:
            raise InvalidSpec("negative truncation")
        top = max(self.labels, default=-1)
        if top >= 0 and dim < top + 1:
            raise TruncationTooLow(
                "truncation %d cannot hold degeneracies of %d-cells"
                % (dim, top))
        self.validate()

    @property
    def top_dim(self):
        return max(self.labels, default=-1)

    def cells(self):
        """(dim, index) for every nondegenerate cell, dimension order."""
        return [(n, j) for n in sorted(self.labels)
                for j in range(len(self.labels[n]))]

    def cell_label(self, ref):
        return self.labels[ref[0]][ref[1]]

    def cell_simplex(self, ref):
        return (identity_op(ref[0]), ref)

    def cell_faces(self, ref):
        """The stored faces d_0 .. d_n of a nondegenerate n-cell."""
        n, j = ref
        return [self.faces_tbl[(n, j, i)] for i in range(n + 1)] if n else []

    def simplices(self, n):
        """Every n-simplex, nondegenerate or not, in a fixed order; one
        step per operator value, n + 1 for each of the C(n, m) surjections
        onto each m-cell, is charged before any simplex is listed."""
        self.budget.spend((n + 1) * sum(
            math.comb(n, m) * len(cells)
            for m, cells in self.labels.items() if m <= n))
        out = []
        for m in sorted(self.labels):
            if m > n:
                break
            for sigma in surjective_ops(n, m):
                for j in range(len(self.labels[m])):
                    out.append((sigma, (m, j)))
        return out

    def is_nondeg_simplex(self, x):
        return is_identity_op(x[0])

    # -- the simplicial action --------------------------------------------

    def act(self, x, alpha):
        """X(alpha) applied to x, for monotone alpha into [dim of x].

        X(alpha)(sigma*c) = (sigma.alpha)*c, so the answer depends only on
        the cell c and beta = sigma.alpha.  It is read from a table keyed by
        (c, beta), filled on demand at one budget step per entry: a miss
        splits beta into a surjection after an injection and pushes the
        injection down through the stored face opposite its largest missing
        vertex, which fills the entries of the faces it passes on the way.
        """
        sigma, ref = x
        beta = compose_ops(sigma, alpha)
        hit = self._action.get((ref, beta))
        if hit is None:
            self.budget.spend()
            delta, tau = epi_mono_split(beta)
            m, j = ref
            if is_identity_op(delta) and len(delta) == m + 1:
                rho, w = identity_op(m), ref
            else:
                missing = max(i for i in range(m + 1) if i not in delta)
                rho, w = self.act(self.faces_tbl[(m, j, missing)],
                                  tuple(v if v < missing else v - 1
                                        for v in delta))
            hit = self._action[ref, beta] = (compose_ops(rho, tau), w)
        return hit

    def face(self, x, i):
        n = len(x[0]) - 1
        return self.act(x, coface(n, i))

    def degeneracy(self, x, j):
        n = len(x[0]) - 1
        if n + 1 > self.dim:
            raise TruncationTooLow(
                "degeneracy would leave the truncation range")
        return self.act(x, codegeneracy(n, j))

    def apply_surjection(self, ref, sigma):
        """sigma*(cell) computed through single degeneracy steps."""
        if is_identity_op(sigma):
            return self.cell_simplex(ref)
        dup = min(i for i in range(len(sigma) - 1) if sigma[i] == sigma[i + 1])
        shorter = sigma[:dup] + sigma[dup + 1:]
        return self.degeneracy(self.apply_surjection(ref, shorter), dup)

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check labels, stored faces and d_a d_b = d_{b-1} d_a on each cell.

        Every simplex is a surjection applied to a nondegenerate cell, so
        the face identities on the cells are the only simplicial identities
        the stored data can break (Goerss-Jardine, I.1).
        """
        for n, names in self.labels.items():
            if len(set(names)) != len(names):
                raise InvalidSpec("duplicate cell labels in dimension %d" % n)
            for j in range(len(names)):
                if n == 0:
                    continue
                for i in range(n + 1):
                    fx = self.faces_tbl.get((n, j, i))
                    if fx is None:
                        raise InvalidSpec(
                            "missing face %d of %s" % (i, names[j]))
                    self._check_simplex(fx, n - 1)
        for ref in self.cells():
            n = ref[0]
            if n < 2:
                continue
            faces = self.cell_faces(ref)
            for a, b in itertools.combinations(range(n + 1), 2):
                if self.face(faces[b], a) != self.face(faces[a], b - 1):
                    raise IdentityViolation(
                        "d%d d%d != d%d d%d on %d-cell %s"
                        % (a, b, b - 1, a, n, self.cell_label(ref)))
        return self

    def _elementary_ops(self, n):
        ops = []
        if n >= 1:
            ops.extend(coface(n, i) for i in range(n + 1))
        if n + 1 <= self.dim:
            ops.extend(codegeneracy(n, j) for j in range(n + 1))
        return ops

    def _check_simplex(self, x, n):
        sigma, (m, j) = x
        if len(sigma) != n + 1 or m not in self.labels or \
                not 0 <= j < len(self.labels[m]):
            raise InvalidSpec("malformed simplex %r in dimension %d" % (x, n))
        if sorted(set(sigma)) != list(range(m + 1)):
            raise InvalidSpec("simplex operator %r is not onto [%d]" % (sigma, m))
        if any(a > b for a, b in zip(sigma, sigma[1:])):
            raise InvalidSpec("simplex operator %r is not monotone" % (sigma,))

    # -- decomposition -------------------------------------------------------

    def eilenberg_zilber(self, x):
        """The unique (surjection, nondegenerate cell) presentation of x,
        which is how x is stored; asserts that the degeneracies rebuild x.
        Run on every n-simplex, as the ``ez`` suite does, this makes pair ->
        simplex the identity, which is where uniqueness is established."""
        sigma, ref = x
        hit = self.apply_surjection(ref, sigma)
        assert hit == x, "EZ pair of %r rebuilds %r" % (x, hit)
        return x

    def __repr__(self):
        sizes = ",".join("%d:%d" % (n, len(v)) for n, v in self.labels.items())
        return "FinSSet(%s dim=%d cells{%s})" % (self.name, self.dim, sizes)


# ---------------------------------------------------------------------------
# builders

def subcomplex_of_delta(n, subsets, budget, dim=None, name=None):
    """The union of the faces of Δ[n] spanned by the given vertex subsets.

    ``subsets`` iterates nonempty subsets of {0..n}; the family is closed
    downward automatically.  Cells are labeled by their vertex strings.
    The 2^(n+1) - 1 cells and (n+1)(2^n - 1) stored faces of Δ[n], which
    bound those of any subcomplex, are charged to the budget before the
    subsets are read, so the stock shapes pass them lazily and a huge n is
    refused before anything of size n is built.
    """
    e = budget.cap(n)
    budget.spend((1 << (e + 1)) - 1 + (e + 1) * ((1 << e) - 1))
    closed = set()
    for S in subsets:
        S = tuple(sorted(set(S)))
        if not S:
            raise InvalidSpec("empty vertex subset")
        for r in range(1, len(S) + 1):
            closed.update(itertools.combinations(S, r))
    by_dim = {}
    for S in sorted(closed, key=lambda S: (len(S), S)):
        by_dim.setdefault(len(S) - 1, []).append(S)
    labels = {k: ["".join(map(str, S)) for S in v] for k, v in by_dim.items()}
    index = {S: (len(S) - 1, i)
             for k, v in by_dim.items() for i, S in enumerate(v)}
    faces = {}
    for k, v in by_dim.items():
        if k == 0:
            continue
        for j, S in enumerate(v):
            for i in range(k + 1):
                smaller = S[:i] + S[i + 1:]
                faces[(k, j, i)] = (identity_op(k - 1), index[smaller])
    top = max(by_dim, default=0)
    if dim is None:
        dim = top + 1
    return FinSSet(dim, labels, faces, name=name or "sub-of-delta%d" % n,
                   budget=budget)


def delta(n, dim=None, name=None, budget=None):
    """The standard n-simplex, truncated with one dimension of headroom."""
    return subcomplex_of_delta(n, [range(n + 1)], ensure_budget(budget),
                               dim=dim, name=name or "delta%d" % n)


def boundary(n, dim=None, budget=None):
    """All proper faces of Δ[n]."""
    subs = (coface(n, i) for i in range(n + 1))
    return subcomplex_of_delta(n, subs, ensure_budget(budget), dim=dim,
                               name="boundary%d" % n)


def horn(n, k, dim=None, budget=None):
    """Δ[n] minus the interior and the face opposite vertex k."""
    if not 0 <= k <= n:
        raise InvalidSpec("horn field 'k': %d is not in 0..%d" % (k, n))
    subs = (coface(n, i) for i in range(n + 1) if i != k)
    return subcomplex_of_delta(n, subs, ensure_budget(budget), dim=dim,
                               name="horn%d_%d" % (n, k))


def disjoint_union(X, Y, dim=None, name=None):
    """X + Y, charging its work to X's budget."""
    if dim is None:
        dim = max(X.dim, Y.dim)
    labels = {}
    faces = {}
    offset = {}
    for tag, Z in (("a", X), ("b", Y)):
        for nn in sorted(Z.labels):
            offset[(tag, nn)] = len(labels.get(nn, []))
            labels.setdefault(nn, []).extend(
                "%s.%s" % (tag, s) for s in Z.labels[nn])
    for tag, Z in (("a", X), ("b", Y)):
        for (nn, j, i), (sg, (m, jj)) in Z.faces_tbl.items():
            faces[(nn, j + offset[(tag, nn)], i)] = \
                (sg, (m, jj + offset[(tag, m)]))
    return FinSSet(dim, labels, faces,
                   name=name or "%s+%s" % (X.name, Y.name), budget=X.budget)


def build_sset(spec, budget=None):
    """Construct from the file shape: truncation plus nondegenerate cells.

    {"dim": d, "nondegenerate": {"0": ["v"], "1": [{"name": "e",
    "faces": [[[0], "v"], [[0], "v"]]}], ...}} where each face is an
    operator value list and a nondegenerate cell, by label or index.  The
    stock shapes are also available as {"kind": "delta"|"boundary"|"horn",
    ...}.  The set charges its action table to ``budget``.
    """
    return sset_from_spec(read(spec, SSET), ensure_budget(budget))


def sset_from_spec(spec, budget):
    """The set of a spec that ``read`` has already checked against SSET."""
    if "kind" in spec:
        n, kind, dim = spec["n"], spec["kind"], spec.get("dim")
        if n < 0:
            raise InvalidSpec("sset field 'n': %d is negative" % n)
        if kind == "horn":
            return horn(n, spec["k"], dim=dim, budget=budget)
        return (delta if kind == "delta" else boundary)(n, dim=dim,
                                                        budget=budget)
    rows = sorted((int(key), cells)
                  for key, cells in spec["nondegenerate"].items())
    labels = {n: [c if isinstance(c, str) else c["name"] for c in cells]
              for n, cells in rows}
    faces = {}
    for n, cells in rows:
        for j, cell in enumerate(cells):
            if not n:
                if not isinstance(cell, str) and cell["faces"]:
                    raise InvalidSpec("vertex %r can have no faces"
                                      % cell["name"])
                continue
            if isinstance(cell, str):
                raise InvalidSpec(
                    "cell %r above dimension 0 needs explicit faces" % cell)
            if len(cell["faces"]) != n + 1:
                raise InvalidSpec("cell %r needs a list of %d faces"
                                  % (cell["name"], n + 1))
            for i, (opvals, target) in enumerate(cell["faces"]):
                m = max(opvals) if opvals else 0
                faces[(n, j, i)] = (tuple(opvals),
                                    (m, cell_index(labels, m, target)))
    return FinSSet(spec["dim"], labels, faces, name=spec.get("name", "sset"),
                   budget=budget)


def cell_index(labels, n, ref):
    """The index of an n-cell in ``labels``, given by its label or index."""
    row = labels.get(n, ())
    j = row.index(ref) if ref in row else ref if isinstance(ref, int) else -1
    if not 0 <= j < len(row):
        raise InvalidSpec("no %d-cell %r" % (n, ref))
    return j


# ---------------------------------------------------------------------------
# maps

class SimplicialMap:
    """A map given on nondegenerate cells and extended along degeneracies."""

    def __init__(self, source, target, assignment, name="", check=True):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self.name = name
        if check:
            self.validate()

    def apply(self, x):
        sigma, ref = x
        rho, w = self.assignment[ref]
        return (compose_ops(rho, sigma), w)

    def validate(self):
        for ref in self.source.cells():
            n = ref[0]
            img = self.assignment.get(ref)
            if img is None:
                raise NotSimplicial("no image for cell %r" % (ref,))
            self.target._check_simplex(img, n)
            if n == 0:
                continue
            for i, fx in enumerate(self.source.cell_faces(ref)):
                lhs = self.apply(fx)
                rhs = self.target.face(img, i)
                if lhs != rhs:
                    raise NotSimplicial(
                        "face %d of cell %r does not commute" % (i, ref))
        return self

    def then(self, other):
        assert other.source is self.target
        ass = {ref: other.apply(self.assignment[ref])
               for ref in self.source.cells()}
        return SimplicialMap(self.source, other.target, ass, check=False)

    def image_simplices(self, n):
        return {self.apply(x) for x in self.source.simplices(n)}

    def __repr__(self):
        return "SimplicialMap(%s -> %s)" % (self.source.name, self.target.name)


def build_smap(spec, target):
    """A simplicial map into ``target`` from its nondegenerate-cell table.

    Each entry sends a source cell to [surjection values, target cell];
    degenerate images are allowed, faces are checked on build.  The source
    charges its work to the target's budget.
    """
    return smap_from_spec(read(spec, SMAP), target)


def smap_from_spec(spec, target):
    """The map of a spec that ``read`` has already checked against SMAP."""
    D = sset_from_spec(spec["source"], target.budget)
    assignment = {}
    for dim_key, cells in spec["assignment"].items():
        n = int(dim_key)
        for label, (sigma, cell) in cells.items():
            m = max(sigma) if sigma else 0
            assignment[(n, cell_index(D.labels, n, label))] = \
                (tuple(sigma), (m, cell_index(target.labels, m, cell)))
    return SimplicialMap(D, target, assignment, name=spec.get("name", ""))


def identity_smap(X):
    return SimplicialMap(
        X, X, {ref: X.cell_simplex(ref) for ref in X.cells()}, check=False)


def is_nondegenerate_map(f):
    """Membership in the right class: nondegenerate cells stay nondegenerate."""
    return all(f.target.is_nondeg_simplex(f.assignment[ref])
               for ref in f.source.cells())


def classifying_map(X, x):
    """The map out of a standard simplex that picks out x."""
    sigma, ref = x
    n = len(sigma) - 1
    D = delta(n, dim=X.dim, budget=X.budget)
    ass = {}
    for (k, j) in D.cells():
        vals = tuple(int(c) for c in D.labels[k][j])
        ass[(k, j)] = X.act(x, vals)
    return SimplicialMap(D, X, ass, name="classify-%s" % str(x))


def _face_compatible(Y, X, candidates, budget):
    """Every assignment of Y's cells to simplices of X that commutes with faces.

    Cells are assigned in ``Y.cells()`` order, so the faces of a cell are
    placed before it; each of ``candidates(ref, assignment)`` costs one
    budget step.  Assignments are yielded in search order.
    """
    cells = Y.cells()
    assignment = {}

    def extend(k):
        if k == len(cells):
            yield dict(assignment)
            return
        ref = cells[k]
        faces = Y.cell_faces(ref)
        for cand in candidates(ref, assignment):
            budget.spend()
            if all((compose_ops(assignment[w][0], rho), assignment[w][1])
                   == X.face(cand, i) for i, (rho, w) in enumerate(faces)):
                assignment[ref] = cand
                yield from extend(k + 1)
                del assignment[ref]

    return extend(0)


def all_simplicial_maps(Y, X, budget):
    """Every simplicial map Y -> X, by face-constrained backtracking."""
    found = _face_compatible(Y, X, lambda ref, _ass: X.simplices(ref[0]),
                             budget)
    return [SimplicialMap(Y, X, ass, check=False) for ass in found]


def sset_isomorphic(X, Y, budget):
    """A dimension-wise bijection on cells preserving faces, or None."""
    if sorted(X.labels) != sorted(Y.labels) or \
            any(len(X.labels[n]) != len(Y.labels[n]) for n in X.labels):
        return None

    def unused_cells(ref, assignment):
        taken = set(assignment.values())
        return [x for x in (Y.cell_simplex((ref[0], j))
                            for j in range(len(Y.labels[ref[0]])))
                if x not in taken]

    ass = next(_face_compatible(X, Y, unused_cells, budget), None)
    return None if ass is None else SimplicialMap(X, Y, ass, check=False)


# ---------------------------------------------------------------------------
# the collapse factorization

@dataclass
class SSetFactorization:
    left: SimplicialMap
    middle: FinSSet
    right: SimplicialMap

    def composite(self):
        return self.left.then(self.right)


def deg_ndeg_factorize(f, rng=None, budget=None):
    """Collapse the source until the remaining map keeps cells nondegenerate.

    Each round picks a cell whose image is degenerate, reads off the
    degeneracy operator, and glues the cell along it; the glueing is a
    quotient (the collapse operator is surjective, so no new simplices
    appear) and strictly reduces the nondegenerate cell count, which is the
    termination argument.  ``rng`` varies the processing order; the middle
    must come out the same up to isomorphism either way.
    """
    budget = ensure_budget(budget)
    M = f.source
    left = identity_smap(M)
    g = f
    while True:
        bad = [ref for ref in M.cells()
               if not g.target.is_nondeg_simplex(g.assignment[ref])]
        if not bad:
            break
        ref = bad[rng.randrange(len(bad))] if rng is not None else bad[0]
        sigma, _w = g.assignment[ref]
        n = ref[0]
        pairs = []
        for k in range(M.dim + 1):
            groups = {}
            for alpha in monotone_ops(k, n):
                groups.setdefault(compose_ops(sigma, alpha), []).append(alpha)
            y = M.cell_simplex(ref)
            for alphas in groups.values():
                first = M.act(y, alphas[0])
                for alpha in alphas[1:]:
                    pairs.append((first, M.act(y, alpha)))
        M2, proj = _quotient(M, pairs, budget)
        # the images under g of the cells that each cell of M2 carries
        images = {}
        for r in M.cells():
            images.setdefault(proj.assignment[r], set()).add(g.assignment[r])
        g2ass = {}
        for ref2 in M2.cells():
            found = images.get(M2.cell_simplex(ref2), set())
            assert len(found) == 1, "collapse identified cells with distinct images"
            g2ass[ref2] = found.pop()
        g = SimplicialMap(M2, f.target, g2ass)
        left = left.then(proj)
        M = M2
    assert is_nondegenerate_map(g)
    assert left.then(g).assignment == f.assignment
    return SSetFactorization(left, M, g)


def _quotient(M, pairs, budget):
    """Quotient by the simplicial congruence generated by the pairs.

    The generating set is closed under the simplicial action (callers
    arrange that), so a union-find over raw simplices is the whole
    computation; what remains is re-expressing every class as a surjection
    applied to a nondegenerate class, which is where EZ uniqueness gets
    checked for real.
    """
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in pairs:
        union(a, b)

    # group simplices by class; the congruence must commute with every
    # elementary operator, which is trivial on a class's representative
    classes, members = {}, {}
    for n in range(M.dim + 1):
        row = {}
        for x in M.simplices(n):
            budget.spend()
            c = find(x)
            if c != x:
                for alpha in M._elementary_ops(n):
                    assert find(M.act(x, alpha)) == find(M.act(c, alpha)), \
                        "congruence not stable under the simplicial action"
            row.setdefault(c, []).append(x)
        members.update(row)
        classes[n] = sorted(row)

    # the class of each degeneracy of each class: the classes it hits are
    # the degenerate ones, and it presents them below
    deg = {(c, j): find(M.degeneracy(c, j))
           for n in range(M.dim) for c in classes[n] for j in range(n + 1)}
    deg_hits = set(deg.values())

    labels = {}
    ref_of_class = {}
    for n in range(M.dim + 1):
        row = []
        for c in classes[n]:
            if c in deg_hits:
                continue
            named = sorted(M.cell_label(x[1]) for x in members[c]
                           if M.is_nondeg_simplex(x))
            assert named, "nondegenerate class with no nondegenerate member"
            ref_of_class[c] = (n, len(row))
            row.append(named[0])
        if row:
            labels[n] = row

    # express every class as surjection . nondegenerate-class, uniquely
    simplex_of_class = {c: (identity_op(r[0]), r)
                        for c, r in ref_of_class.items()}
    for n in range(M.dim):
        results = {}
        for c2 in classes[n]:
            rho, w = simplex_of_class[c2]
            for j in range(n + 1):
                c = deg[(c2, j)]
                if c not in ref_of_class:
                    results.setdefault(c, set()).add(
                        (compose_ops(rho, codegeneracy(n, j)), w))
        for c, found in results.items():
            assert len(found) == 1, \
                "EZ presentation of a collapsed class is not unique: %r" % (found,)
            simplex_of_class[c] = found.pop()

    faces = {(n, jj, i): simplex_of_class[find(M.face(c, i))]
             for c, (n, jj) in ref_of_class.items() if n
             for i in range(n + 1)}
    M2 = FinSSet(M.dim, labels, faces, name=M.name + "/~", budget=budget)

    proj_ass = {}
    for ref in M.cells():
        proj_ass[ref] = simplex_of_class[find(M.cell_simplex(ref))]
    proj = SimplicialMap(M, M2, proj_ass)

    for n in range(M.dim + 1):
        assert len(M2.simplices(n)) == len(classes[n]), \
            "quotient representation misses classes in dimension %d" % n
    return M2, proj


# ---------------------------------------------------------------------------
# covers, local objects, spectra

def sset_cover_check(X, family, mode, budget=None):
    """raw: jointly surjective on vertices; delta-nis: every simplex lifts."""
    budget = ensure_budget(budget)
    for gmap in family:
        if gmap.target is not X:
            raise InvalidFamily("family member does not land in %s" % X.name)
        if not is_nondegenerate_map(gmap):
            raise InvalidFamily("family members must keep cells nondegenerate")
    if mode == "raw":
        need = set(X.simplices(0))
        got = set()
        for gmap in family:
            got |= gmap.image_simplices(0)
        missing = sorted(need - got)
        if missing:
            return CoverResult("raw", False,
                               {"uncovered_vertex": X.cell_label(missing[0][1])})
        return CoverResult("raw", True, {"vertices": len(need)})
    if mode == "delta-nis":
        lifted = 0
        for n in range(X.dim + 1):
            images = [gmap.image_simplices(n) for gmap in family]
            for x in X.simplices(n):
                budget.spend()
                if not any(x in im for im in images):
                    return CoverResult("delta-nis", False,
                                       {"unlifted_simplex": [n, list(x[0]),
                                                             X.cell_label(x[1])]})
                lifted += 1
        return CoverResult("delta-nis", True, {"simplices_lifted": lifted})
    raise InvalidSpec("unknown sset cover mode %r" % (mode,))


def delta_nis_self_lift_decider(X, budget=None):
    """Whether the identity factors through a member of every cover.

    Because covers are closed under refinement by single cells, it is
    enough to look for a section of one classifying map, inside its fibers;
    retracts of a standard simplex are again standard simplices.
    """
    budget = ensure_budget(budget)
    for ref in reversed(X.cells()):
        gmap = classifying_map(X, X.cell_simplex(ref))
        fiber = {}
        for n in range(X.dim + 1):
            for z in gmap.source.simplices(n):
                fiber.setdefault(gmap.apply(z), []).append(z)
            if any(x not in fiber for x in X.simplices(n)):
                break
        else:
            sections = _face_compatible(
                X, gmap.source, lambda r, _ass: fiber[X.cell_simplex(r)],
                budget)
            if next(sections, None) is not None:
                return True
    return False


def is_standard_simplex(X, budget):
    for n in range(X.top_dim + 1):
        if sset_isomorphic(X, delta(n, dim=X.dim, budget=budget),
                           budget) is not None:
            return True
    return False


def _cell_spectrum(X, mode, refs, pairs, budget):
    poset = Poset(list(range(len(refs))), pairs, budget)
    labels = [X.cell_label(r) for r in refs]
    rows = [{"dim": r[0], "cell": label} for r, label in zip(refs, labels)]
    return Spectrum(poset, {"base": X.name, "mode": mode}, rows, labels,
                    "cells")


def spec_delta_nis(X, budget=None):
    """Cells ordered by iterated-face containment, one budget step per cell
    and per stored face: the closure of "the cell w of each stored face lies
    below its cell", as a face s*(w) reaches w through a section of s."""
    budget = ensure_budget(budget)
    refs = X.cells()
    pos = {r: i for i, r in enumerate(refs)}
    pairs = [(pos[w], pos[r2]) for r2 in refs for _s, w in X.cell_faces(r2)]
    return _cell_spectrum(X, "delta-nis", refs, pairs, budget)


def spec_raw(X, budget=None):
    """Bare vertices, none comparable."""
    return _cell_spectrum(X, "raw", [r for r in X.cells() if r[0] == 0], [],
                          ensure_budget(budget))
