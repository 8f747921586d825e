"""Truncated simplicial sets with the collapse/nondegenerate system.

Every simplex is stored as its Eilenberg-Zilber pair: a monotone surjection
applied to a nondegenerate cell (Gabriel-Zisman, II).  Face and degeneracy
actions are computed from that representation plus the stored faces of
nondegenerate cells, so the pair is unique by construction; the ``ez``
suite checks that the action rebuilds every pair.  So a property closed
under degeneracies is decided on the cells: the collapse factorisation,
the covers and the self-lift read only the cells and their stored faces,
and only the ``ez`` audit and the map search list simplices.
"""

import bisect
import functools
import itertools
import math

from .budget import ensure_budget
from .errors import (FactorizerContractViolation, IdentityViolation,
                     InvalidFamily, InvalidSpec, NotSimplicial,
                     TruncationTooLow)
from .posets import CoverResult, Factorization, Poset, Spectrum
from .reader import SMAP, SSET, read


# ---------------------------------------------------------------------------
# monotone operators between finite ordinals
# (identity_op, coface and codegeneracy are memoised on the sizes asked for,
# and epi_mono_split on each operator it splits, so a process keeps one
# tuple per operator between the ordinals up to the largest dimension it
# has acted in)

def surjective_ops(k, n):
    """Value tuples of the C(k, n) monotone surjections [k] -> [n], in
    lexicographic order: each steps up at n of the positions 1..k, and the
    later the steps, the smaller the tuple."""
    return [tuple(bisect.bisect_right(steps, p) for p in range(k + 1))
            for steps in reversed(list(
                itertools.combinations(range(1, k + 1), n)))]


@functools.cache
def identity_op(n):
    return tuple(range(n + 1))


def is_identity_op(values):
    return values == identity_op(len(values) - 1)


def compose_ops(outer, inner):
    """outer . inner as value tuples; inner feeds positions of outer."""
    return tuple(map(outer.__getitem__, inner))


@functools.cache
def epi_mono_split(values):
    """(delta, tau) injective after surjective with delta . tau = values."""
    image = sorted(set(values))
    pos = {v: i for i, v in enumerate(image)}
    return tuple(image), tuple(pos[v] for v in values)


@functools.cache
def coface(n, i):
    """The injection [n-1] -> [n] missing i."""
    return tuple(j for j in range(n + 1) if j != i)


@functools.cache
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
    of top cells exist.  An operator given as a list is kept as a tuple once
    the stored faces are validated, so a refusal quotes it as given.
    ``_action`` holds the faces of cells that ``act`` has computed, keyed by
    (cell, injection other than the identity).
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
        self.faces_tbl = {key: (tuple(sigma), ref)
                          for key, (sigma, ref) in self.faces_tbl.items()}

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

        X(alpha)(sigma*c) = beta*c for beta = sigma.alpha, and beta splits
        uniquely as an injection delta after a surjection tau, so the answer
        is tau*(X(delta)c).  When delta is the identity that is (tau, c) at
        once; otherwise X(delta)c is read from a table keyed by (c, delta),
        filled on demand at one budget step per entry: a miss pushes delta
        down through the stored face opposite its largest missing vertex,
        which fills the entries of the faces it passes on the way.
        """
        sigma, ref = x
        delta, tau = epi_mono_split(compose_ops(sigma, alpha))
        if len(delta) > ref[0]:
            return (tau, ref)
        hit = self._action.get((ref, delta))
        if hit is None:
            self.budget.spend()
            m, j = ref
            missing = max(i for i in range(m + 1) if i not in delta)
            hit = self._action[ref, delta] = self.act(
                self.faces_tbl[(m, j, missing)],
                tuple(v if v < missing else v - 1 for v in delta))
        return (compose_ops(hit[0], tau), hit[1])

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
        which is how x is stored; raises FactorizerContractViolation unless
        the degeneracies rebuild x.  Run on every n-simplex, as the ``ez``
        suite does, this makes pair -> simplex the identity, which is where
        uniqueness is established."""
        sigma, ref = x
        hit = self.apply_surjection(ref, sigma)
        if hit != x:
            raise FactorizerContractViolation(
                "EZ pair of %r rebuilds %r" % (x, hit))
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


def delta(n, dim=None, budget=None):
    """The standard n-simplex, truncated with one dimension of headroom."""
    return subcomplex_of_delta(n, [range(n + 1)], ensure_budget(budget),
                               dim=dim, name="delta%d" % n)


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


def disjoint_union(X, Y, name=None):
    """X + Y, charging its work to X's budget."""
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
    return FinSSet(max(X.dim, Y.dim), labels, faces,
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
    """A map given on nondegenerate cells and extended along degeneracies;
    an operator given as a list is kept as a tuple once the map is
    validated.  ``check=False`` is for all_simplicial_maps' search results,
    composites and identities, correct by construction; validating them
    moved simplicial ``wall_s`` less than its spread (0.39-0.41 s against
    0.39-0.48 s unforced in five pairs, seed 900, 2-CPU shared host)."""

    def __init__(self, source, target, assignment, name="", check=True):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self.name = name
        if check:
            self.validate()
        self.assignment = {ref: (tuple(rho), w)
                           for ref, (rho, w) in self.assignment.items()}

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
        if other.source is not self.target:
            raise InvalidSpec("%r cannot follow %r" % (other, self))
        ass = {ref: other.apply(self.assignment[ref])
               for ref in self.source.cells()}
        return SimplicialMap(self.source, other.target, ass, check=False)

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


def _face_compatible(Y, X, candidates, budget):
    """Every assignment of Y's cells to simplices of X that commutes with faces.

    Cells are assigned in ``Y.cells()`` order, so the faces of a cell are
    placed before it; each of ``candidates(ref)`` costs one
    budget step.  Assignments are yielded in search order, depth first on
    a stack of one candidate iterator per cell being placed, so no
    recursion limit bounds the number of cells.
    """
    cells = Y.cells()
    if not cells:
        yield {}
        return
    faces = [Y.cell_faces(ref) for ref in cells]
    assignment = {}
    stack = [iter(candidates(cells[0]))]
    while stack:
        k = len(stack) - 1
        for cand in stack[-1]:
            budget.spend()
            if all((compose_ops(assignment[w][0], rho), assignment[w][1])
                   == X.face(cand, i) for i, (rho, w) in enumerate(faces[k])):
                break
        else:
            stack.pop()
            if k:
                del assignment[cells[k - 1]]
            continue
        if k + 1 == len(cells):
            yield {**assignment, cells[k]: cand}
        else:
            assignment[cells[k]] = cand
            stack.append(iter(candidates(cells[k + 1])))


def all_simplicial_maps(Y, X, budget):
    """Every simplicial map Y -> X, by face-constrained backtracking."""
    found = _face_compatible(Y, X, lambda ref: X.simplices(ref[0]), budget)
    return [SimplicialMap(Y, X, ass, check=False) for ass in found]


# ---------------------------------------------------------------------------
# the collapse factorization

def deg_ndeg_factorize(f, budget=None):
    """Collapse the source by the least congruence that f factors through
    with its nondegenerate cells kept nondegenerate.

    A cell c is kept when f(c) is nondegenerate.  A cell c with f(c) =
    sigma*(w), sigma not the identity, must become sigma*(c.delta) in the
    middle for each section delta of sigma, and c.delta is kept, as its
    image w is; so c becomes sigma*(core c) for core c = c.delta_0, its
    first section, and a simplex s*x is read as (rho_x . s, class of
    core x), where a kept x is its own core and rho_x the identity.  The
    classes of kept cells are the congruence closure (Downey, Sethi and
    Tarjan, JACM 27, 1980) of the pairs c.delta_0 ~ c.delta and d_i c ~
    (sigma . d^i)*(c.delta_0), all forced, by a worklist union-find whose
    every join pushes the pairs of the stored faces of the two cells; one
    budget step per pair.  The middle's cells are the classes, each at the
    place of its least member, with its faces, under the least label.  A
    map with no degenerate image is its own right leg.  The legs are built
    with their face checks and checked at the end, one step per cell.
    """
    budget = ensure_budget(budget)
    X, M, left, g = f.source, f.source, identity_smap(f.source), f
    rho = {ref: sigma for ref, (sigma, _w) in f.assignment.items()
           if not is_identity_op(sigma)}
    if rho:
        core, todo = {}, []
        for ref, sigma in rho.items():
            fibers = {}
            for i, v in enumerate(sigma):
                fibers.setdefault(v, []).append(i)
            first, *others = [X.act(X.cell_simplex(ref), delta)
                              for delta in itertools.product(*fibers.values())]
            if f.apply(first) != (identity_op(len(fibers) - 1),
                                  f.assignment[ref][1]):
                raise FactorizerContractViolation(
                    "collapse identified cells with distinct images")
            core[ref] = first[1]
            todo.extend((first, x) for x in others)
            todo.extend((fx, X.act(first, compose_ops(sigma, coface(ref[0], i))))
                        for i, fx in enumerate(X.cell_faces(ref)))
        parent = {}

        def find(ref):
            while ref in parent:
                up = parent[ref]
                parent[ref] = parent.get(up, up)
                ref = up
            return ref

        def read(x):
            s, ref = x
            if ref in rho:
                return compose_ops(rho[ref], s), find(core[ref])
            return s, find(ref)

        while todo:
            x, y = todo.pop()
            budget.spend()
            (s, a), (t, b) = read(x), read(y)
            if s != t or f.assignment[a] != f.assignment[b]:
                raise FactorizerContractViolation(
                    "collapse identified cells with distinct images")
            if a != b:
                parent[max(a, b)] = min(a, b)
                todo.extend(zip(X.cell_faces(a), X.cell_faces(b)))
        # a class's root is its least member, met first in cell order
        names = {}
        for ref in X.cells():
            if ref not in rho:
                names.setdefault(find(ref), []).append(X.cell_label(ref))
        labels, place = {}, {}
        for ref, named in names.items():
            row = labels.setdefault(ref[0], [])
            place[ref] = (ref[0], len(row))
            row.append(min(named))

        def image(x):
            s, ref = read(x)
            return s, place[ref]

        faces = {place[ref] + (i,): image(fx) for ref in names
                 for i, fx in enumerate(X.cell_faces(ref))}
        M = FinSSet(X.dim, labels, faces, name=X.name + "/~", budget=budget)
        left = SimplicialMap(X, M, {ref: image(X.cell_simplex(ref))
                                    for ref in X.cells()})
        g = SimplicialMap(M, f.target,
                          {place[ref]: f.assignment[ref] for ref in names})
    budget.spend(len(f.assignment))
    if not is_nondegenerate_map(g):
        raise FactorizerContractViolation(
            "collapse of %r: right leg is degenerate" % f)
    if left.then(g).assignment != f.assignment:
        raise FactorizerContractViolation(
            "collapse of %r: legs do not compose to it" % f)
    return Factorization(left, M, g)


# ---------------------------------------------------------------------------
# covers, local objects, spectra

def sset_cover_check(X, family, mode, budget=None):
    """raw: jointly surjective on vertices; delta-nis: every simplex lifts.

    A member keeps cells nondegenerate, so by EZ uniqueness in X sigma*w
    lifts iff w is a member's image of a cell.  The verdict is read off the
    cells hit, one budget step per cell of each member and of X: the first
    simplex that does not lift is the least unhit cell, by dimension then
    index.  Otherwise sigma*w lifts for each of the C(n, m) surjections onto
    an m-cell w, for every n up to the truncation d, and the sum over n of
    C(n, m) is C(d + 1, m + 1); the count is charged d + 1 steps, one per
    dimension it sums over, so a huge truncation is refused at once.
    """
    budget = ensure_budget(budget)
    hit = set()
    for gmap in family:
        if gmap.target is not X:
            raise InvalidFamily("family member does not land in %s" % X.name)
        if not is_nondegenerate_map(gmap):
            raise InvalidFamily("family members must keep cells nondegenerate")
        budget.spend(len(gmap.assignment))
        hit.update(w for _s, w in gmap.assignment.values())
    if mode not in ("raw", "delta-nis"):
        raise InvalidSpec("unknown sset cover mode %r" % (mode,))
    cells = [ref for ref in X.cells() if mode == "delta-nis" or ref[0] == 0]
    budget.spend(len(cells))
    missing = next((ref for ref in cells if ref not in hit), None)
    if mode == "raw":
        found = {"vertices": len(cells)} if missing is None else \
            {"uncovered_vertex": X.cell_label(missing)}
    elif missing is None:
        budget.spend(X.dim + 1)
        found = {"simplices_lifted": sum(
            math.comb(X.dim + 1, m + 1) * len(cells_m)
            for m, cells_m in X.labels.items())}
    else:
        found = {"unlifted_simplex": [missing[0], list(identity_op(
            missing[0])), X.cell_label(missing)]}
    return CoverResult(mode, missing is None, found)


def delta_nis_self_lift_decider(X, budget=None):
    """Whether the identity factors through a member of every cover.

    Because covers are closed under refinement by single cells, it is
    enough to look for a section of one classifying map Δ[n] -> X, inside
    its fibers; retracts of a standard simplex are again standard
    simplices.  A section sends cells to cells, so the fibers are read off
    the cells of Δ[n], one budget step each: cell (k, j) is the j-th of the
    vertex tuples ``combinations(range(n + 1), k + 1)``, the order
    ``subcomplex_of_delta`` stores, and goes to X's cell acted on by it.  A
    cell of X in no fiber rules the map out.  One Δ[n] is built for each
    dimension n, on ``budget``.
    """
    budget = ensure_budget(budget)
    deltas = {}
    for n, j in reversed(X.cells()):
        if n not in deltas:
            deltas[n] = delta(n, budget=budget)
        D, x = deltas[n], X.cell_simplex((n, j))
        budget.spend((1 << (n + 1)) - 1)
        fiber = {}
        for k in range(n + 1):
            for i, vertices in enumerate(
                    itertools.combinations(range(n + 1), k + 1)):
                fiber.setdefault(X.act(x, vertices), []).append(
                    D.cell_simplex((k, i)))
        if all(X.cell_simplex(r) in fiber for r in X.cells()):
            sections = _face_compatible(
                X, D, lambda r: fiber[X.cell_simplex(r)], budget)
            if next(sections, None) is not None:
                return True
    return False


def is_standard_simplex(X, budget):
    """X is Δ[n] only for n its top dimension: X must have one n-cell c and
    2^(n+1) - 1 cells, and c, acted on by the 2^(n+1) - 1 vertex tuples (a
    budget step each, charged first), must reach every cell as itself.  The
    classifying map Δ[n] -> X of c is then a bijection on cells keeping them
    nondegenerate: an isomorphism, by Eilenberg-Zilber uniqueness."""
    n = X.top_dim
    tuples = (1 << (n + 1)) - 1
    if n < 0 or len(X.labels[n]) != 1 or len(X.cells()) != tuples:
        return False
    budget.spend(tuples)
    c = X.cell_simplex((n, 0))
    reached = {X.act(c, vertices) for k in range(n + 1)
               for vertices in itertools.combinations(range(n + 1), k + 1)}
    return reached == set(map(X.cell_simplex, X.cells()))


def _cell_spectrum(X, mode, refs, up, budget):
    poset = Poset(up, budget)
    labels = [X.cell_label(r) for r in refs]
    rows = [{"dim": r[0], "cell": label} for r, label in zip(refs, labels)]
    return Spectrum(poset, {"base": X.name, "mode": mode}, rows, labels,
                    "cells", {})


def spec_delta_nis(X, budget=None):
    """Cells ordered by iterated-face containment, one budget step per cell
    and per order pair: the cell w of each stored face lies below its cell,
    as a face s*(w) reaches w through a section of s.  The cofaces of a cell
    come after it in ``X.cells()``, so one pass in reverse order ORs each
    cell's finished up-set into the up-sets of the cells of its faces."""
    budget = ensure_budget(budget)
    refs = X.cells()
    pos = {r: i for i, r in enumerate(refs)}
    up = [1 << i for i in range(len(refs))]
    for i in reversed(range(len(refs))):
        for _s, w in X.cell_faces(refs[i]):
            up[pos[w]] |= up[i]
    return _cell_spectrum(X, "delta-nis", refs, up, budget)


def spec_raw(X, budget=None):
    """Bare vertices, none comparable."""
    refs = [r for r in X.cells() if r[0] == 0]
    return _cell_spectrum(X, "raw", refs, [1 << i for i in range(len(refs))],
                          ensure_budget(budget))
