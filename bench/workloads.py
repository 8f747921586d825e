"""Seeded request lists for the four workloads.

Each workload function takes a ``random.Random``, a ``Files`` writer and the
seed, writes the input files it needs, and returns ``Request`` objects whose
checks compare factopo's answers with ``reference``.  The seed picks
families, homs, maps, morphism pairs and corruptions; the package only ever
sees the files.
"""

import itertools
import json
import os
import sys
from math import comb

import reference as ref
from runner import Request

from factopo import catfib, catalogs, cli, fincat, sset
from factopo.errors import FactopoError


class Files:
    """Numbered input files in one temporary directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, stem, obj):
        return self.write_text(stem, json.dumps(obj))

    def write_text(self, stem, text):
        self.count += 1
        path = os.path.join(self.root, "%04d-%s.json" % (self.count, stem))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def command(label, argv, check=None, expect="decide"):
    return Request(label, lambda: (cli.main(argv), None), expect, check)


def library(label, fn, check):
    """A call to a public library function, with the CLI's error contract."""
    def run():
        try:
            return 0, fn()
        except FactopoError as err:
            print("error: %s" % err, file=sys.stderr)
            return 1, None
    return Request(label, run, "decide", check)


def expect_equal(want, what):
    def check(_report, value):
        return None if value == want else "%s %r, want %r" % (what, value,
                                                              want)
    return check


def expect_result(field, want):
    def check(report, _value):
        got = report["result"][field]
        return None if got == want else "%s %r, want %r" % (field, got, want)
    return check


def check_suite(name):
    def check(report, _value):
        res = report["result"]
        if not res["passed"]:
            bad = [c["name"] for c in res["checks"] if not c["ok"]]
            return "suite %s failed %s" % (name, bad[:3])
        if len(res["checks"]) != ref.SUITE_CHECKS[name]:
            return "suite %s ran %d checks, want %d" % (
                name, len(res["checks"]), ref.SUITE_CHECKS[name])
        return None
    return check


def verify(name, seed):
    return command("verify/%s" % name,
                   ["verify", "--suite", name, "--seed", str(seed)],
                   check_suite(name))


# ---------------------------------------------------------------------------
# ring-ladder

LADDER = [
    ("Z/8", [("zmod", 8)]),
    ("F_8", [("gf", 2, 3)]),
    ("(Z/2)^3", [("zmod", 2)] * 3),
    ("Z/2xF_4", [("zmod", 2), ("gf", 2, 2)]),
    ("Z/12", [("zmod", 12)]),
    ("Z/16", [("zmod", 16)]),
    ("F_16", [("gf", 2, 4)]),
    ("(Z/2)^4", [("zmod", 2)] * 4),
    ("Z/4xZ/4", [("zmod", 4)] * 2),
    ("Z/2xZ/8", [("zmod", 2), ("zmod", 8)]),
    ("Z/30", [("zmod", 30)]),
    ("Z/36", [("zmod", 36)]),
    ("F_32", [("gf", 2, 5)]),
    ("Z/60", [("zmod", 60)]),
    ("Z/64", [("zmod", 64)]),
    ("F_64", [("gf", 2, 6)]),
    ("Z/2xZ/32", [("zmod", 2), ("zmod", 32)]),
    ("(Z/4)^3", [("zmod", 4)] * 3),
]

# hom-indexed covers enumerate homs into every field up to this order
NFIN_FIELD_BOUND = 8


class Hom:
    """A hom out of a ladder ring, with what the reference needs.

    ``choose`` picks the target among the ring's quotients: a seeded choice
    for cover families, a fixed one for the factorize requests, whose cost
    grows with the target.
    """

    def __init__(self, model, choose):
        parts = model.parts
        if len(parts) == 1 and parts[0][0] == "zmod":
            n = parts[0][1]
            d = choose([d for d in range(2, n) if n % d == 0] or [n])
            self.target = {"kind": "zmod", "n": d}
            self.body = {"images": {"1": "1"}}
            self.seen = [i for i, loc in enumerate(model.locals)
                         if d % loc[1] == 0]
            self.image = self.target_size = d
        elif len(parts) == 1:
            self.target = model.spec()
            self.body = {"map": list(range(model.size))}
            self.seen = [0]
            self.image = self.target_size = model.size
        else:
            j = choose(range(len(parts)))
            self.target = ref.RingModel([parts[j]]).spec()
            self.body = {"map": [model.components(x)[j]
                                 for x in range(model.size)]}
            self.seen = [i for i, loc in enumerate(model.locals)
                         if loc[0] == j]
            self.image = self.target_size = model.part_sizes[j]
        # inverting what becomes a unit keeps exactly the local factors the
        # hom sees
        self.loc_size = 1
        for i in self.seen:
            self.loc_size *= model.locals[i][2]

    def as_family_member(self):
        return dict(self.body, target=self.target)


def factorize_checks(model, hom):
    def middle(want):
        def check(report, _value):
            got = report["result"]["middle"]["size"]
            return None if got == want else "middle size %d, want %d" % (
                got, want)
        return check

    def triple(report, _value):
        res = report["result"]
        surj = res["surjection"]["map"]
        if len(surj) != model.size or len(set(surj.values())) != hom.image:
            return "surjection leg has image %d, want %d" % (
                len(set(surj.values())), hom.image)
        if len(res["integrally_closed"]["map"]) != hom.target_size:
            return "integrally closed leg is not on the target"
        return None

    return {"loc-cons": middle(hom.loc_size), "surj-mono": middle(hom.image),
            "int-intclo": middle(hom.target_size), "triple": triple}


def spectrum_check(model, topology, lattice):
    def check(report, _value):
        if lattice:
            return ref.lattice_check(model, topology, report)
        return ref.spectrum_check(model, topology, report)
    return check


def classify_check(model):
    want = model.classify()

    def check(report, _value):
        got = {k: report["result"][k] for k in want}
        return None if got == want else "flags %s, want %s" % (got, want)
    return check


def ring_requests(name, model, files, rng):
    """Every ring-ladder request on one ring: 13 of them."""
    base = files.write("ring", model.spec())
    out = [command("classify/%s" % name, ["classify", "--ring", base],
                   classify_check(model))]
    hom = Hom(model, lambda options: options[-1])
    hom_path = files.write("hom", dict(hom.body, source=model.spec(),
                                       target=hom.target))
    for system, check in factorize_checks(model, hom).items():
        out.append(command("factorize-%s/%s" % (system, name),
                           ["factorize", "--system", system,
                            "--hom", hom_path], check))

    # family sizes are fixed so that the seed changes members, not work
    elements = [rng.randrange(model.size) for _ in range(2)]
    ideals = [[rng.randrange(model.size)] for _ in range(2)]
    homs = [Hom(model, rng.choice) for _ in range(2)]
    covers_fin = set().union(*(h.seen for h in homs)) == \
        set(range(model.n_primes))
    families = {
        "zar": ({"elements": elements}, model.zar_covers(elements)),
        "dom": ({"ideals": ideals}, model.dom_covers(ideals)),
        # every hom to a field factors through a residue field, so nfin
        # covers exactly when the fibers do; fin decides the fiber half of
        # the same question and is left out to keep a pass short
        "nfin": ({"homs": [h.as_family_member() for h in homs]}, covers_fin),
    }
    for topology, (family, covers) in families.items():
        path = files.write("family-" + topology, family)
        argv = ["cover", "--topology", topology, "--base", base,
                "--family", path]
        if topology == "nfin":
            argv += ["--field-bound", str(NFIN_FIELD_BOUND)]
        out.append(command("cover-%s/%s" % (topology, name), argv,
                           expect_result("covers", covers)))
    # fin and nfin points share one code path; nfin stands for both
    for topology in ("zar", "dom", "nfin"):
        out.append(command("spectrum-%s/%s" % (topology, name),
                           ["spectrum", "--topology", topology,
                            "--base", base],
                           spectrum_check(model, topology, False)))
    for topology in ("zar", "dom"):
        out.append(command("lattice-%s/%s" % (topology, name),
                           ["spectrum", "--topology", topology, "--lattice",
                            "--base", base],
                           spectrum_check(model, topology, True)))
    return out


def ring_ladder(rng, files, seed):
    out = []
    for name, parts in LADDER:
        out.extend(ring_requests(name, ref.RingModel(parts), files,
                                 rng))
    out.extend(verify(s, seed) for s in ("axioms", "ring-oracles",
                                         "duality"))
    return out


# ---------------------------------------------------------------------------
# simplicial

def sset_spec(kind, n, k=None, dim=None):
    spec = {"kind": kind, "n": n}
    if k is not None:
        spec["k"] = k
    if dim is not None:
        spec["dim"] = dim
    return spec


def label(cell):
    return "".join(map(str, cell))


def face_map(face, dim):
    """The inclusion of a face of Δ[n] as a map file out of Δ[len(face)-1]."""
    m = len(face) - 1
    assignment = {}
    for r in range(1, m + 2):
        for T in itertools.combinations(range(m + 1), r):
            image = tuple(face[t] for t in T)
            assignment.setdefault(str(r - 1), {})[label(T)] = [
                list(range(r)), label(image)]
    return {"source": sset_spec("delta", m, dim=dim),
            "assignment": assignment}


def monotone_map(values, dim):
    """Δ[m] -> Δ[k] induced by a monotone vertex map."""
    m = len(values) - 1
    assignment = {}
    for r in range(1, m + 2):
        for T in itertools.combinations(range(m + 1), r):
            image = [values[t] for t in T]
            support = sorted(set(image))
            sigma = [support.index(v) for v in image]
            assignment.setdefault(str(r - 1), {})[label(T)] = [
                sigma, label(support)]
    return {"source": sset_spec("delta", m, dim=dim),
            "assignment": assignment}


def spectrum_sset_check(facets, n_vertices, mode):
    if mode == "raw":
        want_points, want_pairs = n_vertices, n_vertices
    else:
        want_points, want_pairs = ref.delta_nis_points(facets)

    def check(report, _value):
        res = report["result"]
        got = (len(res["elements"]), len(res["order"]))
        want = (want_points, want_pairs)
        return None if got == want else "points/pairs %s, want %s" % (got,
                                                                      want)
    return check


def self_lift(path):
    def fn():
        X = sset.build_sset(cli.load_json(path))
        return sset.delta_nis_self_lift_decider(X, budget=cli.Budget())
    return fn


def collapse(target_path, map_path):
    def fn():
        X = sset.build_sset(cli.load_json(target_path))
        f = cli.build_smap(cli.load_json(map_path), X)
        fac = sset.deg_ndeg_factorize(f, budget=cli.Budget())
        return [len(fac.middle.labels.get(d, ()))
                for d in range(fac.middle.dim + 1)]
    return fn


def stock_tag(kind, n, k):
    return "%s%d%s" % (kind, n, "" if k is None else "_%d" % k)


def simplicial(rng, files, seed):
    # the work is dominated by building and validating the stock shapes, so
    # each request's shape and size are fixed and the seed picks only horn
    # vertices, cover families and collapse maps
    out = []
    small = [("delta", 3, None), ("boundary", 3, None),
             ("horn", 3, rng.randint(0, 3))]
    spectra = [(shape, mode) for shape in small
               for mode in ("delta-nis", "raw")]
    spectra += [(("delta", 4, None), "delta-nis"),
                (("boundary", 4, None), "delta-nis"),
                (("horn", 4, rng.randint(0, 4)), "delta-nis"),
                (("boundary", 5, None), "delta-nis"),
                (("horn", 6, rng.randint(0, 6)), "delta-nis")]
    for (kind, n, k), mode in spectra:
        tag = stock_tag(kind, n, k)
        path = files.write(tag, sset_spec(kind, n, k))
        out.append(command("spectrum-%s/%s" % (mode, tag),
                           ["spectrum", "--topology", mode, "--object", path],
                           spectrum_sset_check(ref.stock_facets(kind, n, k),
                                               n + 1, mode)))

    for kind, n, k in small:
        tag = stock_tag(kind, n, k)
        path = files.write(tag, sset_spec(kind, n, k))
        facets = ref.stock_facets(kind, n, k)
        cells = sorted(ref.closure(facets))
        # stock shapes keep one dimension of headroom above their top cell
        dim = n + 1 if kind == "delta" else n
        for mode in ("raw", "delta-nis"):
            for size in (1, 2, 3, 4) * 2:
                family = rng.sample(cells, size)
                maps = [face_map(S, dim) for S in family]
                fam_path = files.write("faces", {"maps": maps})
                out.append(command(
                    "cover-%s/%s" % (mode, tag),
                    ["cover", "--topology", mode, "--object", path,
                     "--family", fam_path],
                    expect_result("covers",
                                  ref.face_family_covers(facets, family,
                                                         mode))))
        out.append(library("self-lift/%s" % tag, self_lift(path),
                           expect_equal(kind == "delta", "self-lift")))

    for m, k in [(m, k) for m in (1, 2) for k in (1, 2, 3)] * 7:
        values = sorted(rng.randint(0, k) for _ in range(m + 1))
        dim = max(m, k) + 1
        target = files.write("delta%d" % k, sset_spec("delta", k, dim=dim))
        mp = files.write("collapse", monotone_map(values, dim))
        r = len(set(values))
        want = [comb(r, d + 1) for d in range(dim + 1)]
        out.append(library("deg-ndeg/%d->%d" % (m, k),
                           collapse(target, mp),
                           expect_equal(want, "middle cells per dimension")))
    out.append(verify("ez", seed))
    return out


# ---------------------------------------------------------------------------
# cat-orbit

def load_cat(path):
    return fincat.validate_fincat(cli.load_json(path))


def count_functors(src, tgt):
    def fn():
        C, D = load_cat(src), load_cat(tgt)
        return len(fincat.all_functors(C, D, budget=cli.Budget()))
    return fn


def comprehensive(path):
    def fn():
        raw = cli.load_json(path)
        C = fincat.validate_fincat(raw["source"])
        D = fincat.validate_fincat(raw["target"])
        F = fincat.Functor(C, D, raw["objects"], raw["morphisms"])
        _first, elem, _proj = catfib.comprehensive_factorize(
            F, "right", budget=cli.Budget())
        return len(elem.category.objects)
    return fn


def universe_axioms():
    """The (iso, all) system on the catalogue's category of functors."""
    budget = cli.Budget()
    U = catfib.cat_universe(catalogs.category_catalogue(), budget=budget)
    report = fincat.verify_system(
        lambda m: (U.identities[U.src(m)], U.src(m), m),
        U.is_iso, lambda m: True, U, budget=budget)
    return [len(U.objects), report.ok()]


def functor_file(C, shape, x, terminal):
    if shape == "terminal":
        D = terminal
        objs = {o: "0" for o in C.objects}
        mors = {m: "0<=0" for m in C.morphisms}
    elif shape == "identity":
        D = C
        objs = {o: o for o in C.objects}
        mors = {m: m for m in C.morphisms}
    else:
        D, C = C, terminal
        objs = {"0": x}
        mors = {"0<=0": D.identities[x]}
    return {"source": C.to_file(), "target": D.to_file(), "objects": objs,
            "morphisms": mors}


def cat_orbit(rng, files, seed):
    # categories, functor pairs and spaces are fixed so that every seed does
    # the same amount of work; the seed picks morphism pairs and functors
    tables = ref.catalogue_tables()
    cats = tables + [ref.ei2_table()]
    paths = {C.name: files.write("cat", C.to_file()) for C in cats}
    out = []
    # three seeded morphism pairs per category, as many requests as the
    # comprehensive factorisations get below
    for i in range(3 * len(cats)):
        C = cats[i % len(cats)]
        u, f = rng.choice(list(C.morphisms)), rng.choice(list(C.morphisms))
        out.append(command("orthogonal/%s" % C.name,
                           ["orthogonal", "--category", paths[C.name],
                            "--left", u, "--right", f],
                           expect_result("orthogonal",
                                         ref.is_orthogonal(C, u, f))))
    for C in tables:
        for D in tables:
            out.append(library("all-functors/%s->%s" % (C.name, D.name),
                               count_functors(paths[C.name], paths[D.name]),
                               expect_equal(ref.functor_count(C, D),
                                            "functor count")))
    d2 = files.write("delta2", ref.delta_fragment_table(2).to_file())
    out.append(library("all-functors/Delta<=2", count_functors(d2, d2),
                       expect_equal(ref.DELTA2_ENDOFUNCTORS,
                                    "functor count")))
    terminal = tables[0]
    shapes = ("terminal", "identity", "pick")
    for i in range(24):
        C = cats[i % len(cats)]
        shape = shapes[i // len(cats) % len(shapes)]
        x = rng.choice(C.objects)
        path = files.write("functor", functor_file(C, shape, x, terminal))
        out.append(library("comprehensive-%s/%s" % (shape, C.name),
                           comprehensive(path),
                           expect_equal(ref.comprehensive_middle_objects(
                               C, shape, x), "elements")))
    out.append(library("cat-universe/axioms", universe_axioms,
                       expect_equal([ref.CATEGORY_CATALOGUE_SIZE, True],
                                    "universe size and verdict")))
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 11):
            if q ** n > 1024:
                break
            path = files.write("space", {"q": q, "n": n})
            lines = ref.line_count(q, n)
            out.append(command("lines/F_%d^%d" % (q, n),
                               ["spectrum", "--topology", "lines",
                                "--space", path],
                               expect_points(1 + lines, 2 * lines + 1)))
    out.extend(verify(s, seed) for s in ("catfib", "toposx"))
    return out


def expect_points(points, pairs):
    def check(report, _value):
        res = report["result"]
        got = (len(res["elements"]), len(res["order"]))
        return None if got == (points, pairs) else \
            "points/pairs %s, want %s" % (got, (points, pairs))
    return check


# ---------------------------------------------------------------------------
# reject-mix

# the baseline inputs, unchanged: each must end in exit 1 with one error line
BASELINE_REJECTS = [
    ("sset-nonint-dim-key", "object",
     {"dim": 2, "nondegenerate": {"0": ["v"], "x": []}}),
    ("sset-nonpair-face", "object",
     {"dim": 2, "nondegenerate": {"0": ["v"], "1": [
         {"name": "e", "faces": [[[0], "v"], 7]}]}}),
    ("cat-list-ids", "category",
     {"objects": ["a"], "morphisms": [{"id": ["le", "a", "a"], "src": "a",
                                       "tgt": "a"}],
      "identities": {"a": ["le", "a", "a"]},
      "compose": [[["le", "a", "a"], ["le", "a", "a"], ["le", "a", "a"]]]}),
    ("zmod-100000", "ring", {"kind": "zmod", "n": 100000}),
    ("lines-2^40", "space", {"q": 2, "n": 40}),
]


def baseline_request(files, tag, role, obj):
    path = files.write(tag, obj)
    if role == "object":
        argv = ["spectrum", "--topology", "raw", "--object", path]
    elif role == "category":
        argv = ["orthogonal", "--category", path,
                "--left", '["le","a","a"]', "--right", '["le","a","a"]']
    elif role == "ring":
        argv = ["classify", "--ring", path, "--budget", "1000"]
    else:
        argv = ["spectrum", "--topology", "lines", "--space", path,
                "--budget", "100"]
    return command("baseline/%s" % tag, argv, expect="reject")


def word(rng):
    return "".join(rng.choice("abcdefghij") for _ in range(5))


def corruptions(rng, files):
    """Seeded corruptions of valid files, four of each kind.

    The kind and the base file are fixed, the seed picks what is cut or
    substituted, so the mix of outcomes and their cost is the same for every
    seed.
    """
    out = []
    small = [m for m in (ref.RingModel(p) for _n, p in LADDER)
             if m.size <= 36]
    cats = ref.catalogue_tables()[1:]
    for i in range(4):
        model = small[i * 3 % len(small)]
        spec = model.spec()
        base = files.write("ring", spec)
        text = json.dumps(spec)
        cut = rng.randrange(1, len(text) - 1)
        bad = {
            "truncated-json": ("classify", files.write_text("cut",
                                                            text[:cut])),
            "unknown-kind": ("classify", files.write(
                "kind", dict(spec, kind=word(rng)))),
            "modulus-type": ("classify", files.write(
                "modulus", {"kind": "zmod", "n": word(rng)})),
            "gf-composite": ("classify", files.write(
                "gf", {"kind": "gf", "p": rng.choice((4, 6, 9, 15)),
                       "k": 1})),
        }
        for tag, (cmd, path) in bad.items():
            out.append(command("corrupt/%s" % tag, [cmd, "--ring", path],
                               expect="reject"))
        families = {
            "index-range": {"elements": [model.size + rng.randrange(50)]},
            "element-name": {"elements": [word(rng)]},
            "topology-tag": {"topology": "dom", "elements": [1]},
            "elements-scalar": {"elements": rng.randrange(model.size)},
        }
        for tag, fam in families.items():
            out.append(command("corrupt/%s" % tag,
                               ["cover", "--topology", "zar", "--base", base,
                                "--family", files.write(tag, fam)],
                               expect="reject"))
        n = rng.choice((6, 10, 12, 15))
        d = rng.choice([d for d in (4, 8, 9, 25) if n % d])
        homs = {
            "not-a-hom": {"source": {"kind": "zmod", "n": n},
                          "target": {"kind": "zmod", "n": d},
                          "images": {"1": "1"}},
            "map-length": {"source": spec, "target": spec,
                           "map": list(range(model.size - 1))},
        }
        for tag, hom in homs.items():
            out.append(command("corrupt/%s" % tag,
                               ["factorize", "--system", "surj-mono",
                                "--hom", files.write(tag, hom)],
                               expect="reject"))
        ghost = word(rng)
        ssets = {
            "face-target": {"dim": 2, "nondegenerate": {
                "0": ["v"], "1": [{"name": "e",
                                   "faces": [[[0], "v"], [[0], ghost]]}]}},
            "dim-key": {"dim": 2, "nondegenerate": {"0": ["v"],
                                                    ghost: []}},
        }
        for tag, obj in ssets.items():
            out.append(command("corrupt/%s" % tag,
                               ["spectrum", "--topology", "raw",
                                "--object", files.write(tag, obj)],
                               expect="reject"))
        k = rng.randint(1, 2)
        smap = face_map((0, k), 3)
        smap["assignment"][ghost] = smap["assignment"].pop("0")
        target = files.write("delta2", sset_spec("delta", 2))
        out.append(command("corrupt/map-dim-key",
                           ["cover", "--topology", "raw", "--object", target,
                            "--family", files.write("map",
                                                    {"maps": [smap]})],
                           expect="reject"))
        C = cats[i % len(cats)]
        table = C.to_file()
        composable = [row for row in table["compose"]
                      if row[0] not in C.identities.values()
                      or row[1] not in C.identities.values()]
        table["compose"].remove(rng.choice(composable))
        out.append(command("corrupt/compose-gap",
                           ["orthogonal", "--category",
                            files.write("cat", table),
                            "--left", C.identities[C.objects[0]],
                            "--right", C.identities[C.objects[0]]],
                           expect="reject"))
        path = files.write("cat", C.to_file())
        out.append(command("corrupt/unknown-morphism",
                           ["orthogonal", "--category", path,
                            "--left", ghost, "--right", ghost],
                           expect="reject"))
    return out


# over-budget twins get fewer steps than a table of the ring has cells, so
# any budget that covers table allocation must refuse them
TWIN_BUDGET = 10


def twins(rng, files):
    """Two in-budget/over-budget pairs per ladder ring.

    The request kinds and topologies are fixed per ring, so the seed only
    picks elements and ideals and the mix of outcomes is the same for every
    seed.
    """
    out = []
    for i, (name, parts) in enumerate(LADDER):
        model = ref.RingModel(parts)
        base = files.write("ring", model.spec())
        for pick in (i % 4, (i + 2) % 4):
            if pick == 0:
                argv = ["classify", "--ring", base]
                check = classify_check(model)
            elif pick == 1:
                topology = ("zar", "dom", "fin", "nfin")[i // 4 % 4]
                argv = ["spectrum", "--topology", topology, "--base", base]
                check = spectrum_check(model, topology, False)
            elif pick == 2:
                elements = [rng.randrange(model.size) for _ in range(2)]
                argv = ["cover", "--topology", "zar", "--base", base,
                        "--family",
                        files.write("family", {"elements": elements})]
                check = expect_result("covers", model.zar_covers(elements))
            else:
                ideals = [[rng.randrange(model.size)] for _ in range(2)]
                argv = ["cover", "--topology", "dom", "--base", base,
                        "--family", files.write("family", {"ideals": ideals})]
                check = expect_result("covers", model.dom_covers(ideals))
            tag = "%s/%s" % (argv[0], name)
            out.append(command("twin-in-budget/" + tag, argv, check))
            out.append(command("twin-over-budget/" + tag,
                               argv + ["--budget", str(TWIN_BUDGET)],
                               expect="refuse-budget"))
    return out


def reject_mix(rng, files, seed):
    out = [baseline_request(files, *b) for b in BASELINE_REJECTS]
    out.extend(corruptions(rng, files))
    out.extend(twins(rng, files))
    return out


# requests that are not ok at the seed commit, and how they end there; a
# request that is not ok in any other way makes the run incorrect
SEED_FAILURES = {
    # lattices past the default budget
    "lattice-zar/(Z/2)^4": "budget",
    "lattice-dom/(Z/2)^4": "budget",
    "lattice-zar/Z/2xZ/32": "budget",
    "lattice-zar/(Z/4)^3": "budget",
    # baseline inputs the CLI does not refuse cleanly
    "baseline/sset-nonint-dim-key": "traceback",
    "baseline/sset-nonpair-face": "traceback",
    "baseline/cat-list-ids": "traceback",
    "baseline/zmod-100000": "memory",
    "baseline/lines-2^40": "memory",
    "corrupt/dim-key": "traceback",
    "corrupt/map-dim-key": "traceback",
    "corrupt/elements-scalar": "traceback",
    # over-budget twins that run past their budget and answer
    "twin-over-budget/spectrum/Z/16": "budget",
}
SEED_FAILURES.update(("twin-over-budget/cover/%s" % name, "budget")
                     for name, _parts in LADDER)
SEED_FAILURES.update(("twin-over-budget/classify/%s" % name, "budget")
                     for name in ("Z/8", "(Z/2)^3", "Z/12", "Z/4xZ/4", "Z/30",
                                  "Z/64", "Z/2xZ/32"))

WORKLOADS = {
    "ring-ladder": ring_ladder,
    "simplicial": simplicial,
    "cat-orbit": cat_orbit,
    "reject-mix": reject_mix,
}
