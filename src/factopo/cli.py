"""Command line front end.

One command per process: parse input files, run the named operation, print a
JSON report on stdout or write a DOT file to --out.  Output is byte-identical
for identical inputs, config and seed; timing is only attached on request
because it would break that.
"""

import argparse
import json
import sys
import time

from . import finring, ringspec, ringsys, sset, suites, toposx
from .budget import Budget
from .errors import (FactopoError, InvalidFamily, InvalidSpec, ParseError,
                     UsageError)
from .fincat import is_orthogonal, validate_fincat
from .reader import FAMILIES, HOM, SMAP, read

SSET_MODES = ("raw", "delta-nis")


# ---------------------------------------------------------------------------
# file ingestion

def load_json(path):
    """Read one JSON file, rejecting it with line/column on syntax errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError("%s: %s" % (path, err.strerror or err)) from err
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise ParseError("%s:%d:%d: %s"
                         % (path, err.lineno, err.colno, err.msg)) from err
    except (RecursionError, ValueError) as err:
        # nested past the recursion limit, an int past the digit limit, or
        # a key that an object repeats
        raise ParseError("%s: %s" % (path, err)) from err


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("repeated key %r" % key)
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load(path, builder):
    # domain validation errors keep their type but gain the file path
    raw = load_json(path)
    try:
        return builder(raw)
    except FactopoError as err:
        raise err.__class__("%s: %s" % (path, err)) from err


def _hom_between(A, B, raw, what="hom"):
    """A hom A -> B from either generator images or a full value table."""
    if ("images" in raw) == ("map" in raw):
        raise InvalidSpec("%s needs one of \"images\" and \"map\"" % what)
    if "images" in raw:
        images = {A.parse_element(k): B.parse_element(v)
                  for k, v in raw["images"].items()}
        if any(op[0] == "gen" and op[1] not in images
               for _e, op in A.generation_sequence()):
            raise InvalidSpec(
                "%s images must cover the generators of %s" % (what, A.name))
        h = finring.hom_from_images(A, B, images)
        if h is None:
            raise InvalidSpec(
                "%s images extend to no ring hom %s -> %s"
                % (what, A.name, B.name))
        return h
    table = raw["map"]
    if isinstance(table, dict):
        mapping = [None] * A.size
        for k, v in table.items():
            mapping[A.parse_element(k)] = B.parse_element(v)
        if None in mapping:
            raise InvalidSpec("%s map misses an element of %s"
                              % (what, A.name))
    else:
        if len(table) != A.size:
            raise InvalidSpec("%s map must list one image per element of %s"
                              % (what, A.name))
        mapping = [B.parse_element(v) for v in table]
    return finring.RingHom(A, B, tuple(mapping)).validate()


def build_hom(raw, budget):
    read(raw, HOM)
    A = finring.build_ring(raw["source"], budget)
    B = finring.build_ring(raw["target"], budget)
    return _hom_between(A, B, raw)


def _read_family(raw, topology):
    read(raw, FAMILIES[topology])
    if raw.get("topology", topology) != topology:
        raise InvalidFamily("family file is for topology %r, command asked %r"
                            % (raw["topology"], topology))


def build_ring_family(A, raw, topology, budget):
    _read_family(raw, topology)
    if topology == "zar":
        return [A.parse_element(v) for v in raw["elements"]]
    if topology == "dom":
        return [finring.ideal_generated(A, [A.parse_element(g) for g in gens])
                for gens in raw["ideals"]]
    return [_hom_between(A, finring.build_ring(spec["target"], budget), spec,
                         what="family hom") for spec in raw["homs"]]


def build_smap(raw, target):
    """A simplicial map into ``target`` from its nondegenerate-cell table.

    Each entry sends a source cell to [surjection values, target cell];
    degenerate images are allowed, faces are checked on build.  The source
    charges its work to the target's budget.
    """
    read(raw, SMAP)
    D = sset.build_sset(raw["source"], target.budget)
    assignment = {}
    for dim_key, cells in raw["assignment"].items():
        n = int(dim_key)
        for label, (sigma, cell) in cells.items():
            m = max(sigma) if sigma else 0
            assignment[(n, sset.cell_index(D.labels, n, label))] = \
                (tuple(sigma), (m, sset.cell_index(target.labels, m, cell)))
    return sset.SimplicialMap(D, target, assignment,
                              name=raw.get("name", ""))


def build_sset_family(X, raw, mode):
    _read_family(raw, mode)
    return [build_smap(spec, X) for spec in raw["maps"]]


def _morphism_id(text, cat):
    """Morphism ids come in as JSON when they parse, else as bare strings."""
    try:
        value = json.loads(text)
    except (RecursionError, ValueError):  # not JSON, or nested too deeply
        value = text
    if type(value) not in (str, int, float) or value not in cat.morphisms:
        raise InvalidSpec("%s has no morphism %r" % (cat.name, text))
    return value


# ---------------------------------------------------------------------------
# report payloads

def _hom_dict(h):
    return {
        "source": h.source.name,
        "target": h.target.name,
        "map": {h.source.names[x]: h.target.names[h.mapping[x]]
                for x in h.source.elements()},
    }


def _flat_certificate(result):
    d = result.as_dict()
    cert = d["certificate"]
    if isinstance(cert, dict) and len(cert) == 1:
        d["certificate"] = next(iter(cert.values()))
    return d


def _cmd_factorize(args, budget):
    u = _load(args.hom, lambda r: build_hom(r, budget))
    if args.system == "triple":
        t = ringsys.triple_factorize(u, budget=budget)
        return {
            "system": "triple",
            "surjection": _hom_dict(t.surj),
            "mono_integral": _hom_dict(t.monoint),
            "integrally_closed": _hom_dict(t.intclo),
        }
    f = ringsys.factorize(u, args.system, budget=budget)
    return {
        "system": f.system,
        "left": _hom_dict(f.left),
        "middle": {"name": f.middle.name, "size": f.middle.size},
        "right": _hom_dict(f.right),
    }


def _cmd_classify(args, budget):
    A = _load(args.ring, lambda r: finring.build_ring(r, budget))
    return ringsys.classify_ring(A, budget=budget).as_dict()


def _cmd_cover(args, budget):
    if args.topology in ringsys.TOPOLOGIES:
        if not args.base:
            raise UsageError("cover over %s needs --base" % args.topology)
        A = _load(args.base, lambda r: finring.build_ring(r, budget))
        family = _load(args.family, lambda r: build_ring_family(
            A, r, args.topology, budget))
        result = ringsys.cover_check(A, family, args.topology,
                                     field_bound=args.field_bound,
                                     budget=budget)
    else:
        if not args.object:
            raise UsageError("cover over %s needs --object" % args.topology)
        X = _load(args.object, lambda r: sset.build_sset(r, budget))
        family = _load(args.family,
                       lambda r: build_sset_family(X, r, args.topology))
        result = sset.sset_cover_check(X, family, args.topology, budget=budget)
    return _flat_certificate(result)


def _cmd_spectrum(args, budget):
    """The point poset, or with --lattice the open lattice, as a Spectrum."""
    if args.lattice and args.topology not in ("zar", "dom"):
        raise UsageError("--lattice only applies to zar and dom")
    if args.topology in ringsys.TOPOLOGIES:
        if not args.base:
            raise UsageError("spectrum over %s needs --base" % args.topology)
        A = _load(args.base, lambda r: finring.build_ring(r, budget))
        if not args.lattice:
            return ringspec.spec_points(A, args.topology, budget=budget)
        if args.topology == "zar":
            return ringspec.zar_lattice(A, budget=budget)
        return ringspec.dom_lattice(A, budget=budget)
    if args.topology in SSET_MODES:
        if not args.object:
            raise UsageError("spectrum over %s needs --object" % args.topology)
        X = _load(args.object, lambda r: sset.build_sset(r, budget))
        return sset.spec_delta_nis(X, budget) \
            if args.topology == "delta-nis" else sset.spec_raw(X, budget)
    if not args.space:
        raise UsageError("spectrum over lines needs --space")
    V = _load(args.space, lambda r: toposx.build_vspace(r, budget))
    return toposx.simple_points(V)


def _cmd_orthogonal(args, budget):
    cat = _load(args.category, lambda r: validate_fincat(r, budget))
    left = _morphism_id(args.left, cat)
    right = _morphism_id(args.right, cat)
    ok = is_orthogonal(left, right, cat, budget=budget)
    return {"left": args.left, "right": args.right, "orthogonal": ok}


def _cmd_verify(args, budget):
    return suites.run_suite(args.suite, seed=args.seed, budget=budget)


COMMANDS = {
    "factorize": _cmd_factorize,
    "classify": _cmd_classify,
    "cover": _cmd_cover,
    "spectrum": _cmd_spectrum,
    "orthogonal": _cmd_orthogonal,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(sub):
    sub.add_argument("--budget", type=int, default=None,
                     help="elementary step cap (default 10^7)")
    sub.add_argument("--field-bound", type=int, default=16,
                     help="order bound for the field catalogue (default 16)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized suite sampling (default 0)")
    sub.add_argument("--format", choices=("json", "dot"), default="json")
    sub.add_argument("--out", help="output path; required for --format dot, "
                                   "an extra copy of the report otherwise")
    sub.add_argument("--timing", action="store_true",
                     help="attach wall-clock timing to the report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="factopo",
        description="Factorization systems, covers and spectra "
                    "on finite instances.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("factorize", help="factor one ring hom")
    p.add_argument("--system", required=True,
                   choices=ringsys.SYSTEMS + ("triple",))
    p.add_argument("--hom", required=True, help="hom file (JSON)")
    _add_common(p)

    p = subs.add_parser("classify", help="field/local/domain tests for a ring")
    p.add_argument("--ring", required=True, help="ring file (JSON)")
    _add_common(p)

    p = subs.add_parser("cover", help="decide whether a family covers")
    p.add_argument("--topology", required=True,
                   choices=ringsys.TOPOLOGIES + SSET_MODES)
    p.add_argument("--base", help="ring file, for ring topologies")
    p.add_argument("--object", help="simplicial set file, for raw/delta-nis")
    p.add_argument("--family", required=True, help="family file (JSON)")
    _add_common(p)

    p = subs.add_parser("spectrum", help="point poset of one object")
    p.add_argument("--topology", required=True,
                   choices=ringsys.TOPOLOGIES + SSET_MODES + ("lines",))
    p.add_argument("--base", help="ring file, for ring topologies")
    p.add_argument("--object", help="simplicial set file, for raw/delta-nis")
    p.add_argument("--space", help="vector space file, for lines")
    p.add_argument("--lattice", action="store_true",
                   help="full open lattice instead of the point poset "
                        "(zar and dom only)")
    _add_common(p)

    p = subs.add_parser("orthogonal", help="lifting test in a finite category")
    p.add_argument("--category", required=True, help="category file (JSON)")
    p.add_argument("--left", required=True, help="morphism id (JSON or bare)")
    p.add_argument("--right", required=True, help="morphism id (JSON or bare)")
    _add_common(p)

    p = subs.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=suites.SUITES)
    _add_common(p)

    return parser


def dispatch(args):
    if args.budget is not None and args.budget <= 0:
        raise UsageError("--budget must be positive")
    if args.field_bound < 2:
        raise UsageError("--field-bound must be at least 2")
    if args.format == "dot":
        if args.command != "spectrum":
            raise UsageError("--format dot is only available for spectrum")
        if not args.out:
            raise UsageError("--format dot needs --out")
    budget = Budget(args.budget)
    started = time.perf_counter()
    payload = COMMANDS[args.command](args, budget)
    if args.format == "dot":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload.to_dot())
        return None
    if args.command == "spectrum":
        payload = payload.as_json()
    elapsed = time.perf_counter() - started

    report = {
        "command": args.command,
        "config": {"budget": budget.limit, "field_bound": args.field_bound,
                   "seed": args.seed},
        "result": payload,
    }
    if args.timing:
        report["timing"] = {"seconds": round(elapsed, 3)}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = dispatch(args)
    except UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except FactopoError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    if text is not None:
        print(text)
    return 0
