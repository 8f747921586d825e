"""Command line front end.

One command per process: parse input files, run the named operation, print a
JSON report on stdout or write a DOT file to --out.  Output is byte-identical
for identical inputs, config and seed; timing is only attached on request
because it would break that.

The options of every command are declared once, in ``COMMANDS`` and
``COMMON``.  ``parse_argv`` reads a command line in the canonical form, the
command and then exact ``--option value`` pairs and bare switches, straight
from that table.  Any other command line goes to the argparse parser that
``build_parser`` makes from the same table, so help screens and usage errors
keep argparse's words.  Building that parser costs far more than a request
that needs no help, so it is built only when it is used.
"""

import argparse
import json
import sys
import time
from itertools import repeat
from typing import Callable, NamedTuple

from . import finring, ringspec, ringsys, sset, suites, toposx
from .budget import Budget
from .errors import (FactopoError, InvalidFamily, InvalidSpec, OutputError,
                     ParseError, UsageError)
from .fincat import is_orthogonal, validate_fincat
from .reader import FAMILIES, HOM, read

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
    except UnicodeDecodeError as err:
        raise ParseError("%s: %s" % (path, err)) from err
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
    A = finring.ring_from_spec(raw["source"], budget)
    B = finring.ring_from_spec(raw["target"], budget)
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
    return [_hom_between(A, finring.ring_from_spec(spec["target"], budget),
                         spec, what="family hom") for spec in raw["homs"]]


# the map builder lives in sset; bench/ calls it by this name too
build_smap = sset.build_smap


def build_sset_family(X, raw, mode):
    _read_family(raw, mode)
    return [sset.smap_from_spec(spec, X) for spec in raw["maps"]]


def _morphism_id(text, cat, path):
    """Morphism ids come in as JSON when they parse, else as bare strings."""
    try:
        value = json.loads(text)
    except (RecursionError, ValueError):  # not JSON, or nested too deeply
        value = text
    if type(value) not in (str, int, float) or value not in cat.morphisms:
        raise InvalidSpec("%s: %s has no morphism %r"
                          % (path, cat.name or "category", text))
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
    d = result._asdict()
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
            "surjection": _hom_dict(t.left),
            "mono_integral": _hom_dict(t.right.left),
            "integrally_closed": _hom_dict(t.right.right),
        }
    f = ringsys.factorize(u, args.system, budget=budget)
    return {
        "system": args.system,
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
    left = _morphism_id(args.left, cat, args.category)
    right = _morphism_id(args.right, cat, args.category)
    ok = is_orthogonal(left, right, cat, budget=budget)
    return {"left": args.left, "right": args.right, "orthogonal": ok}


def _cmd_verify(args, budget):
    return suites.run_suite(args.suite, seed=args.seed, budget=budget)


# ---------------------------------------------------------------------------
# the command line, declared once: build_parser gives it to argparse, and
# parse_argv reads its canonical form without argparse

class Option(NamedTuple):
    """One option of a command; ``kind`` is int, str or bool, a switch."""
    flag: str
    kind: type = str
    required: bool = False
    choices: tuple = None
    help: str = None
    default: object = None


class Command(NamedTuple):
    run: Callable
    help: str
    options: tuple  # its own; COMMON follows them


COMMON = (
    Option("--budget", int, help="elementary step cap (default 10^7)"),
    Option("--field-bound", int, default=16,
           help="order bound for the field catalogue (default 16)"),
    Option("--seed", int, default=0,
           help="seed for randomized suite sampling (default 0)"),
    Option("--format", choices=("json", "dot"), default="json"),
    Option("--out", help="output path; required for --format dot, "
                         "an extra copy of the report otherwise"),
    Option("--timing", bool, help="attach wall-clock timing to the report"),
)

_BASE = Option("--base", help="ring file, for ring topologies")
_OBJECT = Option("--object", help="simplicial set file, for raw/delta-nis")

COMMANDS = {
    "factorize": Command(_cmd_factorize, "factor one ring hom", (
        Option("--system", required=True,
               choices=ringsys.SYSTEMS + ("triple",)),
        Option("--hom", required=True, help="hom file (JSON)"))),
    "classify": Command(_cmd_classify, "field/local/domain tests for a ring", (
        Option("--ring", required=True, help="ring file (JSON)"),)),
    "cover": Command(_cmd_cover, "decide whether a family covers", (
        Option("--topology", required=True,
               choices=ringsys.TOPOLOGIES + SSET_MODES),
        _BASE, _OBJECT,
        Option("--family", required=True, help="family file (JSON)"))),
    "spectrum": Command(_cmd_spectrum, "point poset of one object", (
        Option("--topology", required=True,
               choices=ringsys.TOPOLOGIES + SSET_MODES + ("lines",)),
        _BASE, _OBJECT,
        Option("--space", help="vector space file, for lines"),
        Option("--lattice", bool,
               help="full open lattice instead of the point poset "
                    "(zar and dom only)"))),
    "orthogonal": Command(
        _cmd_orthogonal, "lifting test in a finite category", (
            Option("--category", required=True, help="category file (JSON)"),
            Option("--left", required=True, help="morphism id (JSON or bare)"),
            Option("--right", required=True,
                   help="morphism id (JSON or bare)"))),
    "verify": Command(_cmd_verify, "run a property suite", (
        Option("--suite", required=True, choices=suites.SUITES),)),
}


def build_parser():
    """The table as an argparse parser, for help screens and usage errors."""
    parser = argparse.ArgumentParser(
        prog="factopo",
        description="Factorization systems, covers and spectra "
                    "on finite instances.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for opt in command.options + COMMON:
            if opt.kind is bool:
                sub.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                sub.add_argument(opt.flag, type=opt.kind, default=opt.default,
                                 required=opt.required, choices=opt.choices,
                                 help=opt.help)
    return parser


def parse_argv(argv):
    """The Namespace of ``build_parser().parse_args(argv)``, read from the
    table when ``argv`` has the canonical form: the command, then exact long
    options, none twice and every required one present.  A switch stands
    alone; any other option is followed by one value that does not start
    with "-", converted by its kind (``int`` for an int, as argparse does)
    and in its choices.  None for any other argv, which argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {opt.flag: opt for opt in COMMANDS[argv[0]].options + COMMON}
    values = {}
    words = iter(argv[1:])
    for flag in words:
        opt = options.get(flag)
        if opt is None or flag in values:
            return None
        if opt.kind is bool:
            values[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = opt.kind(value)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[flag] = value
    if any(opt.required and flag not in values
           for flag, opt in options.items()):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, opt in options.items():
        setattr(args, flag[2:].replace("-", "_"), values.get(
            flag, False if opt.kind is bool else opt.default))
    return args


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
    payload = COMMANDS[args.command].run(args, budget)
    if args.format == "dot":
        write_out(args.out, payload.to_dot())
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
    try:
        text = report_text(report)
    except ValueError as err:
        raise OutputError("report cannot be written: an integer in it has "
                          "more than %d digits"
                          % sys.get_int_max_str_digits()) from err
    if args.out:
        write_out(args.out, text + "\n")
    return text


def report_text(report):
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte, built
    without the pure-Python encoder that ``json`` falls back on for an
    indent: each container is one join, a list of only ints or only strs
    is one join of C calls, and strings are quoted by ``json``'s C
    function.  Whatever ``json`` refuses raises as it does there: a type
    it cannot write TypeError, an int past the digit limit ValueError."""
    return _text(report, "\n")


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")
_INTS, _STRS = {int}, {str}


def _number(x):
    # a float as json writes it, NaN and the infinities included
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k):
    # json quotes a number, bool or None key as it writes the value
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_text(k, ""))
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(k).__name__)


def _text(value, pad):
    """``value`` written at the indentation that ``pad``, a newline and
    the spaces of the enclosing level, ends with."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == _INTS:
            items = map(int.__repr__, value)
        elif kinds == _STRS:
            items = map(_quote, value)
        else:
            items = map(_text, value, repeat(inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _text(v, inner)
             for k, v in sorted(value.items())]) + pad + "}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _number(value)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def write_out(path, text):
    """Write the --out file, refusing a path that cannot be written the way
    an unreadable input is refused."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise OutputError("%s: %s" % (path, err.strerror or err)) from err


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_argv(argv)
    if args is None:
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
