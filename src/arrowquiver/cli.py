"""Command line interface.

Subcommands:

* ``color``          colorings of one knot by a biquandle
* ``endos``          endomorphisms of a biquandle
* ``weights find``   enumerate valid arrow weight tensors over Z_m
* ``weights check``  validity report for one tensor
* ``invariant``      one polynomial invariant of one knot
* ``quiver``         the weighted coloring quiver (or its quotient) as DOT
* ``table``          one row per knot of the bundled (or given) table
* ``calibrate``      re-derive the label and slot conventions from fixtures

Exit codes: 0 success, 1 usage error, 2 invalid input (bad biquandle,
endomorphism, tensor, code or knot name; the offending axiom or witness is
reported), 3 internal assertion failure.  All output is deterministic for a
fixed command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product

from .arrowweight import (
    WeightTensor,
    is_valid_weight,
    search_weights,
    weight_multiset,
)
from .biquandle import Biquandle, BiquandleError, parse_endos
from .biquandle import loads as parse_biquandle
from .gausscode import GaussDiagram, _tokens, parse_gauss_code
from .homset import TransportError, chord_colors, enumerate_colorings
from .invariants import phi_indegree, phi_quotient_loop, phi_twovar, phi_weight
from .knotdata import bundled_path, bundled_table, orientation_variants, parse_table
from .quiver import build_quiver, quotient_quiver

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

class InputError(Exception):
    """Invalid input data; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self):  # 78 columns on every terminal, as at COLUMNS=80
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input loading


def _load(path: str, parse, prefix: str = ""):
    """``parse`` of the text of an input file.  A file that cannot be read
    is an InputError, and so is a ValueError from ``parse``: its message
    after ``prefix``, or for a BiquandleError the violations, one a line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(str(err)) from None
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: {err}") from None
    try:
        return parse(text)
    except BiquandleError as err:
        lines = ["invalid biquandle:", *(f"  {v}" for v in err.violations)]
        raise InputError("\n".join(lines)) from None
    except ValueError as err:
        raise InputError(f"{prefix}{err}") from None


def _biquandle(path: str) -> Biquandle:
    return _load(path, parse_biquandle, f"invalid biquandle file {path}: ")


def _tensor(path: str, b: Biquandle) -> WeightTensor:
    w = _load(path, WeightTensor.loads, f"invalid tensor file {path}: ")
    if w.n != b.n:
        raise InputError(
            f"tensor is over {w.n} elements but the biquandle has {b.n}"
        )
    return w


def _endos(args, b: Biquandle) -> list[tuple[int, ...]]:
    if args.full_endos and args.endos is not None:
        raise InputError("--endos FILE and --full-endos cannot be used together")
    if args.full_endos:
        return b.endomorphisms()
    if args.endos is None:
        raise InputError("this command needs --endos FILE or --full-endos")
    return _load(args.endos, lambda text: parse_endos(text, b, source=args.endos))


def _inputs(args, maps: bool = True) -> tuple[Biquandle, WeightTensor, list]:
    """The biquandle, the tensor and the endomorphism set: needed only if
    ``maps``, but read and checked whenever ``--endos`` names a file."""
    b = _biquandle(args.biquandle)
    w = _tensor(args.tensor, b)
    return b, w, _endos(args, b) if maps or args.endos is not None else []


def _knot(args) -> tuple[str, GaussDiagram]:
    """The knot ``--knot`` names: a Gauss code if the tokenizer of
    :func:`parse_gauss_code` reads all of it, else a name in the table."""
    sel = args.knot
    try:
        _tokens(sel)
    except ValueError:
        table = _table_arg(args)
        try:
            return sel, table.get(sel)
        except KeyError as err:
            raise InputError(str(err.args[0])) from None
    try:
        return sel, parse_gauss_code(sel)
    except ValueError as err:
        raise InputError(f"invalid Gauss code {sel!r}: {err}") from None


def _table_arg(args):
    path = getattr(args, "knots", None)
    if path is None:
        return bundled_table()
    return _load(path, lambda text: parse_table(text, source=path))


# ---------------------------------------------------------------------------
# subcommands


def cmd_color(args) -> int:
    b = _biquandle(args.biquandle)
    name, d = _knot(args)
    colorings = enumerate_colorings(b, d)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "knot": name,
                    "count": len(colorings),
                    "colorings": [list(c) for c in colorings],
                },
                indent=2,
            )
        )
    else:
        for c in colorings:
            print(" ".join(str(x) for x in c))
        print(f"count {len(colorings)}")
    return EXIT_OK


def cmd_endos(args) -> int:
    b = _biquandle(args.biquandle)
    endos = b.endomorphisms()
    if args.format == "json":
        print(json.dumps({"count": len(endos), "endos": [list(f) for f in endos]}))
    else:
        for f in endos:
            print(" ".join(str(x) for x in f))
    return EXIT_OK


def cmd_weights_find(args) -> int:
    if args.modulus < 1:
        raise InputError(f"--modulus must be a positive integer, got {args.modulus}")
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must be a non-negative integer, got {args.limit}")
    b = _biquandle(args.biquandle)
    found = []
    for w in search_weights(b, args.modulus, limit=args.limit, nontrivial=args.nontrivial):
        found.append(w)
        if args.format == "text":
            print(f"# solution {len(found) - 1}")
            sys.stdout.write(w.dumps())
            print()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "modulus": args.modulus,
                    "count": len(found),
                    "tensors": [list(w.entries) for w in found],
                }
            )
        )
    elif args.format == "tsv":
        for w in found:
            print("\t".join(str(v) for v in w.entries))
    else:
        print(f"# {len(found)} solutions")
    return EXIT_OK


def cmd_weights_check(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be a non-negative integer, got {args.trials}")
    b = _biquandle(args.biquandle)
    w = _tensor(args.tensor, b)
    report = is_valid_weight(b, w, trials=args.trials, seed=args.seed)
    if args.format == "json":
        print(json.dumps({"seed": args.seed, **report.to_json()}))
    else:
        print(f"seed {args.seed}")
        if report.valid:
            print("valid")
        else:
            print("invalid")
            if report.violated_rows:
                shown = ", ".join(str(i) for i in report.violated_rows[:10])
                more = len(report.violated_rows) - 10
                tail = f" (+{more} more)" if more > 0 else ""
                print(f"violated constraint rows: {shown}{tail}")
            if report.failed_trial:
                print(f"failed trial: {report.failed_trial}")
    return EXIT_OK


# every --type reads the quiver; phi_weight reads only its vertices, so
# weight-poly needs no maps, though it checks those it is given
_PHI = {
    "weight-poly": phi_weight,
    "indeg": phi_indegree,
    "twovar": phi_twovar,
    "qloop": phi_quotient_loop,
}


def cmd_invariant(args) -> int:
    phi = _PHI[args.type]
    b, w, endos = _inputs(args, maps=phi is not phi_weight)
    name, d = _knot(args)
    poly = phi(build_quiver(b, w, d, endos))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "knot": name,
                    "type": args.type,
                    "render": str(poly),
                    "terms": poly.to_json(),
                }
            )
        )
    else:
        print(str(poly))
    return EXIT_OK


def cmd_quiver(args) -> int:
    b, w, endos = _inputs(args)
    name, d = _knot(args)
    q = build_quiver(b, w, d, endos)
    obj = quotient_quiver(q) if args.quotient else q
    if args.format == "json":
        if args.quotient:
            payload = {
                "knot": name,
                "weights": list(obj.weights),
                "sizes": list(obj.sizes),
                "edges": [list(e) for e in obj.edges],
            }
        else:
            payload = {
                "knot": name,
                "vertices": [list(v) for v in obj.vertices],
                "weights": list(obj.weights),
                "edges": [list(e) for e in obj.edges],
            }
        print(json.dumps(payload))
    else:
        sys.stdout.write(obj.to_dot())
    return EXIT_OK


def cmd_table(args) -> int:
    phi = _PHI[args.type]
    b, w, endos = _inputs(args, maps=phi is not phi_weight)
    table = _table_arg(args)
    rows = []
    for entry in table:
        d = entry.diagram
        variants = orientation_variants(d) if args.all_orientations else [d]
        renders = [str(phi(build_quiver(b, w, v, endos))) for v in variants]
        rows.append((entry.name, renders))
    if args.format == "json":
        print(
            json.dumps(
                [{"name": name, "values": values} for name, values in rows]
            )
        )
    else:
        for name, values in rows:
            print("\t".join([name, *values]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# convention calibration
#
# The two pinned weight multisets, {8,8} for the two-element fixture over
# Z_16 and {4,4,4} for the three-element fixture over Z_8 (both on the
# two-crossing knot 2.1), pin down how a crossing's label is read off the
# four surrounding semiarc colors, how the label changes at a negative
# crossing, which chord of a pair takes the first tensor slot, and which
# sign pattern the bundled 2.1 code carries.  ``calibrate`` re-runs that
# derivation over the whole convention space with its own independent
# weight-sum evaluator and confirms the shipped choices survive.

_LABEL_PARTS = ("u_in", "u_out", "o_in", "o_out")
_SWAP = {"u_in": "u_out", "u_out": "u_in", "o_in": "o_out", "o_out": "o_in"}
SHIPPED = ("u_in:o_out", "swapped", "under-first", "++")


def _calibration_multiset(b, w, d, label_pair, neg, slot):
    out = []
    for coloring in enumerate_colorings(b, d):
        def label(chord):
            parts = dict(
                zip(_LABEL_PARTS, chord_colors(d, coloring, chord))
            )
            x, y = label_pair
            if neg == "swapped" and d.sign_of(chord) < 0:
                x, y = _SWAP[x], _SWAP[y]
            return parts[x], parts[y]

        total = 0
        for p, q in d.crossing_pairs():
            if slot == "under-first":
                key = d.index_of(p, "U") < d.index_of(q, "U")
            else:
                key = min(d.index_of(p, "U"), d.index_of(p, "O")) < min(
                    d.index_of(q, "U"), d.index_of(q, "O")
                )
            first, second = (p, q) if key else (q, p)
            total += d.sign_of(p) * d.sign_of(q) * w.get(label(first), label(second))
        out.append(total % w.m)
    return sorted(out)


def calibrate() -> dict:
    """Try every convention combination against the two pinned multisets."""
    flip = _biquandle(str(bundled_path("biquandle_flip2.txt")))
    w16 = WeightTensor.load(str(bundled_path("weight_flip2_z16.txt")))
    cyc3 = _biquandle(str(bundled_path("biquandle_cyc3.txt")))
    w8 = WeightTensor.load(str(bundled_path("weight_cyc3_z8.txt")))
    combos = {}
    for x, y in product(_LABEL_PARTS, repeat=2):
        for neg in ("plain", "swapped"):
            for slot in ("under-first", "first-passage"):
                for s1, s2 in product("+-", repeat=2):
                    code = f"O1{s1}O2{s2}U1{s1}U2{s2}"
                    d = parse_gauss_code(code)
                    ms16 = _calibration_multiset(flip, w16, d, (x, y), neg, slot)
                    ms8 = _calibration_multiset(cyc3, w8, d, (x, y), neg, slot)
                    key = (f"{x}:{y}", neg, slot, s1 + s2)
                    combos[key] = {
                        "z16_multiset": ms16,
                        "z8_multiset": ms8,
                        "ok": ms16 == [8, 8] and ms8 == [4, 4, 4],
                    }
    survivors = sorted(k for k, v in combos.items() if v["ok"])
    shipped_ok = SHIPPED in survivors
    # the shipped conventions must also reproduce the targets via the real
    # evaluation path
    d = parse_gauss_code("O1+O2+U1+U2+")
    live16 = sorted(weight_multiset(flip, w16, d))
    live8 = sorted(weight_multiset(cyc3, w8, d))
    return {
        "survivors": survivors,
        "shipped": SHIPPED,
        "shipped_ok": shipped_ok and live16 == [8, 8] and live8 == [4, 4, 4],
        "library_z16_multiset": live16,
        "library_z8_multiset": live8,
        "combos": combos,
    }


def cmd_calibrate(args) -> int:
    report = calibrate()
    if args.format == "json":
        payload = {
            "survivors": [list(k) for k in report["survivors"]],
            "shipped": list(report["shipped"]),
            "shipped_ok": report["shipped_ok"],
            "combos": {
                " ".join(k): v for k, v in sorted(report["combos"].items())
            },
        }
        print(json.dumps(payload))
    else:
        for k in report["survivors"]:
            mark = " (shipped)" if k == report["shipped"] else ""
            print("survives: " + " ".join(k) + mark)
        print(f"{len(report['survivors'])} of {len(report['combos'])} combinations survive")
    if not report["survivors"]:
        print("calibrate: no convention combination matches the fixtures", file=sys.stderr)
        return EXIT_INTERNAL
    if not report["shipped_ok"]:
        print("calibrate: shipped conventions do not reproduce the fixtures", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="arrowquiver", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices, default):
        p.add_argument("--format", choices=choices, default=default)

    def add_inputs(p):
        p.add_argument("--biquandle", required=True)
        p.add_argument("--tensor", required=True)
        p.add_argument("--endos")
        p.add_argument("--full-endos", action="store_true")

    def add_knot(p):
        p.add_argument(
            "--knot",
            required=True,
            help="knot name from the table, or a literal Gauss code (blanks "
            "and commas may separate its tokens; '' is the unknot)",
        )
        p.add_argument("--knots", help="knot table TSV (default: bundled)")

    p = sub.add_parser("color", help="colorings of a knot")
    p.add_argument("--biquandle", required=True)
    add_knot(p)
    add_format(p, ["text", "json"], "text")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("endos", help="endomorphisms of a biquandle")
    p.add_argument("--biquandle", required=True)
    add_format(p, ["text", "json"], "text")
    p.set_defaults(func=cmd_endos)

    p = sub.add_parser("weights", help="arrow weight search and checking")
    wsub = p.add_subparsers(dest="weights_command", required=True)

    pf = wsub.add_parser("find", help="enumerate valid tensors over Z_m")
    pf.add_argument("--biquandle", required=True)
    pf.add_argument("--modulus", type=int, required=True)
    pf.add_argument("--limit", type=int)
    pf.add_argument("--nontrivial", action="store_true")
    add_format(pf, ["text", "tsv", "json"], "text")
    pf.set_defaults(func=cmd_weights_find)

    pc = wsub.add_parser("check", help="validity report for one tensor")
    pc.add_argument("--biquandle", required=True)
    pc.add_argument("--tensor", required=True)
    pc.add_argument("--trials", type=int, default=40)
    pc.add_argument("--seed", type=int, default=0)
    add_format(pc, ["text", "json"], "text")
    pc.set_defaults(func=cmd_weights_check)

    p = sub.add_parser("invariant", help="one polynomial invariant of one knot")
    p.add_argument("--type", choices=_PHI, required=True)
    add_inputs(p)
    add_knot(p)
    add_format(p, ["text", "json"], "text")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("quiver", help="weighted coloring quiver as DOT")
    add_inputs(p)
    p.add_argument("--quotient", action="store_true")
    add_knot(p)
    add_format(p, ["dot", "json"], "dot")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("table", help="invariant of every knot in a table")
    p.add_argument("--type", choices=_PHI, required=True)
    add_inputs(p)
    p.add_argument("--knots", help="knot table TSV (default: bundled)")
    p.add_argument(
        "--all-orientations",
        action="store_true",
        help="emit the invariant of all four orientation variants",
    )
    add_format(p, ["tsv", "json"], "tsv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("calibrate", help="re-derive conventions from fixtures")
    add_format(p, ["text", "json"], "text")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"arrowquiver: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AssertionError, TransportError) as err:
        print(f"arrowquiver: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
