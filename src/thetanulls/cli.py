"""Command-line front end.

Every subcommand prints one JSON report (sorted keys, so a fixed config
yields byte-identical output) to stdout or --output.  Exit codes: 0 pass,
1 verification failure, 2 malformed input, 3 domain violation or resource
cap.  An input file that is not UTF-8 is malformed input, and so is a
path holding a NUL byte; a file past the JSON decoder's own limits
(nesting depth, digits of an integer) is a resource cap.  A refusal names
a path by its repr, so that no refusal spans two lines.

main(argv) may be called many times in one process: the parser is built
on the first call and reused, and each call is independent of the others.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__
from .bielliptic import verify_witnesses
from .errors import DomainError, MalformedInputError, ResourceCapError
from .f2core import F2Vector
from .hyperelliptic import (_labels, _vanishing_rows, char_to_partition,
                            class_counts, formula_agreement, std_labeling,
                            trans_config)
from .orbits import (OrbitClass, Quadruple, census_report, classify,
                     classify_by_delta, delta_parities)
from .quadforms import characteristic_counts
from .thetanum import (IntSymplectic, SiegelMatrix, block_diag_split_check,
                       theta_constant, transform_modulus_check)
from .transversal import NodeSet, transversality_report
from .verify import run_all


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # a ValueError: it comes first
        raise MalformedInputError(f"{path!r} is not UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise MalformedInputError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path!r}: {exc}") from exc
    # the decoder's own limits: nesting depth, and the digits of an integer
    # (a ValueError, as JSONDecodeError is)
    except (RecursionError, ValueError) as exc:
        raise ResourceCapError(
            f"{path!r} is past the JSON decoder's limits: {exc}") from exc


def _ascii_int(text: str) -> int:
    """A non-negative integer written in ASCII digits only: int() also takes
    signs, spaces, digit grouping such as 1_0 and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer in ASCII digits, got {text!r}")
    return int(text)


# a decimal float literal: no digit grouping, no other scripts' digits and
# no inf or nan, which float() would all take
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _ascii_eps(text: str) -> float:
    """A finite positive number written as an ASCII decimal literal; the
    refusal quotes the text typed, as 1e-400 reads as 0.0."""
    if _FLOAT.fullmatch(text) is None or not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number in ASCII digits, got {text!r}")
    return float(text)


def _parse_points(text: str) -> list[int]:
    # a blank list is S = [] (g = 2); an empty item in a list is refused
    items = text.split(",") if text.strip() else []
    try:
        return [_ascii_int(p.strip()) for p in items]
    except argparse.ArgumentTypeError as exc:
        raise MalformedInputError(f"bad point list {text!r}: {exc}") from exc


def _genus_cap(g: int, lo: int, hi: int) -> None:
    if not lo <= g <= hi:
        raise DomainError(f"genus must be in [{lo}, {hi}]; got {g}")


def cmd_enumerate(args) -> dict:
    g = args.genus
    _genus_cap(g, 1, 8)
    report: dict = {}
    even, odd = characteristic_counts(g)
    if args.parity in (None, "even"):
        report["even"] = even
    if args.parity in (None, "odd"):
        report["odd"] = odd
    if 2 <= g <= 6:
        (report["classes"], report["even_classes"],
         report["odd_classes"]) = class_counts(g)
        report["vanishing"] = _vanishing_rows(std_labeling(g))[0].size
        report["formula_agreement"] = formula_agreement(g)
    return report


def cmd_classify(args) -> dict:
    data = _load_json(args.input)
    q = Quadruple.from_json_dict(data)
    if args.genus is not None and args.genus != q.g:
        raise MalformedInputError(
            f"--genus {args.genus} does not match input g={q.g}")
    label = classify(q)
    deltas = delta_parities(q)
    return {
        "g": q.g,
        "label": label.value,
        # distinct characteristics have distinct nonzero differences, so
        # they span at least a plane
        "span_dim": 2 if label is OrbitClass.A1 else 3,
        "noncommuting_pairs": sum(deltas[:3]),
        "delta_parities": list(deltas),
        "delta_label": classify_by_delta(q).value,
        "base_independent": True,
    }


def cmd_orbit_census(args) -> dict:
    g = args.genus
    if g not in (2, 3):
        raise DomainError("orbit census supported for genus 2 and 3 only")
    return census_report(g)


def cmd_hyperelliptic(args) -> dict:
    g = args.genus
    _genus_cap(g, 2, 6)
    label = std_labeling(g)
    if args.action == "counts":
        classes, even, odd = class_counts(g)
        return {"classes": classes, "even": even, "odd": odd,
                "formula_agreement": formula_agreement(g)}
    if args.action == "vanishing":
        masks = _vanishing_rows(label)[1].tolist()
        return {"count": len(masks),
                "classes": sorted(_labels(m, g) for m in masks)}
    # cut: the thetanull configuration through a point set S
    if args.points is None:
        raise MalformedInputError("cut requires --points")
    s = _parse_points(args.points)
    chars = trans_config(label, s)
    rows = []
    for k in chars:
        t = char_to_partition(k, label)
        rows.append({"labels": sorted(t.labels), "char": k.to_list()})
    return {"S": sorted(s), "count": len(rows), "characteristics": rows}


def cmd_bielliptic(args) -> dict:
    rows = verify_witnesses()
    return {"witnesses": rows, "all_ok": all(r["ok"] for r in rows)}


def _char_from_bits(bits, g: int) -> F2Vector:
    if (not isinstance(bits, list) or len(bits) != 2 * g
            or any(type(b) is not int or b not in (0, 1) for b in bits)):
        raise MalformedInputError("characteristic must be a 0/1 list "
                                  f"of length {2 * g}")
    return F2Vector.from_list(bits)


def cmd_theta(args) -> dict:
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise MalformedInputError("theta input must be a JSON object")
    if args.action == "eval":
        z = SiegelMatrix.from_json_dict(data.get("z", {}))
        k = _char_from_bits(data.get("k"), z.g)
        val, bound = theta_constant(z, k, args.eps)
        return {"g": z.g, "value": [val.real, val.imag], "bound": bound}
    if args.action == "transform":
        m = IntSymplectic.from_json_dict(data.get("m", {}))
        z = SiegelMatrix.from_json_dict(data.get("z", {}))
        if m.g != z.g:
            raise MalformedInputError(
                f"m (g={m.g}) does not match z (g={z.g})")
        k = _char_from_bits(data.get("k"), z.g)
        return transform_modulus_check(m, z, k, args.eps)
    blocks = data.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise MalformedInputError('split input needs a nonempty "blocks"')
    zs, ks = [], []
    for blk in blocks:
        if not isinstance(blk, dict):
            raise MalformedInputError("each split block must be a JSON object")
        z = SiegelMatrix.from_json_dict(blk.get("z", {}))
        zs.append(z)
        ks.append(_char_from_bits(blk.get("k"), z.g))
    return block_diag_split_check(zs, ks, args.eps)


def cmd_transversal(args) -> dict:
    data = _load_json(args.nodes)
    ns = NodeSet.from_json_dict(data)
    if args.genus != ns.g:
        raise MalformedInputError(
            f"--genus {args.genus} does not match node file g={ns.g}")
    return transversality_report(ns, _parse_points(args.points))


def _print_timing(rep: dict, elapsed: float) -> None:
    status = "pass" if rep["pass"] else "FAIL"
    print(f'criterion {rep["criterion"]:2d} {rep["name"]}: '
          f'{status} ({elapsed:.2f}s)', file=sys.stderr)


def cmd_verify_all(args) -> dict:
    return run_all(args.seed, _print_timing)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as MalformedInputError, so that it
    prints one error line and exits 2 like any other malformed input; a
    line boundary of str.splitlines in it (argparse may quote an argument
    as typed) is escaped as repr would."""

    def error(self, message):
        raise MalformedInputError(re.sub(
            "[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]",
            lambda m: repr(m[0])[1:-1], message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by all later ones.  Sharing is safe as parse_args keeps no state in
    the parser: every default is immutable, every type= a pure function,
    and _Parser.error raises before anything is kept.  It holds no
    handler either: main looks up cmd_<subcommand> at each call."""
    parser = _Parser(
        prog="thetanulls",
        description="Theta characteristics, orbit classification and "
                    "certified theta constants.")
    parser.add_argument("--output", help="write the JSON report here "
                                         "instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="characteristic and class counts")
    p.add_argument("--genus", type=_ascii_int, required=True)
    p.add_argument("--parity", choices=["even", "odd"])

    p = sub.add_parser("classify", help="orbit label of a quadruple")
    p.add_argument("--genus", type=_ascii_int)
    p.add_argument("--input", required=True)

    p = sub.add_parser("orbit-census", help="full census of quadruples")
    p.add_argument("--genus", type=_ascii_int, required=True)

    p = sub.add_parser("hyperelliptic", help="partition model reports")
    p.add_argument("action", choices=["counts", "vanishing", "cut"])
    p.add_argument("--genus", type=_ascii_int, required=True)
    p.add_argument("--points", help="comma-separated branch labels for cut")

    p = sub.add_parser("bielliptic", help="witness verification")
    p.add_argument("action", choices=["verify"])

    p = sub.add_parser("theta", help="certified theta computations")
    p.add_argument("action", choices=["eval", "transform", "split"])
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=_ascii_eps, default=1e-10)

    p = sub.add_parser("transversal", help="rank certificate for a node set")
    p.add_argument("--genus", type=_ascii_int, required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--points", required=True)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--seed", type=_ascii_int, default=0)

    return parser


def _emit(report: dict, path) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(
            f"the report holds a non-finite number ({exc})") from exc
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise MalformedInputError(f"cannot write {path!r}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = {k: v for k, v in vars(args).items()
                  if k != "output" and v is not None}
        report = {"version": __version__, "config": config}
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        report.update(handler(args))
        _emit(report, args.output)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    failed = any(report.get(key) is False
                 for key in ("pass", "all_pass", "all_ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
