"""Command line: finiteness, counts, sign tables, Hasse output, Brauer checks.

Exit codes: 0 success, 1 verification failure, 2 input error, 3
unsupported structure.  All output is byte-deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .brauer import (
    brauer_cycle_count,
    brauer_cycle_quiver,
    brauer_line_count,
    brauer_line_quiver,
    catalan_checks,
    verify_identities,
)
from .glue import GLUING, GluedHasse, glued_hasse
from .quiver import (
    QuiverError,
    ValuedQuiver,
    format_signs,
    parse_quiver,
    quiver_file_text,
    two_term_tilting,
)
from .repa import UnsupportedComponentError
from .signdec import (
    Infinite,
    count_for_signs,
    count_support_tilting,
    enumerate_signs,
    finiteness_witness,
    sign_slice_components,
)


def _load_quiver(path: str) -> ValuedQuiver:
    with open(path, encoding="utf-8") as handle:
        return parse_quiver(handle.read())


def cmd_finite(args: argparse.Namespace) -> int:
    quiver = _load_quiver(args.path)
    witness = finiteness_witness(quiver)
    if witness is None:
        print("finite")
    else:
        signs, component = witness
        verts = ",".join(str(v) for v in component.vertices)
        print("infinite")
        print(f"witness: signs={format_signs(signs)} component={{{verts}}}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    count = count_support_tilting(_load_quiver(args.path))
    print("infinite" if isinstance(count, Infinite) else str(count))
    return 0


def cmd_signdec(args: argparse.Namespace) -> int:
    quiver = _load_quiver(args.path)
    print("# signs  components  count  two_term_tilting")
    for signs in enumerate_signs(quiver.n):
        parts = []
        for component, dynkin in sign_slice_components(quiver, signs):
            verts = ",".join(str(v) for v in component.vertices)
            parts.append(f"{dynkin}{{{verts}}}")
        count = count_for_signs(quiver, signs)
        count_text = "infinite" if isinstance(count, Infinite) else str(count)
        flag = "true" if two_term_tilting(quiver, signs) else "false"
        print(f"{format_signs(signs)}  {','.join(parts)}  {count_text}  {flag}")
    return 0


def hasse_json(hasse: GluedHasse) -> str:
    payload = {
        "nodes": [
            {
                "id": k,
                "eps": list(node.signs),
                "summand_supports": [list(s) for s in node.tilt.supports()],
                "g": list(node.g),
            }
            for k, node in enumerate(hasse.nodes)
        ],
        "arrows": [
            {"from": a, "to": b, "kind": kind} for a, b, kind in hasse.arrows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def hasse_dot(hasse: GluedHasse) -> str:
    lines = ["digraph glued_hasse {"]
    for k, node in enumerate(hasse.nodes):
        g = ",".join(str(x) for x in node.g)
        lines.append(f'  n{k} [label="{format_signs(node.signs)} g=({g})"];')
    for a, b, kind in hasse.arrows:
        style = "dashed" if kind == GLUING else "solid"
        lines.append(f"  n{a} -> n{b} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_hasse(args: argparse.Namespace) -> int:
    hasse = glued_hasse(_load_quiver(args.path))
    text = hasse_dot(hasse) if args.format == "dot" else hasse_json(hasse)
    print(text, end="")
    return 0


def cmd_brauer(args: argparse.Namespace) -> int:
    build = brauer_line_quiver if args.kind == "line" else brauer_cycle_quiver
    quiver = build(args.edges)
    if args.emit_quiver:
        print(quiver_file_text(quiver), end="")
        return 0
    got = count_support_tilting(quiver)
    if args.kind == "cycle" and args.edges % 2 == 0:
        if isinstance(got, Infinite):
            print("infinite (expected: not tau-tilting-finite)")
            return 0
        print(f"MISMATCH {got} infinite")
        return 1
    want = (
        brauer_line_count(args.edges)
        if args.kind == "line"
        else brauer_cycle_count(args.edges)
    )
    if got == want:
        print(f"OK {got}")
        return 0
    got_text = "infinite" if isinstance(got, Infinite) else str(got)
    print(f"MISMATCH {got_text} {want}")
    return 1


def cmd_identities(args: argparse.Namespace) -> int:
    checks = verify_identities(args.max_n) + catalan_checks(args.max_n)
    failed = 0
    for check in checks:
        if check.passed:
            print(f"{check.name} n={check.n}: pass")
        else:
            failed += 1
            print(f"{check.name} n={check.n}: FAIL (got {check.got}, want {check.want})")
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taudec",
        description="Sign-decomposition of support tau-tilting theory for "
        "radical-square-zero quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("finite", help="decide tau-tilting-finiteness")
    p.add_argument("path", help="quiver file")
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("count", help="count support tilting modules")
    p.add_argument("path", help="quiver file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("signdec", help="per-sign-vector decomposition table")
    p.add_argument("path", help="quiver file")
    p.add_argument(
        "--per-epsilon",
        action="store_true",
        help="emit one row per sign vector (the default and only mode)",
    )
    p.set_defaults(func=cmd_signdec)

    p = sub.add_parser("hasse", help="emit the glued Hasse quiver")
    p.add_argument("path", help="quiver file")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("brauer", help="Brauer line/cycle generators and checks")
    p.add_argument("kind", choices=("line", "cycle"))
    p.add_argument("edges", type=int, metavar="n")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit-quiver", action="store_true")
    group.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_brauer)

    p = sub.add_parser("identities", help="verify the combinatorial identities")
    p.add_argument("--max-n", type=_positive_int, default=12, dest="max_n")
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuiverError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedComponentError as exc:
        print(f"error: unsupported component type: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
