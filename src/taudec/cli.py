"""Command line: finiteness, counts, sign tables, Hasse output, Brauer checks.

Exit codes: 0 success, 1 verification failure, 2 input error, 3
unsupported structure, 4 internal error (a self-check found an
inconsistency).  All output is byte-deterministic for fixed input.
When the first argument names a command, `main` parses with that command's
parser alone; everything else goes through the full parser.  The `hasse`
command imports `glue` (and with it `repa`), and `brauer` and `identities`
import `brauer`, when they run, so the other commands never load them.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from itertools import chain

from .quiver import (
    QuiverError,
    UnsupportedComponentError,
    ValuedQuiver,
    format_signs,
    parse_quiver,
    quiver_file_text,
)
from .signdec import (
    Infinite,
    SliceEngine,
    count_support_tilting,
    finiteness_witness,
    slice_count,
)


def _load_quiver(path: str) -> ValuedQuiver:
    with open(path, encoding="utf-8") as handle:
        return parse_quiver(handle.read())


def _count_text(count: int | Infinite) -> str:
    """'infinite', or the exact decimal count past the interpreter's digit limit."""
    if isinstance(count, Infinite):
        return "infinite"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(limit)


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
    print(_count_text(count_support_tilting(_load_quiver(args.path))))
    return 0


def cmd_signdec(args: argparse.Namespace) -> int:
    rows = SliceEngine(_load_quiver(args.path)).rows()
    first = next(rows)  # the engine and its tables: a quiver too large fails before any output
    write = sys.stdout.write
    write("# signs  components  count  two_term_tilting\n")
    # component cells and row tails, by the id of the tuples the engine keeps alive
    texts: dict[int, str] = {}
    for text, parts, two_term in chain([first], rows):
        tail = texts.get(id(parts))
        if tail is None:
            for part in parts:
                if id(part) not in texts:
                    texts[id(part)] = f"{part[1]}{{{','.join(map(str, part[0].vertices))}}}"
            row = ",".join([texts[id(part)] for part in parts])
            tail = texts[id(parts)] = f"  {row}  {_count_text(slice_count(parts))}  "
        write(text + tail + ("true\n" if two_term else "false\n"))
    return 0


def _json_list(items: Sequence[str], indent: int) -> str:
    """Formatted items laid out as `json.dumps(..., indent=2)` lays out a list at this indent."""
    pad = "\n" + " " * indent
    return f"[{pad}  {f',{pad}  '.join(items)}{pad}]" if items else "[]"


def _json_ints(values: Sequence[int], indent: int) -> str:
    return _json_list([str(x) for x in values], indent)


def hasse_json(hasse: GluedHasse) -> str:
    """The bytes of `json.dumps(payload, indent=2)`, written directly: with an
    indent the standard encoder runs in pure Python."""
    supports: dict[tuple[int, ...], str] = {}
    eps = {signs: _json_ints(signs, 6) for signs in {node.signs for node in hasse.nodes}}
    nodes = []
    for k, node in enumerate(hasse.nodes):
        for support in node.supports:
            if support not in supports:
                supports[support] = _json_ints(support, 8)
        summands = _json_list([supports[support] for support in node.supports], 6)
        nodes.append(
            f'{{\n      "id": {k},\n      "eps": {eps[node.signs]},\n'
            f'      "summand_supports": {summands},\n      "g": {_json_ints(node.g, 6)}\n    }}'
        )
    arrows = [
        f'{{\n      "from": {a},\n      "to": {b},\n      "kind": "{kind}"\n    }}'
        for a, b, kind in hasse.arrows
    ]
    return f'{{\n  "nodes": {_json_list(nodes, 2)},\n  "arrows": {_json_list(arrows, 2)}\n}}\n'


def hasse_dot(hasse: GluedHasse) -> str:
    from .glue import GLUING
    lines = ["digraph glued_hasse {"]
    labels = {signs: format_signs(signs) for signs in {node.signs for node in hasse.nodes}}
    for k, node in enumerate(hasse.nodes):
        g = ",".join(str(x) for x in node.g)
        lines.append(f'  n{k} [label="{labels[node.signs]} g=({g})"];')
    for a, b, kind in hasse.arrows:
        style = "dashed" if kind == GLUING else "solid"
        lines.append(f"  n{a} -> n{b} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_hasse(args: argparse.Namespace) -> int:
    from .glue import glued_hasse
    hasse = glued_hasse(_load_quiver(args.path))
    text = hasse_dot(hasse) if args.format == "dot" else hasse_json(hasse)
    print(text, end="")
    return 0


def cmd_brauer(args: argparse.Namespace) -> int:
    from .brauer import brauer_cycle_count, brauer_cycle_quiver
    from .brauer import brauer_line_count, brauer_line_quiver
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
        print(f"MISMATCH {_count_text(got)} infinite")
        return 1
    want = (
        brauer_line_count(args.edges)
        if args.kind == "line"
        else brauer_cycle_count(args.edges)
    )
    if got == want:
        print(f"OK {_count_text(got)}")
        return 0
    print(f"MISMATCH {_count_text(got)} {_count_text(want)}")
    return 1


def cmd_identities(args: argparse.Namespace) -> int:
    from .brauer import catalan_checks, verify_identities
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


def _commands() -> dict[str, tuple[Callable[[argparse.Namespace], int], str]]:
    """Each command's handler and help line, in help order.  Built per call, so
    a wrapper rebound over a `cmd_*` function is the handler that runs."""
    return {
        "finite": (cmd_finite, "decide tau-tilting-finiteness"),
        "count": (cmd_count, "count support tilting modules"),
        "signdec": (cmd_signdec, "per-sign-vector decomposition table"),
        "hasse": (cmd_hasse, "emit the glued Hasse quiver"),
        "brauer": (cmd_brauer, "Brauer line/cycle generators and checks"),
        "identities": (cmd_identities, "verify the combinatorial identities"),
    }


def _command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Command `name`'s arguments and handler, added to its lone parser or its subparser."""
    if name in ("finite", "count", "signdec", "hasse"):
        parser.add_argument("path", help="quiver file")
    if name == "signdec":
        parser.add_argument(
            "--per-epsilon",
            action="store_true",
            help="emit one row per sign vector (the default and only mode)",
        )
    elif name == "hasse":
        parser.add_argument("--format", choices=("dot", "json"), default="json")
    elif name == "brauer":
        parser.add_argument("kind", choices=("line", "cycle"))
        parser.add_argument("edges", type=int, metavar="n")
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--emit-quiver", action="store_true")
        group.add_argument("--verify", action="store_true")
    elif name == "identities":
        parser.add_argument("--max-n", type=_positive_int, default=12, dest="max_n")
    parser.set_defaults(func=_commands()[name][0])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taudec",
        description="Sign-decomposition of support tau-tilting theory for "
        "radical-square-zero quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _commands().items():
        _command(sub.add_parser(name, help=text), name)
    return parser


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """One command's parser alone; the full parser for no command or arguments left over."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _commands():
        parser = _command(argparse.ArgumentParser(prog=f"taudec {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (QuiverError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # from the input's size, not a bug
        print(f"error: quiver too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except UnsupportedComponentError as exc:
        print(f"error: unsupported component type: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
