"""Workloads: seeded quiver inputs, the command list of one pass, and the result gate.

Stdlib only; nothing here imports taudec.  Expected results come from closed
forms (Brauer line binom(2n,n), odd cycle 2^(2n-1), zigzag A_m as hereditary
A_m with C_{m+1}, products over disjoint unions, 2^k for k isolated vertices)
or, for the random path, from a brute-force sign sum written here, so the
gate does not trust the code under test.

Every input is relabelled by a permutation drawn from the workload seed; the
program only ever sees the written quiver files.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from itertools import product

WORKLOADS = ("count", "signdec", "hasse")

Arrow = tuple[int, int]


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class Input:
    """One quiver file: vertex count, arrows (after relabelling) and expected results."""

    name: str
    n: int
    arrows: tuple[Arrow, ...]
    count: int | None  # None: tau-tilting-infinite
    witness: str | None = None  # expected `finite` output of an infinite input

    def text(self) -> str:
        return "".join([f"n {self.n}\n"] + [f"a {s} {t}\n" for s, t in self.arrows])


@dataclass(frozen=True)
class Command:
    """One CLI call; "{}" in args stands for the input's file path."""

    label: str  # stable name, also the key of the digest pin
    kind: str  # count | finite | signdec | hasse
    args: tuple[str, ...]
    input: Input | None
    n: int  # vertex count the command works on

    def argv(self, path: str | None) -> list[str]:
        return [path if a == "{}" else a for a in self.args]


# ---------------------------------------------------------------- generators


def _line(n: int) -> list[Arrow]:
    """Brauer line: loops at both ends, arrows both ways between neighbours."""
    arrows = [(1, 1), (n, n)]
    for i in range(1, n):
        arrows += [(i, i + 1), (i + 1, i)]
    return arrows


def _cycle(n: int) -> list[Arrow]:
    arrows = []
    for i in range(1, n + 1):
        j = i % n + 1
        arrows += [(i, j), (j, i)]
    return arrows


def _zigzag(m: int) -> list[Arrow]:
    """Alternating path 1 -> 2 <- 3 -> 4 ...: no path of length 2, so hereditary A_m."""
    return [(i, i + 1) if i % 2 else (i + 1, i) for i in range(1, m)]


def _shift(arrows: list[Arrow], by: int) -> list[Arrow]:
    return [(s + by, t + by) for s, t in arrows]


def _random_path(rng: random.Random) -> list[Arrow]:
    """Path on 5 vertices: three two-way edges and one one-way edge, random loops.

    Every slice of a path is a union of type-A paths, so `hasse` never exits 3.
    The edge mix is fixed (only positions, the one-way direction and the loops
    are drawn) because it sets the node count: 186 or 196 on every seed, so the
    work per pass does not swing with the seed.
    """
    one_way = rng.randrange(4)
    arrows = []
    for i in range(1, 5):
        if i - 1 != one_way:
            arrows += [(i, i + 1), (i + 1, i)]
        elif rng.random() < 0.5:
            arrows.append((i, i + 1))
        else:
            arrows.append((i + 1, i))
    arrows += [(v, v) for v in range(1, 6) if rng.random() < 0.5]
    return arrows


def _relabel(perm: list[int], arrows: list[Arrow]) -> tuple[Arrow, ...]:
    return tuple(sorted((perm[s - 1], perm[t - 1]) for s, t in arrows))


def _make(rng: random.Random, name: str, n: int, arrows: list[Arrow],
          count: int | None) -> Input:
    perm = rng.sample(range(1, n + 1), n)
    return Input(name, n, _relabel(perm, arrows), count)


def _even_cycle(rng: random.Random, n: int) -> Input:
    """Even Brauer cycle, relabelled so that each colour class keeps its labels.

    The only non-Dynkin slices are the two alternating colourings, and the
    lexicographically first one puts + on vertex 1.  Sending cycle positions of
    one parity onto the odd labels fixes that witness at signs +-+-...  on every
    seed, so the early exit does the same work whatever the seed.
    """
    odd = rng.sample(range(1, n + 1, 2), n // 2)
    even = rng.sample(range(2, n + 1, 2), n // 2)
    perm = [odd[i // 2] if i % 2 == 0 else even[i // 2] for i in range(n)]
    verts = ",".join(str(v) for v in range(1, n + 1))
    witness = f"infinite\nwitness: signs={'+-' * (n // 2)} component={{{verts}}}\n"
    return Input(f"cycle{n}", n, _relabel(perm, _cycle(n)), None, witness)


def path_sign_count(n: int, arrows: tuple[Arrow, ...]) -> int:
    """Brute-force count for a quiver whose slices are all unions of type-A paths.

    Sum over sign vectors of the product of C_k over the slice components,
    C_k being the number of tilting modules of a k-vertex type-A path.
    """
    total = 0
    for signs in product((1, -1), repeat=n):
        parent = list(range(n + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for s, t in arrows:
            if signs[s - 1] == 1 and signs[t - 1] == -1:
                parent[find(s)] = find(t)
        sizes: dict[int, int] = {}
        for v in range(1, n + 1):
            root = find(v)
            sizes[root] = sizes.get(root, 0) + 1
        term = 1
        for size in sizes.values():
            term *= catalan(size)
        total += term
    return total


# ---------------------------------------------------------------- workloads


def _line_input(rng: random.Random, n: int) -> Input:
    return _make(rng, f"line{n}", n, _line(n), math.comb(2 * n, n))


def _odd_cycle_input(rng: random.Random, n: int) -> Input:
    return _make(rng, f"cycle{n}", n, _cycle(n), 2 ** (2 * n - 1))


def _zigzag_input(rng: random.Random, m: int) -> Input:
    return _make(rng, f"zigzag{m}", m, _zigzag(m), catalan(m + 1))


def _union_input(rng: random.Random, a: int, b: int) -> Input:
    arrows = _line(a) + _shift(_line(b), a)
    count = math.comb(2 * a, a) * math.comb(2 * b, b)
    return _make(rng, f"line{a}+line{b}", a + b, arrows, count)


def build(workload: str, seed: int) -> list[Command]:
    """The command list of one pass of a workload; the same seed gives the same list."""
    rng = random.Random(seed)
    commands: list[Command] = []
    if workload == "count":
        # One-component inputs (line, cycles, zigzag) and many-component ones
        # (disjoint union, edgeless); the even cycle exits at its first witness.
        cycle = _odd_cycle_input(rng, 9)
        for inp in (
            _line_input(rng, 10),
            cycle,
            _even_cycle(rng, 12),
            _union_input(rng, 4, 6),
            _make(rng, "edgeless10", 10, [], 2 ** 10),
            _zigzag_input(rng, 10),
        ):
            commands += [
                Command(f"count {inp.name}", "count", ("count", "{}"), inp, inp.n),
                Command(f"finite {inp.name}", "finite", ("finite", "{}"), inp, inp.n),
            ]
            if inp is cycle:
                commands.append(Command(
                    "brauer cycle 9 --verify", "count",
                    ("brauer", "cycle", "9", "--verify"), None, 9,
                ))
    elif workload == "signdec":
        # Every one of the 2^n rows is printed in order: no early exit and no
        # factoring can skip work.
        for inp in (
            _line_input(rng, 10),
            _odd_cycle_input(rng, 9),
            _union_input(rng, 4, 6),
            _zigzag_input(rng, 10),
        ):
            commands.append(Command(
                f"signdec {inp.name}", "signdec", ("signdec", "{}"), inp, inp.n
            ))
    elif workload == "hasse":
        # Every slice is type A, so no command exits 3; dynkin is never called.
        arrows = _random_path(rng)
        for inp, formats in (
            (_line_input(rng, 5), ("json", "dot")),
            (_zigzag_input(rng, 5), ("json",)),
            (_odd_cycle_input(rng, 5), ("json", "dot")),
            (_make(rng, "three-cycle", 3, [(1, 2), (2, 3), (3, 1)], 14), ("json", "dot")),
            (_make(rng, "random-path5", 5, arrows, path_sign_count(5, tuple(arrows))),
             ("json", "dot")),
        ):
            for fmt in formats:
                commands.append(Command(
                    f"hasse {inp.name} --format {fmt}", "hasse",
                    ("hasse", "{}", "--format", fmt), inp, inp.n,
                ))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return commands


def inputs_of(commands: list[Command]) -> dict[str, Input]:
    return {c.input.name: c.input for c in commands if c.input is not None}


# ---------------------------------------------------------------- result gate


def check(command: Command, out: str) -> str | None:
    """Check one command's stdout against closed forms and invariants; None if it passes."""
    inp = command.input
    verb = command.args[0]
    if verb == "brauer":
        want = f"OK {2 ** (2 * command.n - 1)}\n"
        return None if out == want else f"expected {want!r}, got {out[:80]!r}"
    if verb == "count":
        want = "infinite\n" if inp.count is None else f"{inp.count}\n"
        return None if out == want else f"expected {want!r}, got {out[:80]!r}"
    if verb == "finite":
        want = inp.witness if inp.count is None else "finite\n"
        return None if out == want else f"expected {want!r}, got {out[:120]!r}"
    if verb == "signdec":
        return _check_signdec(inp, out)
    if verb == "hasse":
        try:
            if command.args[-1] == "dot":
                nodes, arrows = _parse_dot(out)
            else:
                nodes, arrows = _parse_json(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable hasse output: {exc}"
        return _check_hasse(inp, nodes, arrows)
    return f"no check for {verb!r}"


SIGNDEC_HEADER = "# signs  components  count  two_term_tilting"


def _check_signdec(inp: Input, out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0] != SIGNDEC_HEADER:
        return "missing signdec header"
    rows = lines[1:]
    if len(rows) != 2 ** inp.n:
        return f"expected {2 ** inp.n} rows, got {len(rows)}"
    total = 0
    for row, signs in zip(rows, product("+-", repeat=inp.n)):
        fields = row.split("  ")
        if len(fields) != 4:
            return f"malformed row {row!r}"
        sign_text, _, count_text, flag = fields
        if sign_text != "".join(signs):
            return f"row {row!r} out of lexicographic order"
        if not count_text.isdigit():
            return f"row {row!r} has no finite count"
        total += int(count_text)
        # two-term silting is tilting exactly when no arrow runs from - to +
        tilting = not any(signs[s - 1] == "-" and signs[t - 1] == "+" for s, t in inp.arrows)
        if flag != ("true" if tilting else "false"):
            return f"row {row!r} has the wrong two_term_tilting flag"
    if total != inp.count:
        return f"row counts sum to {total}, expected {inp.count}"
    return None


Node = tuple[tuple[int, ...], tuple[int, ...]]  # (eps, g)


def _parse_json(out: str) -> tuple[list[Node], list[tuple[int, int]]]:
    data = json.loads(out)
    nodes = []
    for k, node in enumerate(data["nodes"]):
        if node["id"] != k:
            raise ValueError(f"node {k} has id {node['id']}")
        nodes.append((tuple(node["eps"]), tuple(node["g"])))
    arrows = []
    for arrow in data["arrows"]:
        if arrow["kind"] not in ("internal", "gluing"):
            raise ValueError(f"unknown arrow kind {arrow['kind']!r}")
        arrows.append((arrow["from"], arrow["to"]))
    return nodes, arrows


_DOT_NODE = re.compile(r'  n(\d+) \[label="([+-]+) g=\(([-0-9,]+)\)"\];')
_DOT_ARROW = re.compile(r"  n(\d+) -> n(\d+) \[style=(solid|dashed)\];")


def _parse_dot(out: str) -> tuple[list[Node], list[tuple[int, int]]]:
    lines = out.splitlines()
    if not lines or lines[0] != "digraph glued_hasse {" or lines[-1] != "}":
        raise ValueError("not a glued_hasse digraph")
    nodes, arrows = [], []
    for line in lines[1:-1]:
        if m := _DOT_NODE.fullmatch(line):
            if int(m[1]) != len(nodes):
                raise ValueError(f"node n{m[1]} out of order")
            eps = tuple(1 if c == "+" else -1 for c in m[2])
            nodes.append((eps, tuple(int(x) for x in m[3].split(","))))
        elif m := _DOT_ARROW.fullmatch(line):
            arrows.append((int(m[1]), int(m[2])))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return nodes, arrows


def _check_hasse(inp: Input, nodes: list[Node], arrows: list[tuple[int, int]]) -> str | None:
    """Node count, n-regularity, one source and sink, acyclicity, sign-coherent distinct g."""
    size, n = len(nodes), inp.n
    if size != inp.count:
        return f"{size} nodes, expected {inp.count}"
    for eps, g in nodes:
        if len(eps) != n or len(g) != n or any(e * x <= 0 for e, x in zip(eps, g)):
            return f"g-vector {g} is not sign-coherent with {eps}"
    if len({g for _, g in nodes}) != size:
        return "g-vectors are not distinct"
    indeg, outdeg = [0] * size, [0] * size
    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in arrows:
        if not (0 <= a < size and 0 <= b < size):
            return f"arrow {a}->{b} leaves the node set"
        outdeg[a] += 1
        indeg[b] += 1
        succ[a].append(b)
    if any(i + o != n for i, o in zip(indeg, outdeg)):
        return f"not {n}-regular"
    if indeg.count(0) != 1 or outdeg.count(0) != 1:
        return f"{indeg.count(0)} sources and {outdeg.count(0)} sinks, expected one each"
    ready = [k for k in range(size) if indeg[k] == 0]
    left = indeg[:]
    seen = 0
    while ready:
        k = ready.pop()
        seen += 1
        for b in succ[k]:
            left[b] -= 1
            if left[b] == 0:
                ready.append(b)
    if seen != size:
        return "the Hasse quiver has an oriented cycle"
    return None
