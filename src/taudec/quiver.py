"""Valued quivers presenting radical-square-zero algebras.

Vertices are numbered 1..n.  Every arrow carries a valuation, a pair
(d', d'') of positive integers; an ordinary quiver is encoded by merging m
parallel arrows into a single arrow valued (m, m).  After normalization a
quiver holds at most one arrow per ordered vertex pair; loops are allowed.

The package's one graph walk lives here: `breadth_first` orders the
connected component of a group's vertex of least degree, breadth first
from that vertex.  It takes neighbour lists, which `neighbour_lists` builds.

All values are immutable and every operation is a pure function, so shared
instances are safe to use concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

SignVector = tuple[int, ...]
IntVector = tuple[int, ...]


class QuiverError(ValueError):
    """Malformed quiver data, sign vector, or quiver file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def check_signs(signs: Sequence[int], n: int) -> SignVector:
    """Validate a +/-1 vector of length n and return it as a tuple."""
    out = tuple(signs)
    if len(out) != n:
        raise QuiverError(f"sign vector has length {len(out)}, expected {n}")
    if any(s not in (1, -1) for s in out):
        raise QuiverError(f"sign vector entries must be +1 or -1, got {out}")
    return out


def format_signs(signs: Sequence[int]) -> str:
    """A sign vector as a string of '+' and '-'."""
    return "".join("+" if s == 1 else "-" for s in signs)


@dataclass(frozen=True, order=True)
class Valuation:
    """Arrow valuation (d', d'').

    d' counts the multiplicity of the target simple in the radical of the
    source projective; d'' is the dimension on the other side.
    """

    d_prime: int
    d_dprime: int

    def __post_init__(self) -> None:
        if self.d_prime < 1 or self.d_dprime < 1:
            raise QuiverError(
                f"valuation entries must be positive, got ({self.d_prime}, {self.d_dprime})"
            )

    def unordered(self) -> tuple[int, int]:
        lo, hi = sorted((self.d_prime, self.d_dprime))
        return lo, hi


UNIT = Valuation(1, 1)


@dataclass(frozen=True, order=True)
class Arrow:
    src: int
    tgt: int
    val: Valuation = UNIT


@dataclass(frozen=True)
class ValuedQuiver:
    """Finite valued quiver on vertices 1..n, at most one arrow per ordered pair."""

    n: int
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise QuiverError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))
        seen: set[tuple[int, int]] = set()
        for a in self.arrows:
            if not (1 <= a.src <= self.n and 1 <= a.tgt <= self.n):
                raise QuiverError(f"arrow {a.src}->{a.tgt} outside vertex range 1..{self.n}")
            if (a.src, a.tgt) in seen:
                raise QuiverError(
                    f"two arrows on the ordered pair ({a.src}, {a.tgt}); merge with normalize()"
                )
            seen.add((a.src, a.tgt))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


RawArrow = tuple  # (src, tgt) for a unit arrow or (src, tgt, d', d'')


def normalize(n: int, raw_arrows: Iterable[RawArrow]) -> ValuedQuiver:
    """Merge parallel unit arrows into valued ones and build a quiver.

    For each ordered pair, m plain arrows become one arrow valued (m, m).
    An explicitly valued arrow must be the only entry on its pair; mixing
    it with plain duplicates (or another valued arrow) is rejected as
    ambiguous.
    """
    units: dict[tuple[int, int], int] = {}
    valued: dict[tuple[int, int], list[Valuation]] = {}
    for raw in raw_arrows:
        if len(raw) == 2:
            src, tgt = raw
            units[(src, tgt)] = units.get((src, tgt), 0) + 1
        elif len(raw) == 4:
            src, tgt, dp, dd = raw
            valued.setdefault((src, tgt), []).append(Valuation(dp, dd))
        else:
            raise QuiverError(f"arrow entry must have 2 or 4 fields, got {raw!r}")
    arrows: list[Arrow] = []
    for pair, vals in valued.items():
        if len(vals) > 1 or pair in units:
            raise QuiverError(
                f"pair ({pair[0]}, {pair[1]}) mixes an explicit valuation with parallel arrows"
            )
        arrows.append(Arrow(pair[0], pair[1], vals[0]))
    for pair, mult in units.items():
        arrows.append(Arrow(pair[0], pair[1], Valuation(mult, mult)))
    return ValuedQuiver(n, tuple(arrows))


def parse_quiver(text: str) -> ValuedQuiver:
    """Parse the line-based quiver file format.

    `n <count>` must be the first non-comment line, exactly once;
    `a <src> <tgt>` adds a unit arrow (repetition allowed), and
    `a <src> <tgt> <d'> <d''>` a valued one.  '#' starts a comment.
    Errors carry 1-based line numbers.
    """
    n: int | None = None
    raw: list[RawArrow] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        keyword, rest = fields[0], fields[1:]
        try:
            values = [int(f) for f in rest]
        except ValueError:
            raise QuiverError(f"non-integer field in {body!r}", line=lineno) from None
        if keyword == "n":
            if n is not None:
                raise QuiverError("repeated 'n' line", line=lineno)
            if len(values) != 1:
                raise QuiverError("'n' takes exactly one integer", line=lineno)
            if values[0] < 1:
                raise QuiverError(f"vertex count must be positive, got {values[0]}", line=lineno)
            n = values[0]
        elif keyword == "a":
            if n is None:
                raise QuiverError("'a' line before the 'n' line", line=lineno)
            if len(values) not in (2, 4):
                raise QuiverError("'a' takes 2 or 4 integers", line=lineno)
            if not (1 <= values[0] <= n and 1 <= values[1] <= n):
                raise QuiverError(
                    f"vertex index outside 1..{n} in {body!r}", line=lineno
                )
            if len(values) == 4 and (values[2] < 1 or values[3] < 1):
                raise QuiverError(f"non-positive valuation in {body!r}", line=lineno)
            raw.append(tuple(values))
        else:
            raise QuiverError(f"unknown directive {keyword!r}", line=lineno)
    if n is None:
        raise QuiverError("missing 'n' line")
    return normalize(n, raw)


def quiver_file_text(quiver: ValuedQuiver) -> str:
    """Serialize a quiver in the file format accepted by parse_quiver."""
    lines = [f"n {quiver.n}"]
    for a in quiver.arrows:
        lines.append(f"a {a.src} {a.tgt} {a.val.d_prime} {a.val.d_dprime}")
    return "\n".join(lines) + "\n"


def sign_subquiver(quiver: ValuedQuiver, signs: Sequence[int]) -> ValuedQuiver:
    """Keep exactly the arrows running from a +1 vertex to a -1 vertex.

    The result presents the hereditary algebra attached to this sign
    vector; loops never survive.
    """
    signs = check_signs(signs, quiver.n)
    kept = tuple(
        a for a in quiver.arrows if signs[a.src - 1] == 1 and signs[a.tgt - 1] == -1
    )
    return ValuedQuiver(quiver.n, kept)


def breadth_first(neighbours: Mapping[int, Collection[int]], group: Iterable[int]) -> list[int]:
    """Breadth-first order of the component of a group's vertex of least
    degree, from that vertex; ties and neighbours by label.  On a path it
    starts at the smaller end."""
    order = [min(group, key=lambda v: (len(neighbours[v]), v))]
    seen = set(order)
    for v in order:
        for u in sorted(neighbours[v]):
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order


Edge = tuple[int, int, tuple[int, int]]  # (u, v, (lo, hi)) with u < v


def neighbour_lists(vertices: Iterable[int], edges: Iterable[Edge]) -> dict[int, list[int]]:
    """Each vertex's neighbours, every edge listed at both ends."""
    neighbours: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v, _ in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return neighbours


@dataclass(frozen=True)
class ValuedGraph:
    """Undirected valued graph; each edge carries an unordered valuation pair."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        vset = set(self.vertices)
        seen: set[tuple[int, int]] = set()
        for u, v, _ in self.edges:
            if u == v:
                raise QuiverError(f"self-edge at vertex {u} is not allowed in a valued graph")
            if not (u < v and u in vset and v in vset):
                raise QuiverError(f"bad edge ({u}, {v})")
            if (u, v) in seen:
                raise QuiverError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
