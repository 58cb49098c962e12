"""Sign-vector enumeration, tau-tilting-finiteness, and exact counts.

The support tilting modules of a radical-square-zero algebra split into
2^n classes indexed by sign vectors; each class is counted by the tilting
modules of a hereditary slice, which is finite exactly when every
connected component of the slice's underlying graph is Dynkin.

`transfer_count` sums the sign classes as a transfer matrix.  Its plan,
made before any state, walks each weakly connected component once with
`quiver.breadth_first`, from its vertex of least (degree, label), and takes
the components by those starts; it branches on both signs of a vertex.  On a
mirrored component, each link an arrow both ways with equal unordered
valuations, the slice at -e keeps the reverses of the arrows kept at e,
the same valued graph, so count(e) = count(-e): while one is swept, a
state is kept under its class, its frontier signs negated when the least
frontier vertex reads -1.  A lone vertex, A1 at either sign, is not
swept: it only doubles the sum, a shift.  A slice edge is decided when its
later end gets its sign.  The frontier, the swept vertices with a
neighbour still to come, is a mask of `SliceEngine` bits.  A state holds
the frontier's -1 vertices as mask bits and the open slice pieces, those
that still hold a frontier vertex.  A piece names a vertex by its label,
and an end that has left the frontier by 0.  A path is kept as its two
ends, its length, and its frontier vertices inside and its non-unit edges,
both by position.  A star, a unit tree with one vertex of degree 3, is
kept as its three arms, each an end and a length.  Its centre and the
vertices inside its arms are kept nowhere: an edge into one of them makes
a vertex of degree 4 or a second branch.  An edge into a vertex inside a
path splits the path into two arms of a star, a third edge makes the new
vertex a centre, and an edge into an arm end makes that arm longer. States
with equal keys merge by adding their exact int weights.  A piece with no
frontier vertex left (for a star, no arm end) is closed: the weight is
multiplied by its tilting count, read off `dynkin.shape_type` by its shape
and memoised for one call.  Between components the frontier is empty and
every state merges into the one empty key, whose weight is the product so
far.  A connected subgraph of a Dynkin graph is Dynkin and every state
with a weight comes from some sign vector, so a cycle, a second branch, a
non-unit edge on a star or an open piece that is not Dynkin returns
`INFINITE` at once.  `count`, `finite` and `brauer --verify` take their
counts from the sweep alone.  For `finite` a state holds, in place of its
weight, the least sign masks reaching its signs and, on a mirrored
component, their negation there: a flip swaps the two and a merge keeps
the least of each, since merged states share their futures.  The least
mask over all detections, +1 on every vertex not yet swept, is the first
witness.

A `SliceEngine` walks the 2^n sign vectors and owns the sign-mask layout,
which the sweep's states and witness masks follow too.  Each non-loop
arrow owns a bit, and the ORs of the arrows into and out of a mask's -1
vertices give its slice and its `signdec` two-term column; a walk reads
those ORs off two tables, over the high and the low half of the mask bits.
Each distinct slice is split by one union pass over its edge bits, merging
vertex groups by size, and each distinct component, keyed by its vertex
and edge bits, is typed once: a lone vertex or a unit path from its bits,
any other by `classify`.  A component that fails to type is an internal
bug named by its sign vector and vertices.  The engine names the
non-Dynkin component of the sweep's witness from its one slice, and gives
the `signdec` rows, the `hasse` walk and `sign_slice_components`.  Sign
text is always `quiver.format_signs`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import product

from .dynkin import DynkinType, classify, shape_type, tilting_count
from .quiver import SignVector, ValuedGraph, ValuedQuiver, breadth_first, check_signs
from .quiver import format_signs

Classified = tuple[ValuedGraph, DynkinType]


class Infinite:
    """Distinguished count value for tau-tilting-infinite inputs."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "infinite"


INFINITE = Infinite()

# a slice component with its type and its tilting count
Counted = tuple[ValuedGraph, DynkinType, int | Infinite]
_UNIT = (1, 1)


def enumerate_signs(n: int) -> Iterator[SignVector]:
    """All 2^n sign vectors, lexicographic with +1 before -1, all-+1 first."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n = {n}")
    return product((1, -1), repeat=n)


def _set_bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class SliceEngine:
    """Classified sign slices of a quiver.

    Vertex v owns bit n - v of an n-bit mask, set when its sign is -1, so
    masks 0, 1, 2, ... run through `enumerate_signs(n)` in order.
    Arrow bit 2e of edge e (lo, hi, unordered valuation) runs from lo to hi
    and bit 2e + 1 back.  With `into` and `out` the arrows into and out of a
    mask's -1 vertices, the slice keeps `into & ~out`, its key folds those
    onto even bits, and the mask is two-term when `out & ~into` is 0.
    `rows` tables `into`, `out` and the `format_signs` text of each setting
    of either half of the mask bits, for one walk.  Each distinct kept-edge
    set is split once for the engine's life, and all masks of one slice
    share one tuple.  The split walks the set key bits once; each edge bit
    names its two vertex bits, and a group [vertex mask, edge mask, member
    bits] absorbs the smaller group it meets (union by size).  Components
    come out by minimal vertex, from the highest vertex bit down.  A
    component is decoded from its bits and typed once per (vertex mask,
    edge mask); a lone vertex or a unit path is A_k without `classify`.
    """

    def __init__(self, quiver: ValuedQuiver):
        self.vertices = tuple(quiver.vertices)
        self.bit = bit = {v: 1 << quiver.n - v for v in self.vertices}
        arrows = [
            ((min(a.src, a.tgt), max(a.src, a.tgt), a.val.unordered()), a.src, a.tgt)
            for a in quiver.arrows
            if a.src != a.tgt
        ]
        self._edges = sorted({edge for edge, _, _ in arrows})
        index = {edge: e for e, edge in enumerate(self._edges)}
        self._even = (4 ** len(self._edges) - 1) // 3  # bits 0, 2, 4, ...
        self._ends = {b: [0, 0] for b in bit.values()}  # each vertex's [into, out]
        for edge, src, tgt in arrows:
            self._ends[bit[tgt]][0] |= 1 << 2 * index[edge] + (src > tgt)
            self._ends[bit[src]][1] |= 1 << 2 * index[edge] + (src > tgt)
        # each edge's key bit -> its two vertex bits; each vertex bit -> its label
        self._pair = {1 << 2 * e: (bit[lo], bit[hi]) for e, (lo, hi, _) in enumerate(self._edges)}
        self._unit = sum(1 << 2 * e for e, (_, _, val) in enumerate(self._edges) if val == _UNIT)
        self._label = {b: v for v, b in bit.items()}
        self._slices: dict[int, tuple[Counted, ...]] = {}
        self._classified: dict[tuple[int, int], Counted] = {}

    def _sides(self, mask: int) -> tuple[int, int]:
        """The arrows into and out of the mask's -1 vertices."""
        into = out = 0
        for b, (to, of) in self._ends.items():
            if mask & b:
                into, out = into | to, out | of
        return into, out

    def rows(self) -> Iterator[tuple[str, tuple[Counted, ...], bool]]:
        """Every mask, in order: its sign text, its counted slice components
        and its two-term flag, read off one table per half mask."""
        k = len(self.vertices)
        high, low = [
            [(*self._sides(j << at), format_signs(signs))
             for j, signs in enumerate(product((1, -1), repeat=width))]
            for at, width in ((k // 2, k - k // 2), (0, k // 2))
        ]
        for high_into, high_out, high_text in high:
            for low_into, low_out, low_text in low:
                into, out, text = high_into | low_into, high_out | low_out, high_text + low_text
                yield text, self._counted(into, out, text), not out & ~into

    def walk(self) -> Iterator[tuple[SignVector, tuple[Counted, ...]]]:
        """Every sign vector, in order, with its counted slice components."""
        for signs, (_, parts, _) in zip(enumerate_signs(len(self.vertices)), self.rows()):
            yield signs, parts

    def slice(self, signs: SignVector) -> tuple[Counted, ...]:
        """Components of the sign vector's slice with their Dynkin types and
        tilting counts, by minimal vertex; one shared tuple per kept-edge set."""
        mask = sum(b for v, b in self.bit.items() if signs[v - 1] == -1)
        return self._counted(*self._sides(mask), format_signs(signs))

    def _counted(self, into: int, out: int, text: str) -> tuple[Counted, ...]:
        kept = into & ~out  # at most one arrow of an edge: fold it onto the even bit
        key = (kept | kept >> 1) & self._even
        found = self._slices.get(key)
        if found is None:
            found = self._slices[key] = self._split(key, text)
        return found

    def _split(self, key: int, text: str) -> tuple[Counted, ...]:
        # union by size over the kept edges: a group is [vertex mask, edge mask, member bits]
        pair, classified = self._pair, self._classified
        owner: dict[int, list] = {}
        while key:
            e = key & -key
            key ^= e
            u, w = pair[e]
            g, h = owner.get(u), owner.get(w)
            if g is h:
                if g is None:
                    owner[u] = owner[w] = [u | w, e, [u, w]]
                else:
                    g[1] |= e  # an edge inside one group closes a cycle and is kept too
                continue
            if g is None or h is not None and len(g[2]) < len(h[2]):
                g, h, w = h, g, u  # g is the larger group, w the other end
            if h is None:
                g[0] |= w
                g[1] |= e
                g[2].append(w)
                owner[w] = g
            else:
                g[0] |= h[0]
                g[1] |= h[1] | e
                g[2] += h[2]
                for b in h[2]:
                    owner[b] = g
        parts = []
        for b in self._label:  # vertex bits from the highest: by minimal vertex
            g = owner.get(b)
            if g is None:
                bits = (b, 0)
            elif g[0] < b << 1:  # b is the group's highest bit, its minimal vertex
                bits = (g[0], g[1])
            else:
                continue
            parts.append(classified.get(bits) or self._component(bits, text))
        return tuple(parts)

    def _unit_path(self, vertices: int, edges: int) -> bool:
        """Whether a component is a unit path: connected by the union pass, with
        unit edges, one fewer than its vertices, that meet no vertex thrice."""
        if edges & ~self._unit or edges.bit_count() != vertices.bit_count() - 1:
            return False
        once = twice = 0  # vertex bits met at least once, at least twice
        for e in _set_bits(edges):
            for b in self._pair[e]:
                if twice & b:
                    return False
                once, twice = once | b, twice | once & b
        return True

    def _component(self, bits: tuple[int, int], text: str) -> Counted:
        """Build, type and keep the component on these vertex and key bits,
        decoded from their set bits alone; a unit path of k vertices is A_k."""
        comp = tuple(sorted(self._label[b] for b in _set_bits(bits[0])))
        es = tuple(self._edges[e.bit_length() >> 1] for e in _set_bits(bits[1]))
        try:
            graph = ValuedGraph(comp, es)
            dynkin = shape_type((len(comp), ())) if self._unit_path(*bits) else classify(graph)
        except ValueError as exc:  # QuiverError too: a slice of a valid quiver is valid
            raise ArithmeticError(
                f"slice of signs {text} on vertices {self.vertices}, "
                f"component {comp}: {exc}: internal bug"
            ) from exc
        count = tilting_count(dynkin) if dynkin.is_dynkin else INFINITE
        found = self._classified[bits] = (graph, dynkin, count)
        return found


# links[v][u] = [valuation of v -> u, valuation of u -> v], None where absent
Links = dict[int, dict[int, list]]
Path = tuple  # (end, end, length, inner frontier vertices and non-unit edges by position)
Star = tuple  # its three arms, each (end, length), sorted; an end is a label, 0 off the frontier


def _links(quiver: ValuedQuiver) -> Links:
    """The unordered valuations of the non-loop arrows, at both ends, by end in arrow order."""
    links: Links = {}
    for a in quiver.arrows:
        if a.src != a.tgt:
            val = a.val.unordered()
            links.setdefault(a.src, {}).setdefault(a.tgt, [None, None])[0] = val
            links.setdefault(a.tgt, {}).setdefault(a.src, [None, None])[1] = val
    return links


def _turned(path: Path) -> Path:
    """The path read from its other end."""
    a, b, length, inner, special = path
    return (b, a, length, inner and tuple([(length - 1 - p, i) for p, i in reversed(inner)]),
            special and tuple([(length - 2 - p, val) for p, val in reversed(special)]))


def _piece_count(shape: tuple, memo: dict) -> int | Infinite:
    """Tilting count of a path, shaped (length, non-unit edges by position), or
    of a unit star, shaped as its three sorted arm lengths; memoised."""
    count = memo.get(shape)
    if count is None:
        dynkin = shape_type(shape)
        count = memo[shape] = tilting_count(dynkin) if dynkin.is_dynkin else INFINITE
    return count


def _join(
    paths: tuple[Path, ...], stars: tuple[Star, ...], touched: list, fresh: int, memo: dict
) -> tuple[list[Path], tuple[Star, ...]] | Infinite:
    """The open paths and stars once the new vertex `fresh`, a label, takes its slice edges.

    `touched` lists (neighbour label, valuation) of the new vertex's edges.
    Edges into path ends join those paths through `fresh`; one more edge, to
    a third path end, inside a path or to a star's arm end, makes a star.
    Returns INFINITE when the edges close a cycle or make a non-Dynkin piece.
    """
    rest = list(paths)
    a, b, length, inner, special = fresh, fresh, 1, (), ()
    branches = []
    for i, val in touched:
        # once `fresh` joins two paths, a third path end makes it a centre
        for k, p in enumerate(rest if a == fresh else ()):
            if i == p[0] or i == p[1]:
                break
        else:
            branches.append((i, val))
            continue
        del rest[k]
        if b != fresh:  # the new vertex is the path's first end: turn the path round
            a, b, length, inner, special = _turned((a, b, length, inner, special))
        pa, pb, plength, pinner, pspecial = p if p[0] == i else _turned(p)
        inner += ((length - 1, fresh),) * (length > 1) + ((length, i),) * (plength > 1)
        if pinner:
            inner += tuple([(length + p, j) for p, j in pinner])
        if val != _UNIT:
            special += ((length - 1, val),)
        if pspecial:
            special += tuple([(length + p, w) for p, w in pspecial])
        b, length = pb, length + plength
    if not branches:
        if special and _piece_count((length, special), memo) is INFINITE:
            return INFINITE
        rest.append((a, b, length, inner, special))
        return rest, stars
    # a second branch, a cycle, or a non-unit edge on a star
    if len(branches) > 1 or special or branches[0][1] != _UNIT:
        return INFINITE
    i, arms = branches[0][0], None
    for k, (pa, pb, plength, pinner, pspecial) in enumerate(rest):
        inside = [p for p, j in pinner if j == i]
        if i == pa or i == pb:  # the third path end: `fresh` is the centre
            at = next(p for p, j in inner if j == fresh)
            arms = [(a, at), (b, length - 1 - at), (pa if i == pb else pb, plength)]
        elif inside and a == fresh:  # i is the centre and `fresh` an arm end
            arms = [(pa, inside[0]), (pb, plength - 1 - inside[0]), (b, length)]
        if arms:
            if pspecial:
                return INFINITE
            del rest[k]
            break
    for k, star in enumerate(() if arms else stars):
        arm = next((m for end, m in star if end == i), 0)
        if arm and a == fresh:  # the arm ending at i runs on through `fresh`
            arms = [(end, m) for end, m in star if end != i] + [(b, arm + length)]
            stars = stars[:k] + stars[k + 1:]
            break
    if not arms:
        # i lies on the new vertex's piece already (a cycle), is a star's centre or
        # inside an arm, or `fresh` would be a second branch
        return INFINITE
    star = tuple(sorted(arms))
    if _piece_count(tuple(sorted(m for _, m in star)), memo) is INFINITE:
        return INFINITE
    return rest, stars + (star,)


def transfer_count(quiver: ValuedQuiver, witness: bool = False) -> int | Infinite:
    """Sum of the quiver's sign-class counts, the product of its components'
    sums, by one vertex sweep whose schedule is fixed before the first state.

    Returns INFINITE as soon as an open slice piece closes a cycle or is not
    Dynkin (see the module docstring).  With `witness`, a state holds the
    least `SliceEngine` masks that reach its signs and, on a mirrored
    component, their negation there, in place of its weight, and the sweep
    runs on past each detection: it returns the least witness mask, the
    quiver's first witness, or 0 if there is none.  The pair needs no reset:
    the all +1 mask keeps its first slot 0 between components.
    """
    n, links = quiver.n, _links(quiver)
    memo: dict = {}  # piece counts by shape
    best = 0  # mask 0, all +1, has an edgeless slice and is never a witness
    plan: dict[int, bool] = {}  # each linked vertex in sweep order -> is its component mirrored
    for w in sorted(links, key=lambda v: (len(links[v]), v)):
        if w not in plan:  # its component's start: one walk gives the group and its order
            group = breadth_first(links, (w,))
            plan |= dict.fromkeys(group, all(o == i for x in group for o, i in links[x].values()))
    at, leave = {v: k for k, v in enumerate(plan)}, dict.fromkeys(plan, 0)
    for u in plan:  # u leaves the frontier at its own step or its last neighbour's
        leave[max([u, *links[u]], key=at.__getitem__)] |= 1 << n - u
    frontier = 0  # mask bits of the swept vertices with a neighbour still to come
    states = {(0, (), ()): (0, 0) if witness else 1}
    try:
        for v, mirrored in plan.items():
            bit = 1 << n - v
            # (frontier vertex, valuation) of the slice edges v can take as +1 and as -1
            plus = [(u, val) for u, (val, _) in links[v].items() if frontier >> n - u & 1 and val]
            minus = [(u, val) for u, (_, val) in links[v].items() if frontier >> n - u & 1 and val]
            frontier = (frontier | bit) & ~leave[v]
            merged = {}
            for (signs, paths, stars), weight in states.items():
                for edges, own in ((plus, 0), (minus, bit)):  # own: v's bit, set when v is -1
                    # an edge is kept from +1 to -1: u's bit is set when v's is not
                    touched = [(u, val) for u, val in edges if signs >> n - u & 1 == (not own)]
                    # the negation's mask, off a mirrored component the mask again
                    out = ((weight[0] | own, weight[1] | own ^ bit) if mirrored else
                           (weight[0] | own,) * 2) if witness else weight
                    joined = _join(paths, stars, touched, v, memo) if touched else (
                        paths + ((v, v, 1, (), ()),), stars
                    )
                    if joined is INFINITE:
                        if not witness:
                            return INFINITE
                        best = min(best or out[0], *out)  # least completion: +1 on the rest
                        continue
                    joined, open_stars = joined
                    kept = []
                    for a, b, length, inner, special in joined:
                        a *= frontier >> n - a & 1  # an end off the frontier reads 0
                        b *= frontier >> n - b & 1
                        if inner:
                            inner = tuple([(p, i) for p, i in inner if frontier >> n - i & 1])
                        if not (a or b or inner):
                            if not witness:
                                out *= _piece_count((length, special), memo)  # closed
                            continue
                        path = (a, b, length, inner, special)
                        if a < b or a == b and inner:  # greater end first, as `_join` grows a path
                            path = max(path, _turned(path))
                        kept.append(path)
                    kept_stars = ()
                    for star in open_stars:
                        star = tuple(sorted([(e * (frontier >> n - e & 1), m) for e, m in star]))
                        if star[-1][0]:
                            kept_stars += (star,)
                        elif not witness:  # no arm end is left on the frontier: closed
                            out *= _piece_count(tuple(sorted(m for _, m in star)), memo)
                    mask = (signs | own) & frontier
                    if mirrored and mask ^ frontier < mask:  # the class: least frontier vertex +1
                        mask ^= frontier
                        out = out[::-1] if witness else out
                    key = (mask, tuple(sorted(kept)), kept_stars and tuple(sorted(kept_stars)))
                    old = merged.get(key)
                    merged[key] = out if old is None else (
                        (min(old[0], out[0]), min(old[1], out[1])) if witness else old + out)
            states = merged
        return best if witness else sum(states.values()) << n - len(links)
    finally:  # a MemoryError unwinds with the states freed
        states = merged = None


def _sign_slice(quiver: ValuedQuiver, signs: Sequence[int]) -> tuple[Counted, ...]:
    return SliceEngine(quiver).slice(check_signs(signs, quiver.n))


def sign_slice_components(
    quiver: ValuedQuiver, signs: Sequence[int]
) -> tuple[Classified, ...]:
    """Connected components of the sign slice's underlying graph, classified."""
    return tuple((graph, dynkin) for graph, dynkin, _ in _sign_slice(quiver, signs))


def slice_count(parts: Iterable[Counted]) -> int | Infinite:
    """Product of the tilting counts of counted slice components."""
    total = 1
    for _, _, count in parts:
        if count is INFINITE:
            return INFINITE
        total *= count
    return total


def count_for_signs(quiver: ValuedQuiver, signs: Sequence[int]) -> int | Infinite:
    """Number of support tilting modules in one sign class (or INFINITE)."""
    return slice_count(_sign_slice(quiver, signs))


def count_support_tilting(quiver: ValuedQuiver) -> int | Infinite:
    """Total number of support tilting modules: the sum over all sign classes,
    by one sweep of the whole quiver."""
    return transfer_count(quiver)


def finiteness_witness(
    quiver: ValuedQuiver,
) -> tuple[SignVector, ValuedGraph] | None:
    """First sign vector whose slice has a non-Dynkin component, with that component.

    The sweep's least detection mask is the first witness; it is +1 outside
    one quiver component, and its one slice names the non-Dynkin component.
    """
    mask = transfer_count(quiver, witness=True)
    if not mask:
        return None
    engine = SliceEngine(quiver)
    signs = tuple(-1 if mask & engine.bit[v] else 1 for v in quiver.vertices)
    bad = next((graph for graph, dynkin, _ in engine.slice(signs) if not dynkin.is_dynkin), None)
    if bad is None:
        links = dict.fromkeys(quiver.vertices, {}) | _links(quiver)  # lone vertices too
        group = tuple(sorted(breadth_first(links, (signs.index(-1) + 1,))))
        raise ArithmeticError(f"witness {format_signs(signs)} is Dynkin on {group}: internal bug")
    return signs, bad


def is_tau_tilting_finite(quiver: ValuedQuiver) -> bool:
    """Whether the presented algebra has finitely many support tilting modules.

    The count's sweep stops at its first detection, which decides the answer.
    """
    return count_support_tilting(quiver) is not INFINITE
