"""Assemble the full Hasse quiver of support tilting modules.

Each sign vector contributes the tilting poset of its hereditary slice,
taken over the opposite of the sign subquiver, where the relevant
endomorphism algebra lives.  The slices come from the `SliceEngine` walk
that `count` and `signdec` use, and a slice component is supported when
its Dynkin type is A, a unit-valued path.  Its vertices are read in
`quiver.breadth_first` order over `quiver.neighbour_lists`, which on a
path runs from the smaller end.  Every slice edge joins a +1 and a -1
vertex, so the opposite arrow between neighbours u, v on a path points
from u to v exactly when u is -1, and the component's orientation word
is `signs[v] == -1` read along the path.  Its mutation graph comes
from the rigidity table of that word (see `repa`), read on the
component's labels through a `ComponentView`; tables and views live for
one call.  A slice's poset is the product of its components' posets: its
nodes are the mixed-radix product of its views' tilting modules, and
each arrow or open end of a view is taken at every combination of the
other views' digits.  An open end is a summand whose rest has no other
complement in the slice.  Such a rest misses exactly one vertex v, so it
is a tilting module of the slice without v, which is the same for both
signs at v and has one completion on each side.  The open ends of the
two slices that differ only at v therefore pair up by their rest, and
each pair is one gluing arrow from the +1 side to the -1 side.  A node's
g-vector is the sign diagonal applied to its slice tilting module's
dimension vector.  A view is kept per labelled component and the sign of
one of its vertices, which fixes every sign on its path, so it flips its
modules' dimension vectors once, and a node's g is put together from its
views' pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .quiver import IntVector, SignVector, ValuedQuiver, format_signs
from .quiver import breadth_first, neighbour_lists
from .repa import RigidityTable, UnsupportedComponentError, _bits
from .signdec import Counted, SliceEngine

INTERNAL = "internal"
GLUING = "gluing"


@dataclass(frozen=True)
class HasseNode:
    """One support tilting module: sign class, the supports of its slice
    tilting module's summands (sorted vertex tuples in interval-key order),
    g-vector."""

    signs: SignVector
    supports: tuple[tuple[int, ...], ...]
    g: IntVector


@dataclass(frozen=True)
class GluedHasse:
    """Hasse quiver: nodes plus (from, to, kind) arrows indexing into nodes."""

    nodes: tuple[HasseNode, ...]
    arrows: tuple[tuple[int, int, str], ...]


class ComponentView:
    """An orientation word's table read on one labelled path under one sign
    vector: position p is path[p].

    An interval's support is its labels, sorted, and its key is (least
    label, size, support).  Intervals are re-sorted by key and tilting
    modules into the lexicographic order of their sorted interval
    positions, the order a table built on the labels gives.  Per tilting
    module, in that order: `summands` (their keys, sorted), `g` (its
    g-vector's entries on the path as (vertex, entry) pairs: the dimension
    vector, negated at -1 vertices), `arrows` (b, forward) to each later
    module b, and `ends` (missing vertex, pieces).  The rest of an open
    end lies on the paths left and right of the missing vertex; each one
    it meets is a piece (minimal vertex, the keys of the rest's summands
    on it, twice).
    """

    def __init__(self, table: RigidityTable, path: list[int], signs: SignVector) -> None:
        keys = []
        for start, stop in table.spans:
            support = tuple(sorted(path[start:stop]))
            keys.append((support[0], len(support), support))
        rank = {i: r for r, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__))}
        # table indices of each tilting module's summands, by key
        members = [sorted(_bits(mask), key=rank.__getitem__) for mask in table.tilting]
        order = sorted(range(len(members)), key=lambda t: [rank[i] for i in members[t]])
        where = {t: k for k, t in enumerate(order)}
        self.low = min(path)
        self.summands = tuple(tuple(keys[i] for i in members[t]) for t in order)
        self.g = tuple(
            tuple((v, signs[v - 1] * x) for v, x in zip(path, table.dims[t])) for t in order
        )
        self.arrows: list[list[tuple[int, bool]]] = [[] for _ in order]
        for i, j, forward in table.arrows:
            a, b = sorted((where[i], where[j]))
            self.arrows[a].append((b, forward == (a == where[i])))
        self.ends: list[list[tuple[int, tuple]]] = [[] for _ in order]
        for t, x, p in table.ends:
            left = tuple(keys[i] for i in members[t] if i != x and table.spans[i][0] < p)
            right = tuple(keys[i] for i in members[t] if i != x and table.spans[i][0] > p)
            pieces = tuple(
                (min(piece), on, on) for piece, on in ((path[:p], left), (path[p + 1:], right)) if on
            )
            self.ends[where[t]].append((path[p], pieces))


def component_views(
    signs: SignVector,
    parts: tuple[Counted, ...],
    tables: dict[tuple[bool, ...], RigidityTable],
    views: dict[tuple, ComponentView],
) -> tuple[ComponentView, ...]:
    """The view of each slice component of `signs`, as the slice engine
    gives them, from one table per orientation word and one view per
    labelled component and word; the caller's dicts decide how long they
    live.  Raises UnsupportedComponentError unless every component has
    Dynkin type A."""
    out = []
    for graph, dynkin, _ in parts:
        # the signs alternate along a slice path, so one of them fixes the word
        key = (graph, signs[graph.vertices[0] - 1])
        view = views.get(key)
        if view is None:
            if dynkin.family != "A":
                raise UnsupportedComponentError(
                    f"sign vector {format_signs(signs)}: component {list(graph.vertices)} "
                    f"is {dynkin}, not type A",
                    component=graph.vertices,
                    signs=tuple(signs),
                )
            path = breadth_first(neighbour_lists(graph.vertices, graph.edges), graph.vertices)
            word = tuple(signs[v - 1] == -1 for v in path[:-1])
            table = tables.get(word)
            if table is None:
                table = tables[word] = RigidityTable(word)
            view = views[key] = ComponentView(table, path, signs)
        out.append(view)
    return tuple(out)


def glued_hasse(quiver: ValuedQuiver) -> GluedHasse:
    """Nodes, internal mutation arrows, and cross-sign gluing arrows.

    Internal arrows are ordered by their index pair within a slice.  Open
    ends are paired by (signs without v, v, rest), the rest given by its
    summands' keys on each path of the slice without v, by minimal vertex.
    Gluing arrows follow the upper sign vector in enumeration order, then
    v, then the rest in the tilting order of the slice without v: the
    product order over those paths, each compared by its view's index
    where it is a whole component and by its summands' interval keys
    where it is a piece of v's component.
    """
    n = quiver.n
    tables: dict = {}
    views: dict = {}
    nodes: list[HasseNode] = []
    arrows: list[tuple[int, int, str]] = []
    ends: dict[tuple, list[tuple[int, tuple, int]]] = {}
    for rank, (signs, counted) in enumerate(SliceEngine(quiver, quiver.vertices).walk()):
        parts = component_views(signs, counted, tables, views)
        sizes = [len(view.summands) for view in parts]
        strides = [prod(sizes[c + 1:]) for c in range(len(parts))]
        without = [signs[:v - 1] + signs[v:] for v in range(n + 1)]  # by vertex v
        pairs = []
        for i, digits in enumerate(product(*map(range, sizes)), len(nodes)):
            g = [0] * n
            for view, d in zip(parts, digits):
                for v, x in view.g[d]:
                    g[v - 1] = x
            if any(gi * si <= 0 for gi, si in zip(g, signs)):
                raise ArithmeticError(
                    f"g-vector {tuple(g)} violates the sign law at {signs}: internal bug"
                )
            keys = sorted(key for view, d in zip(parts, digits) for key in view.summands[d])
            nodes.append(HasseNode(signs, tuple(support for _, _, support in keys), tuple(g)))
            for c, (view, d) in enumerate(zip(parts, digits)):
                pairs.extend((i, i + (b - d) * strides[c], ahead) for b, ahead in view.arrows[d])
                for v, pieces in view.ends[d]:
                    rest = sorted([
                        (parts[k].low, parts[k].summands[e], e) for k, e in enumerate(digits) if k != c
                    ] + list(pieces))
                    side = signs[v - 1]
                    order = (rank, v, tuple(o for _, _, o in rest)) if side == 1 else ()
                    key = (without[v], v, tuple(s for _, s, _ in rest))
                    ends.setdefault(key, []).append((side, order, i))
        pairs.sort()
        arrows.extend((i, j, INTERNAL) if ahead else (j, i, INTERNAL) for i, j, ahead in pairs)

    gluing = []
    for (others, v, _), pair in ends.items():
        pair.sort(reverse=True)
        if [side for side, _, _ in pair] != [1, -1]:
            upper = format_signs(others[:v - 1] + (1,) + others[v - 1:])
            raise ArithmeticError(
                f"open mutation ends below {upper} at vertex {v} do not pair up: "
                "internal bug"
            )
        (_, order, top), (_, _, bottom) = pair
        gluing.append((order, top, bottom))
    gluing.sort()
    arrows.extend((top, bottom, GLUING) for _, top, bottom in gluing)

    if len({node.g for node in nodes}) != len(nodes):
        raise ArithmeticError("node g-vectors collide: internal bug")
    degree = [0] * len(nodes)
    for a, b, _ in arrows:
        degree[a] += 1
        degree[b] += 1
    if any(d != n for d in degree):
        raise ArithmeticError("some node is not n-regular: internal bug")
    return GluedHasse(tuple(nodes), tuple(arrows))
