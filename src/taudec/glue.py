"""Assemble the full Hasse quiver of support tilting modules.

Each sign vector contributes the tilting poset of its hereditary slice,
taken over the opposite of the sign subquiver, where the relevant
endomorphism algebra lives.  The slices come, in mask order, from the
`SliceEngine` walk, which `signdec` reads row by row, and a slice component
is supported when its Dynkin type is A, a unit-valued path.  Every slice
edge joins a +1 and a -1 vertex, so the opposite arrow between path
neighbours u, v points from u to v exactly when u is -1: the component's
orientation word is `signs[v] == -1` read along its `breadth_first` path,
and that word's rigidity table (see `repa`) is read on the component's
labels through a `ComponentView`.  A slice's poset is the product of its
components' posets, and a node's g-vector is the sign diagonal applied
to its slice tilting module's dimension vector.  Each vertex lies in one
slice component, so the sign law is checked once per view piece and the
vertex cover once per slice, not per node.

An open end is a summand whose rest has no other complement in the
slice.  Such a rest misses exactly one vertex v, so it is a tilting
module of the slice without v, which both signs at v share, and it has
one completion on each side (Adachi-Iyama-Reiten 2014, Theorem 2.18).
Each open end is keyed once, by (upper, v, rest): the mask with +1 at v,
then v, then the rest's summand keys on each path of the slice without
v, by minimal vertex.  The two ends of a key are one gluing arrow from
the +1 side to the -1 side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import mul

from .quiver import IntVector, SignVector, ValuedQuiver, format_signs
from .quiver import breadth_first, neighbour_lists
from .repa import RigidityTable, UnsupportedComponentError
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
    it meets is a piece, the keys of the rest's summands on it, which it
    covers, so its first key starts with its minimal vertex.
    """

    def __init__(self, table: RigidityTable, path: list[int], signs: SignVector) -> None:
        supports = [tuple(sorted(path[start:stop])) for start, stop in table.spans]
        keys = [(support[0], len(support), support) for support in supports]
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        rank = sorted(range(len(keys)), key=by_key.__getitem__)  # the inverse permutation
        # each tilting module's summands as ranks, ascending; modules in their order
        ranked = [sorted([rank[i] for i in members]) for members in table.members]
        order = sorted(range(len(ranked)), key=ranked.__getitem__)
        where = sorted(range(len(order)), key=order.__getitem__)
        keys = [keys[i] for i in by_key]
        self.path = path
        self.summands = tuple([tuple([keys[r] for r in ranked[t]]) for t in order])
        flips = [signs[v - 1] for v in path]
        self.g = tuple([tuple(zip(path, map(mul, flips, table.dims[t]))) for t in order])
        self.arrows: list[list[tuple[int, bool]]] = [[] for _ in order]
        for i, j, forward in table.arrows:
            a, b = where[i], where[j]
            if a < b:
                self.arrows[a].append((b, forward))
            else:
                self.arrows[b].append((a, not forward))
        self.ends: list[list[tuple[int, list]]] = [[] for _ in order]
        starts, stops = zip(*[table.spans[i] for i in by_key])
        for t, _, p in table.ends:
            # the rest's summands end before p or start after it; X alone covers p
            left = tuple([keys[r] for r in ranked[t] if stops[r] <= p])
            right = tuple([keys[r] for r in ranked[t] if starts[r] > p])
            self.ends[where[t]].append((path[p], [piece for piece in (left, right) if piece]))


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
    Dynkin type A, and ArithmeticError (an internal bug) when a new view's
    g piece leaves its path or breaks the sign law."""
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
            for piece in view.g:  # one check per piece covers every node it is part of
                if [v for v, _ in piece] != path or any(x * signs[v - 1] <= 0 for v, x in piece):
                    raise ArithmeticError(
                        f"g piece {piece} violates the sign law at {format_signs(signs)}: "
                        "internal bug"
                    )
        out.append(view)
    return tuple(out)


def glued_hasse(quiver: ValuedQuiver) -> GluedHasse:
    """Nodes, internal mutation arrows, and cross-sign gluing arrows.

    Nodes and internal arrows run slice by slice in mask order, internal
    arrows by their index pair within a slice.  Gluing arrows come last,
    by their ends' sorted keys: the upper sign vector in enumeration order,
    then v, then the rest in the tilting order of the slice without v,
    since a view orders its tilting modules as their sorted summand keys
    compare.  A node only assembles what its views hold.
    """
    n = quiver.n
    engine = SliceEngine(quiver)
    tables: dict = {}
    views: dict = {}
    nodes: list[HasseNode] = []
    arrows: list[tuple[int, int, str]] = []
    ends: dict[tuple, list[tuple[int, int]]] = {}
    for mask, (signs, counted) in enumerate(engine.walk()):
        parts = component_views(signs, counted, tables, views)
        if sorted(v for view in parts for v in view.path) != list(range(1, n + 1)):
            raise ArithmeticError(
                f"slice {format_signs(signs)} misses or repeats a vertex: internal bug"
            )
        sizes = [len(view.summands) for view in parts]
        strides = [prod(sizes[c + 1:]) for c in range(len(parts))]
        pairs = []
        for i, digits in enumerate(product(*map(range, sizes)), len(nodes)):
            g = [0] * n
            for view, d in zip(parts, digits):
                for v, x in view.g[d]:
                    g[v - 1] = x
            own = [view.summands[d] for view, d in zip(parts, digits)]
            keys = sorted([key for summands in own for key in summands])
            nodes.append(HasseNode(signs, tuple([support for _, _, support in keys]), tuple(g)))
            for c, (view, d) in enumerate(zip(parts, digits)):
                pairs += [(i, i + (b - d) * strides[c], ahead) for b, ahead in view.arrows[d]]
                for v, pieces in view.ends[d]:
                    rest = tuple(sorted(own[:c] + own[c + 1:] + pieces))
                    key = (mask & ~engine.bit[v], v, rest)
                    ends.setdefault(key, []).append((signs[v - 1], i))
        pairs.sort()
        arrows.extend((i, j, INTERNAL) if ahead else (j, i, INTERNAL) for i, j, ahead in pairs)

    for (_, v, _), pair in sorted(ends.items()):
        pair.sort(reverse=True)
        if [side for side, _ in pair] != [1, -1]:
            signs = nodes[pair[0][1]].signs  # the upper signs are +1 at v
            raise ArithmeticError(
                f"open mutation ends below {format_signs(signs[:v - 1] + (1,) + signs[v:])} "
                f"at vertex {v} do not pair up: internal bug"
            )
        (_, top), (_, bottom) = pair
        arrows.append((top, bottom, GLUING))

    if len({node.g for node in nodes}) != len(nodes):
        raise ArithmeticError("node g-vectors collide: internal bug")
    degree = [0] * len(nodes)
    for a, b, _ in arrows:
        degree[a] += 1
        degree[b] += 1
    if any(d != n for d in degree):
        raise ArithmeticError("some node is not n-regular: internal bug")
    return GluedHasse(tuple(nodes), tuple(arrows))
