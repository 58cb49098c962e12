"""Assemble the full Hasse quiver of support tilting modules.

Each sign vector contributes the tilting poset of its hereditary slice,
taken over the opposite of the sign subquiver, where the relevant
endomorphism algebra lives.  The slices come in mask order from the
`SliceEngine` walk, and each component must have Dynkin type A, a
unit-valued path, in every slice before any node is built.  Its slice
edges join +1 to -1 vertices, so the word along its `breadth_first` path
alternates: one rigidity table per path length (see `repa`), for the word
with -1 first, is read on each labelled path through one `ComponentView`,
and at the opposite signs with every arrow reversed, since D = Hom_k(-, k)
keeps dimension vectors and turns Ext^1 around (Adachi-Iyama-Reiten 2014,
Theorem 2.14).  A slice's poset is the product of its components' posets,
and a node's g-vector is its sign vector applied to its dimension vector.

Every arrow is written once, in output order.  A node's internal arrows
run to later nodes of its slice and are written as the node is built.  An
open end is a summand whose rest has no other complement in the slice;
such a rest misses exactly one vertex v, so it is a tilting module of the
slice without v, which both signs at v share, with one completion on each
side (Adachi-Iyama-Reiten 2014, Theorem 2.18).  Each open end is keyed by
(upper, v, rest): the mask with +1 at v, then v, then the rest's summand
keys on each path of the slice without v, by minimal vertex.  The +1 side
has the lesser mask, so its end arrives first, and the two ends of a key
make one gluing arrow from the +1 side to the -1 side.

Masks that keep one edge set share one slice tuple from the engine.  When
mask m shares it with its complement c < m, m copies c's slice: the same
supports, negated g-vectors, c's internal arrows reversed and its open
ends re-keyed to m's upper masks.  Building m would give just that, as it
reads c's views with every sign negated, so with every `turned` flipped
(Theorem 2.14 again).  The first slice not of type A is never a copy,
since its complement has the same components and is typed first.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul

from .quiver import IntVector, Record, SignVector, ValuedGraph, ValuedQuiver, format_signs
from .quiver import UnsupportedComponentError, breadth_first, neighbour_lists
from .repa import RigidityTable
from .signdec import Counted, SliceEngine

INTERNAL = "internal"
GLUING = "gluing"


class HasseNode(Record):
    """One support tilting module: sign class, the supports of its slice
    tilting module's summands (sorted vertex tuples in interval-key order),
    g-vector."""

    __slots__ = ("signs", "supports", "g")

    def __init__(self, signs: SignVector, supports: tuple[tuple[int, ...], ...],
                 g: IntVector) -> None:
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "g", g)


class GluedHasse(Record):
    """Hasse quiver: nodes plus (from, to, kind) arrows indexing into nodes."""

    __slots__ = ("nodes", "arrows")

    def __init__(self, nodes: tuple[HasseNode, ...],
                 arrows: tuple[tuple[int, int, str], ...]) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arrows", arrows)


class ComponentView:
    """A path length's table read on one labelled path: position p is
    path[p], and the table's word puts -1 on path[0].

    An interval's key is (least label, size, sorted labels).  Each tilting
    module's summands are sorted by key, and the modules by those key lists,
    the order a table built on the labels gives.  Per module, in that order:
    `summands` (their keys), `dims` ((vertex, dimension) pairs along the
    path), `arrows` (b, forward) to each later module b, by b, forward as
    the table's word reads it, and `ends` (missing vertex, pieces): a piece
    holds the keys of the rest's summands on the path left or right of the
    missing vertex, which it covers, so its first key starts with its
    minimal vertex.
    """

    def __init__(self, table: RigidityTable, path: list[int]) -> None:
        supports = [tuple(sorted(path[start:stop])) for start, stop in table.spans]
        keys = [(support[0], len(support), support) for support in supports]
        members = [sorted(indices, key=keys.__getitem__) for indices in table.members]
        summands = [tuple([keys[i] for i in indices]) for indices in members]
        order = sorted(range(len(summands)), key=summands.__getitem__)
        where = sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation
        self.path = path
        self.summands = tuple([summands[t] for t in order])
        self.dims = tuple([tuple(zip(path, table.dims[t])) for t in order])
        self.arrows: list[list[tuple[int, bool]]] = [[] for _ in order]
        for i, j, forward in table.arrows:
            a, b = where[i], where[j]
            self.arrows[min(a, b)].append((max(a, b), forward == (a < b)))  # from the earlier one
        for later in self.arrows:
            later.sort()
        self.ends: list[list[tuple[int, list]]] = [[] for _ in order]
        for t, _, p in table.ends:
            # the rest's summands end before p or start after it; X alone covers p
            left = tuple([keys[i] for i in members[t] if table.spans[i][1] <= p])
            right = tuple([keys[i] for i in members[t] if table.spans[i][0] > p])
            self.ends[where[t]].append((path[p], [piece for piece in (left, right) if piece]))


def component_views(
    signs: SignVector,
    parts: tuple[Counted, ...],
    tables: dict[int, RigidityTable],
    views: dict[ValuedGraph, ComponentView],
) -> tuple[ComponentView, ...]:
    """The view of each slice component of `signs`, as the slice engine
    gives them, from one table per path length and one view per labelled
    component, read at either sign; the caller's dicts decide how long they
    live.  Raises UnsupportedComponentError unless every component has
    Dynkin type A, and ArithmeticError (an internal bug) when a new view's
    piece leaves its path or has a dimension below 1."""
    out = []
    for graph, dynkin, _ in parts:
        view = views.get(graph)
        if view is None:
            if dynkin.family != "A":
                raise UnsupportedComponentError(
                    f"sign vector {format_signs(signs)}: component {list(graph.vertices)} "
                    f"is {dynkin}, not type A", component=graph.vertices, signs=tuple(signs))
            path = breadth_first(neighbour_lists(graph.vertices, graph.edges), graph.vertices)
            table = tables.get(size := len(path))
            if table is None:  # the word with -1 at path[0], alternating from it
                table = tables[size] = RigidityTable([p % 2 == 0 for p in range(size - 1)])
            view = views[graph] = ComponentView(table, path)
            for piece in view.dims:  # g = signs * dims, so this is the sign law at every sign
                if [v for v, _ in piece] != path or any(x < 1 for _, x in piece):
                    g = tuple([(v, signs[v - 1] * x) for v, x in piece])
                    raise ArithmeticError(
                        f"g piece {g} violates the sign law at {format_signs(signs)}: internal bug")
        out.append(view)
    return tuple(out)


def glued_hasse(quiver: ValuedQuiver) -> GluedHasse:
    """Nodes, internal mutation arrows, and cross-sign gluing arrows, each
    arrow appended once, in output order.

    Nodes run slice by slice in mask order, and internal arrows by their
    node, then by the later node they join.  Gluing arrows come last, by
    their ends' sorted keys: the upper sign vector in enumeration order,
    then v, then the rest in the tilting order of the slice without v, as
    views order tilting modules by their sorted summand keys.
    """
    n = quiver.n
    engine = SliceEngine(quiver)
    top = (1 << n) - 1  # the all -1 mask; mask m has complement top - m
    walked = list(engine.walk())
    tables, views = {}, {}  # by path length; by labelled graph
    nodes: list[HasseNode] = []
    arrows: list[tuple[int, int, str]] = []
    ends: dict[tuple, list[int]] = {}
    sliced = [None if top - m < m and walked[top - m][1] is counted  # None: copied
              else component_views(signs, counted, tables, views)
              for m, (signs, counted) in enumerate(walked)]
    built = {}  # by mask its complement copies: its nodes' and internal arrows' spans, open ends
    for mask, ((signs, _), parts) in enumerate(zip(walked, sliced)):
        if parts is None:  # the slice tuple of c = top - mask < mask: c's slice reversed
            start, stop, begin, end, opened = built.pop(top - mask)
            shift = len(nodes) - start
            nodes += [HasseNode(signs, node.supports, tuple([-x for x in node.g]))
                      for node in nodes[start:stop]]
            arrows += [(b + shift, a + shift, kind) for a, b, kind in arrows[begin:end]]
            for v, rest, i in opened:
                ends.setdefault((mask & ~engine.bit[v], v, rest), []).append(i + shift)
            continue
        if sorted(v for view in parts for v in view.path) != list(range(1, n + 1)):
            raise ArithmeticError(
                f"slice {format_signs(signs)} misses or repeats a vertex: internal bug"
            )
        turned = [signs[view.path[0] - 1] == 1 for view in parts]  # the table's word reversed
        sizes = [len(view.summands) for view in parts]
        strides = [prod(sizes[c + 1:]) for c in range(len(parts))]
        start, begin, opened = len(nodes), len(arrows), []
        for i, digits in enumerate(product(*map(range, sizes)), start):
            dims = [0] * n
            for view, d in zip(parts, digits):
                for v, x in view.dims[d]:
                    dims[v - 1] = x
            own = [view.summands[d] for view, d in zip(parts, digits)]
            keys = sorted([key for summands in own for key in summands])
            nodes.append(HasseNode(signs, tuple([support for _, _, support in keys]),
                                   tuple(map(mul, signs, dims))))
            for c in range(len(parts) - 1, -1, -1):  # least stride first: targets ascend
                view, d, stride, turn = parts[c], digits[c], strides[c], turned[c]
                for b, ahead in view.arrows[d]:
                    j = i + (b - d) * stride
                    arrows.append((i, j, INTERNAL) if ahead != turn else (j, i, INTERNAL))
                for v, pieces in view.ends[d]:
                    rest = tuple(sorted(own[:c] + own[c + 1:] + pieces))
                    opened.append((v, rest, i))
                    ends.setdefault((mask & ~engine.bit[v], v, rest), []).append(i)
        if sliced[top - mask] is None:  # the complement copies this slice
            built[mask] = (start, len(nodes), begin, len(arrows), opened)

    for (_, v, _), pair in sorted(ends.items()):
        # the +1 end lies in the lesser mask, so the walk meets it first
        if [nodes[i].signs[v - 1] for i in pair] != [1, -1]:
            signs = nodes[pair[0]].signs
            raise ArithmeticError(
                f"open mutation ends below {format_signs(signs[:v - 1] + (1,) + signs[v:])} "
                f"at vertex {v} do not pair up: internal bug"
            )
        arrows.append((*pair, GLUING))

    if len({node.g for node in nodes}) != len(nodes):
        raise ArithmeticError("node g-vectors collide: internal bug")
    degree = [0] * len(nodes)
    for a, b, _ in arrows:
        degree[a] += 1
        degree[b] += 1
    if any(d != n for d in degree):
        raise ArithmeticError("some node is not n-regular: internal bug")
    return GluedHasse(tuple(nodes), tuple(arrows))
