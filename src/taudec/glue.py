"""Assemble the full Hasse quiver of support tilting modules.

Each sign vector contributes the tilting poset of its hereditary slice
(taken over the opposite of the sign subquiver, where the relevant
endomorphism algebra lives).  One mutation pass per slice gives its
internal arrows and its open ends: summands whose rest has no other
complement in the slice.  Such a rest misses exactly one vertex v, so it
is a tilting module of the slice without v, which is the same for both
signs at v and has one completion on each side.  The open ends of the
two slices that differ only at v therefore pair up by their rest, and
each pair is one gluing arrow from the +1 side to the -1 side.  Node
g-vectors are the sign diagonal applied to the dimension vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrices import IntVector, g_from_dim_vector
from .quiver import SignVector, ValuedQuiver, format_signs, opposite, sign_subquiver
from .repa import (
    IntervalModule,
    PathQuiver,
    RigidityTables,
    TiltingModule,
    UnsupportedComponentError,
    _interval_key,
    path_quiver,
    tilting_hasse,
    tilting_modules,
    total_dim_vector,
)
from .signdec import enumerate_signs

INTERNAL = "internal"
GLUING = "gluing"


@dataclass(frozen=True)
class HasseNode:
    """One support tilting module: sign class, slice tilting module, g-vector."""

    signs: SignVector
    tilt: TiltingModule
    g: IntVector


@dataclass(frozen=True)
class GluedHasse:
    """Hasse quiver: nodes plus (from, to, kind) arrows indexing into nodes."""

    nodes: tuple[HasseNode, ...]
    arrows: tuple[tuple[int, int, str], ...]

    def arrows_of_kind(self, kind: str) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b, k in self.arrows if k == kind)


def sign_slice_path_quiver(quiver: ValuedQuiver, signs: Sequence[int]) -> PathQuiver:
    """The opposite of the sign subquiver as a PathQuiver.

    Tilting modules are enumerated over the opposite orientation because
    that is the quiver of the slice's endomorphism algebra; raises with
    the offending sign vector when a component is not simply-laced type A.
    """
    try:
        return path_quiver(opposite(sign_subquiver(quiver, signs)))
    except UnsupportedComponentError as exc:
        raise UnsupportedComponentError(
            f"sign vector {format_signs(signs)}: {exc}",
            component=exc.component,
            signs=tuple(signs),
        ) from exc


def _slice_nodes(
    signs: SignVector,
    slice_quiver: PathQuiver,
    modules: Sequence[TiltingModule],
) -> list[HasseNode]:
    nodes = []
    for tilt in modules:
        g = g_from_dim_vector(signs, total_dim_vector(slice_quiver, tilt))
        for gi, si in zip(g, signs):
            if gi * si <= 0:
                raise ArithmeticError(
                    f"g-vector {g} violates the sign law at {signs}: internal bug"
                )
        nodes.append(HasseNode(signs, tilt, g))
    return nodes


def _rest_order(
    slice_quiver: PathQuiver, v: int, rest: Sequence[IntervalModule]
) -> tuple:
    """Sort key of `rest` among the tilting modules of the slice without v.

    Those come in the product order over the slice's paths with v cut out,
    taken by minimal vertex, each part compared by the sorted interval
    keys of its summands.  Keying each summand by its part's minimal
    vertex first makes one tuple comparison do both.
    """
    part_of: dict[int, int] = {}
    for path in slice_quiver.paths:
        cut = path.index(v) if v in path else len(path)
        for part in (path[:cut], path[cut + 1:]):
            for w in part:
                part_of[w] = min(part)
    return tuple(sorted((part_of[min(m.support)], _interval_key(m)) for m in rest))


def glued_hasse(quiver: ValuedQuiver) -> GluedHasse:
    """Nodes, internal mutation arrows, and cross-sign gluing arrows.

    Open ends are paired by (signs without v, v, rest).  Gluing arrows
    follow the upper sign vector in enumeration order, then v, then the
    rest in the tilting order of the slice without v.  Every slice shares
    one rigidity table per distinct path component; the tables live for
    this call only.
    """
    n = quiver.n
    tables: RigidityTables = {}
    nodes: list[HasseNode] = []
    arrows: list[tuple[int, int, str]] = []
    ends: dict[tuple, list[tuple[int, tuple, int]]] = {}
    for rank, signs in enumerate(enumerate_signs(n)):
        slice_quiver = sign_slice_path_quiver(quiver, signs)
        modules = tilting_modules(slice_quiver, tables)
        offset = len(nodes)
        nodes.extend(_slice_nodes(signs, slice_quiver, modules))
        internal, open_ends = tilting_hasse(slice_quiver, modules, tables)
        arrows.extend((offset + i, offset + j, INTERNAL) for i, j in internal)
        for i, summand in open_ends:
            rest = tuple(m for m in modules[i].summands if m != summand)
            # exactly one vertex; none or several would fail the pairing or degree check
            for v in summand.support.difference(*(m.support for m in rest)):
                side = signs[v - 1]
                order = (rank, v, _rest_order(slice_quiver, v, rest)) if side == 1 else ()
                key = (signs[:v - 1] + signs[v:], v, rest)
                ends.setdefault(key, []).append((side, order, offset + i))

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
