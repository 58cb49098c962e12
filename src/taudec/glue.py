"""Assemble the full Hasse quiver of support tilting modules.

Each sign vector contributes the tilting poset of its hereditary slice
(taken over the opposite of the sign subquiver, where the relevant
endomorphism algebra lives); flipping one sign coordinate from +1 to -1
contributes one gluing arrow per tilting module of the vertex-deleted
slice, joining its two unique completions.  Node g-vectors are the sign
diagonal applied to the dimension vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrices import IntVector, g_from_dim_vector
from .quiver import SignVector, ValuedQuiver, format_signs, opposite, sign_subquiver
from .repa import (
    PathQuiver,
    RigidityTables,
    TiltingModule,
    UnsupportedComponentError,
    bongartz_complete,
    delete_vertex,
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


def glued_hasse(quiver: ValuedQuiver) -> GluedHasse:
    """Nodes, internal mutation arrows, and cross-sign gluing arrows.

    Every slice and vertex-deleted slice shares one rigidity table per
    distinct path component; the tables live for this call only.
    """
    n = quiver.n
    tables: RigidityTables = {}
    nodes: list[HasseNode] = []
    slices: dict[SignVector, tuple[PathQuiver, tuple[TiltingModule, ...], int]] = {}
    for signs in enumerate_signs(n):
        slice_quiver = sign_slice_path_quiver(quiver, signs)
        modules = tilting_modules(slice_quiver, tables)
        slices[signs] = (slice_quiver, modules, len(nodes))
        nodes.extend(_slice_nodes(signs, slice_quiver, modules))

    arrows: list[tuple[int, int, str]] = []
    for signs in enumerate_signs(n):
        slice_quiver, modules, offset = slices[signs]
        for i, j in tilting_hasse(slice_quiver, modules, tables):
            arrows.append((offset + i, offset + j, INTERNAL))

    index = {(node.signs, node.tilt): k for k, node in enumerate(nodes)}
    for upper in enumerate_signs(n):
        upper_quiver = slices[upper][0]
        for coord in range(n):
            if upper[coord] != 1:
                continue
            lower = upper[:coord] + (-1,) + upper[coord + 1:]
            lower_quiver = slices[lower][0]
            vertex = coord + 1
            deleted = delete_vertex(upper_quiver, vertex)
            if deleted != delete_vertex(lower_quiver, vertex):
                raise ArithmeticError(
                    f"vertex-deleted slices at {upper} and {lower} disagree: "
                    "internal bug"
                )
            for shared in tilting_modules(deleted, tables):
                top = bongartz_complete(upper_quiver, shared.summands, vertex, tables)
                bottom = bongartz_complete(lower_quiver, shared.summands, vertex, tables)
                arrows.append(
                    (index[(upper, top)], index[(lower, bottom)], GLUING)
                )

    if len({node.g for node in nodes}) != len(nodes):
        raise ArithmeticError("node g-vectors collide: internal bug")
    degree = [0] * len(nodes)
    for a, b, _ in arrows:
        degree[a] += 1
        degree[b] += 1
    if any(d != n for d in degree):
        raise ArithmeticError("some node is not n-regular: internal bug")
    return GluedHasse(tuple(nodes), tuple(arrows))
