"""Sign-vector enumeration, tau-tilting-finiteness, and exact counts.

The support tilting modules of a radical-square-zero algebra split into
2^n classes indexed by sign vectors; each class is counted by the tilting
modules of a hereditary slice, which is finite exactly when every
connected component of the slice's underlying graph is Dynkin.

The sum over sign vectors and the product over slice components both
factor over the quiver's own weakly connected components, so counts and
finiteness walk the 2^k sign vectors of each k-vertex component in turn.
A `SliceEngine` holds one group's slice-eligible arrows once, builds each
slice from an integer sign mask, and classifies each distinct labelled
slice component once, in a dict that lives only as long as the engine:
one call of a count or a finiteness check.  `sign_slice_components` and
the `signdec` command's rows use one engine over the whole vertex set.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .dynkin import DynkinType, classify, tilting_count
from .quiver import SignVector, ValuedGraph, ValuedQuiver, check_signs, components

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


def enumerate_signs(n: int) -> Iterator[SignVector]:
    """All 2^n sign vectors, lexicographic with +1 before -1, all-+1 first."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n = {n}")
    return product((1, -1), repeat=n)


class SliceEngine:
    """Classified sign slices of one group of vertices.

    The group's arrows other than loops are held as (lo, hi, unordered
    valuation) with the mask bits of their source and target.  Vertex i of
    the group (0-based, in increasing order) owns bit k - 1 - i of a k-bit
    mask, set when its sign is -1, so masks 0, 1, 2, ... run through
    `enumerate_signs(k)` in order.  The slice of a mask keeps the arrows
    from a +1 vertex to a -1 vertex.  Each labelled component is classified
    the first time it appears and looked up afterwards; the lookup lives as
    long as the engine.
    """

    def __init__(self, quiver: ValuedQuiver, vertices: Iterable[int]):
        self.vertices = tuple(sorted(vertices))
        k = len(self.vertices)
        bit = {v: 1 << (k - 1 - i) for i, v in enumerate(self.vertices)}
        self._arrows = sorted(
            (min(a.src, a.tgt), max(a.src, a.tgt), a.val.unordered(), bit[a.src], bit[a.tgt])
            for a in quiver.arrows
            if a.src != a.tgt and a.src in bit and a.tgt in bit
        )
        self._classified: dict[tuple, Classified] = {}

    def walk(self) -> Iterator[tuple[SignVector, tuple[Classified, ...]]]:
        """Every sign vector of the group, in order, with its classified slice components."""
        for mask, signs in enumerate(enumerate_signs(len(self.vertices))):
            yield signs, self.slice(mask)

    def slice(self, mask: int) -> tuple[Classified, ...]:
        """Components of the mask's slice with their Dynkin types, by minimal vertex."""
        kept = [
            (u, v, val) for u, v, val, src, tgt in self._arrows if mask & tgt and not mask & src
        ]
        neighbours: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v, _ in kept:
            neighbours[u].append(v)
            neighbours[v].append(u)
        comps = components(neighbours)
        edges: list[list] = [[] for _ in comps]
        if kept:
            owner = {v: k for k, comp in enumerate(comps) for v in comp}
            for edge in kept:
                edges[owner[edge[0]]].append(edge)
        return tuple(self._classify(comp, tuple(es)) for comp, es in zip(comps, edges))

    def _classify(self, vertices: tuple[int, ...], edges: tuple) -> Classified:
        key = (vertices, edges)
        found = self._classified.get(key)
        if found is None:
            graph = ValuedGraph(vertices, edges)
            found = self._classified[key] = (graph, classify(graph))
        return found


def _quiver_components(quiver: ValuedQuiver) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the quiver's weakly connected components, by minimal vertex."""
    neighbours: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        neighbours[a.src].append(a.tgt)
        neighbours[a.tgt].append(a.src)
    return components(neighbours)


def sign_slice_components(
    quiver: ValuedQuiver, signs: Sequence[int]
) -> tuple[Classified, ...]:
    """Connected components of the sign slice's underlying graph, classified."""
    mask = 0
    for s in check_signs(signs, quiver.n):
        mask = mask << 1 | (s == -1)
    return SliceEngine(quiver, quiver.vertices).slice(mask)


def slice_count(parts: Iterable[Classified]) -> int | Infinite:
    """Product of the per-type tilting counts of classified slice components."""
    total = 1
    for _, dynkin in parts:
        if not dynkin.is_dynkin:
            return INFINITE
        total *= tilting_count(dynkin)
    return total


def count_for_signs(quiver: ValuedQuiver, signs: Sequence[int]) -> int | Infinite:
    """Number of support tilting modules in one sign class (or INFINITE)."""
    return slice_count(sign_slice_components(quiver, signs))


def count_support_tilting(quiver: ValuedQuiver) -> int | Infinite:
    """Total number of support tilting modules: the product over the quiver's
    components of each component's sum over its sign classes."""
    total = 1
    for group in _quiver_components(quiver):
        group_total = 0
        for _, parts in SliceEngine(quiver, group).walk():
            part = slice_count(parts)
            if part is INFINITE:
                return INFINITE
            group_total += part
        total *= group_total
    return total


def finiteness_witness(
    quiver: ValuedQuiver,
) -> tuple[SignVector, ValuedGraph] | None:
    """First sign vector whose slice has a non-Dynkin component, with that component.

    The first witness is +1 outside one quiver component and that
    component's own first witness inside it: setting signs outside the
    component to +1 keeps the witness and cannot move it later.
    """
    found = []
    for group in _quiver_components(quiver):
        for local, parts in SliceEngine(quiver, group).walk():
            bad = next((graph for graph, dynkin in parts if not dynkin.is_dynkin), None)
            if bad is not None:
                signs = [1] * quiver.n
                for v, s in zip(group, local):
                    signs[v - 1] = s
                found.append((tuple(signs), bad))
                break
    # negated vectors compare in enumerate_signs order, +1 before -1
    return min(found, key=lambda w: tuple(-s for s in w[0]), default=None)


def is_tau_tilting_finite(quiver: ValuedQuiver) -> bool:
    """Whether the presented algebra has finitely many support tilting modules.

    The count stops at the first non-Dynkin slice, which decides the answer.
    """
    return count_support_tilting(quiver) is not INFINITE
