"""Interval-module calculus over disjoint unions of type-A quivers.

Indecomposable representations of a type-A quiver are interval modules:
a module with the 0/1 indicator of a contiguous vertex set as dimension
vector, identity maps on arrows inside the support and zero elsewhere.
A homomorphism is a vertexwise family of scalars commuting with the arrow
maps; the constraints chain all scalars on the support overlap together,
so every Hom space is 0- or 1-dimensional.  Over a hereditary algebra
dim Hom - dim Ext^1 is the Euler form of the dimension vectors, which
makes Ext computable from Hom, and tilting modules are exactly the rigid
sets with one summand per vertex.  Everything here is exact integer
arithmetic on supports.

A path component is determined up to labels by its orientation word, the
directions of its arrows read along the path.  Each word gets one
rigidity table on positions 0..k-1, built with ext_dim on every ordered
pair of intervals, and the table computes its mutation graph once:
tilting sets by backtracking over the rigid masks, mutation by the other
complement of each rest, arrows towards the smaller Fac T, and the rests
with no other complement (not sincere) as open ends, which the glued
Hasse quiver pairs across the sign of the vertex they miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Sequence

from .matrices import IntVector
from .quiver import UNIT, ValuedQuiver, components


class UnsupportedComponentError(ValueError):
    """A quiver component falls outside simply-laced type A."""

    def __init__(self, message: str, component: tuple[int, ...] | None = None,
                 signs: tuple[int, ...] | None = None):
        super().__init__(message)
        self.component = component
        self.signs = signs


def _paths_of(
    vertices: tuple[int, ...], arrows: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], ...]:
    """Split into components and return each as a path-ordered vertex tuple."""
    neighbours: dict[int, set[int]] = {v: set() for v in vertices}
    pair_multiplicity: dict[tuple[int, int], int] = {}
    for u, v in arrows:
        if u == v:
            raise UnsupportedComponentError(f"loop at vertex {u}", component=(u,))
        key = (min(u, v), max(u, v))
        pair_multiplicity[key] = pair_multiplicity.get(key, 0) + 1
        neighbours[u].add(v)
        neighbours[v].add(u)
    for (u, v), mult in pair_multiplicity.items():
        if mult > 1:
            raise UnsupportedComponentError(
                f"multiple arrows between {u} and {v}", component=(u, v)
            )
    paths = []
    for comp in components(neighbours):
        degrees = [len(neighbours[w]) for w in comp]
        if sum(degrees) != 2 * (len(comp) - 1) or max(degrees) > 2:
            raise UnsupportedComponentError(
                f"component {list(comp)} is not a path", component=comp
            )
        first = min(w for w in comp if len(neighbours[w]) <= 1)
        order = [first]
        prev = None
        while True:
            nxt = [w for w in neighbours[order[-1]] if w != prev]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        paths.append(tuple(order))
    return tuple(paths)


@dataclass(frozen=True)
class PathQuiver:
    """Disjoint union of simply-laced type-A quivers on global vertex ids.

    `paths` lists each component's vertices in path order (components by
    minimal vertex, each path starting at its smaller endpoint); it is
    derived from the arrows, never passed in.
    """

    vertices: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...] = ()
    paths: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))
        vset = set(self.vertices)
        for u, v in self.arrows:
            if u not in vset or v not in vset:
                raise ValueError(f"arrow ({u}, {v}) leaves the vertex set")
        object.__setattr__(self, "paths", _paths_of(self.vertices, self.arrows))


def path_quiver(quiver: ValuedQuiver) -> PathQuiver:
    """View a valued quiver as a PathQuiver; rejects anything outside type A."""
    for a in quiver.arrows:
        if a.val != UNIT:
            raise UnsupportedComponentError(
                f"valued arrow {a.src}->{a.tgt} "
                f"({a.val.d_prime},{a.val.d_dprime}) is not simply laced",
                component=(min(a.src, a.tgt), max(a.src, a.tgt)),
            )
    return PathQuiver(
        tuple(quiver.vertices), tuple((a.src, a.tgt) for a in quiver.arrows)
    )


@dataclass(frozen=True)
class IntervalModule:
    """Indecomposable module, identified by its contiguous support set."""

    support: frozenset[int]
    # (min, size, sorted support), the order of intervals throughout; set once
    key: tuple[int, int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("interval support must be non-empty")
        ordered = tuple(sorted(self.support))
        object.__setattr__(self, "key", (ordered[0], len(ordered), ordered))

    def __repr__(self) -> str:
        return f"Interval({{{','.join(map(str, sorted(self.support)))}}})"


_interval_key = attrgetter("key")


def intervals(quiver: PathQuiver) -> tuple[IntervalModule, ...]:
    """All interval modules: m(m+1)/2 per m-vertex path, ordered by (min, size)."""
    out = []
    for path in quiver.paths:
        for start in range(len(path)):
            for stop in range(start + 1, len(path) + 1):
                out.append(IntervalModule(frozenset(path[start:stop])))
    return tuple(sorted(out, key=_interval_key))


def indicator(quiver: PathQuiver, support: frozenset[int]) -> IntVector:
    return tuple(1 if v in support else 0 for v in quiver.vertices)


def euler_form(quiver: PathQuiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Hereditary Euler form: sum of x_v y_v minus x_u y_v over arrows u -> v."""
    if len(x) != len(quiver.vertices) or len(y) != len(quiver.vertices):
        raise ValueError("vector length must match the vertex count")
    pos = {v: i for i, v in enumerate(quiver.vertices)}
    total = sum(a * b for a, b in zip(x, y))
    for u, v in quiver.arrows:
        total -= x[pos[u]] * y[pos[v]]
    return total


def _check_over(quiver: PathQuiver, m: IntervalModule) -> None:
    if not m.support <= set(quiver.vertices):
        raise ValueError(f"{m!r} is not a module over this quiver")


def hom_dim(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> int:
    """Dimension (0 or 1) of the space of homomorphisms m -> n.

    Solves the commutation system in closed form: scalars on the support
    overlap are chained equal by the arrows inside it, and an arrow u -> v
    forces zero when it maps the overlap outside one of the supports the
    wrong way round (u, v in m with v in n but u not, or u, v in n with
    u in m but v not).
    """
    _check_over(quiver, m)
    _check_over(quiver, n)
    sm, sn = m.support, n.support
    if sm.isdisjoint(sn):
        return 0
    for u, v in quiver.arrows:
        if u in sm and v in sm and v in sn and u not in sn:
            return 0
        if u in sn and v in sn and u in sm and v not in sm:
            return 0
    return 1


def ext_dim(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n>; never negative."""
    value = hom_dim(quiver, m, n) - euler_form(
        quiver, indicator(quiver, m.support), indicator(quiver, n.support)
    )
    if value < 0:
        raise ArithmeticError(
            f"negative Ext dimension between {m!r} and {n!r}: internal bug"
        )
    return value


@dataclass(frozen=True)
class TiltingModule:
    """Rigid module with one indecomposable summand per vertex."""

    summands: tuple[IntervalModule, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.summands, key=_interval_key))
        if len(set(ordered)) != len(ordered):
            raise ValueError("tilting summands must be pairwise distinct")
        object.__setattr__(self, "summands", ordered)

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(m.support)) for m in self.summands)


class RigidityTable:
    """Ext^1 among all intervals of one path component, and its mutation graph.

    `intervals` is the component's interval list in `_interval_key` order,
    and a mask names intervals by their positions there.  Bit j of
    `ext_out[i]` is set when Ext^1(intervals[i], intervals[j]) != 0, and
    bit j of `rigid[i]` when there is no Ext^1 either way (bit i always
    is).  Every entry comes from ext_dim over the component alone, which
    gives the same answer as over any quiver containing it: intervals of
    different components have neither Hom nor Ext^1 between them.

    The mutation graph: `tilting` holds the tilting masks, `arrows` the
    mutations (i, j, forward) between their indices, i < j and sorted,
    forward when the arrow points from i to j; `ends` the open ends
    (index, summand position, missing vertex), and `dims` one dimension
    vector per mask, in path order.
    """

    def __init__(self, component: PathQuiver) -> None:
        (path,) = component.paths
        self.size = len(path)
        self.intervals = intervals(component)
        self.full = (1 << len(self.intervals)) - 1
        self.ext_out = tuple(
            sum(1 << j for j, n in enumerate(self.intervals) if ext_dim(component, m, n))
            for m in self.intervals
        )
        ext_in = [0] * len(self.intervals)
        for i, out in enumerate(self.ext_out):
            for j in _bits(out):
                ext_in[j] |= 1 << i
        self.rigid = tuple(
            self.full & ~(out | into) for out, into in zip(self.ext_out, ext_in)
        )
        self.tilting = self._tilting()
        self.arrows, self.ends = self._mutate()
        self.dims = tuple(self._dims(mask, path) for mask in self.tilting)

    def ext_from(self, mask: int) -> int:
        """Intervals X with Ext^1(M, X) != 0 for some M in `mask`."""
        out = 0
        for i in _bits(mask):
            out |= self.ext_out[i]
        return out

    def complements(self, base: int) -> int:
        """Intervals outside `base` that are rigid with every member of it."""
        allowed = self.full
        for i in _bits(base):
            allowed &= self.rigid[i]
        return allowed & ~base

    def _dims(self, mask: int, path: tuple[int, ...]) -> tuple[int, ...]:
        supports = [self.intervals[i].support for i in _bits(mask)]
        return tuple(sum(v in support for support in supports) for v in path)

    def _tilting(self) -> tuple[int, ...]:
        """Masks of the rigid sets with one summand per vertex, in lexicographic
        order of their sorted positions."""
        found: list[int] = []
        count = len(self.intervals)

        def extend(start: int, chosen: int, size: int, allowed: int) -> None:
            if size == self.size:
                found.append(chosen)
                return
            if (allowed >> start).bit_count() < self.size - size:
                return
            for k in range(start, count):
                if (allowed >> k) & 1:
                    extend(k + 1, chosen | 1 << k, size + 1, allowed & self.rigid[k])

        extend(0, 0, 0, self.full)
        return tuple(found)

    def _mutate(self) -> tuple[tuple[tuple[int, int, bool], ...], tuple[tuple[int, int, int], ...]]:
        position = {mask: k for k, mask in enumerate(self.tilting)}
        arrows: list[tuple[int, int, bool]] = []
        ends: list[tuple[int, int, int]] = []
        for i, mask in enumerate(self.tilting):
            not_fac = self.ext_from(mask)
            for x in _bits(mask):
                rest = mask & ~(1 << x)
                others = self.complements(rest) & ~mask
                if not others:
                    covered = [self.intervals[r].support for r in _bits(rest)]
                    # exactly one vertex; none or several fail the pairing or degree check
                    ends.extend((i, x, v) for v in sorted(self.intervals[x].support.difference(*covered)))
                for y in _bits(others):
                    other = rest | 1 << y
                    j = position.get(other)
                    if j is None or j < i:
                        continue
                    forward = not (not_fac >> y) & 1
                    backward = not (self.ext_from(other) >> x) & 1
                    if forward == backward:
                        modules = [[self.intervals[k] for k in _bits(t)] for t in (mask, other)]
                        raise ArithmeticError(
                            f"adjacent tilting modules {modules[0]} and {modules[1]} have "
                            "incomparable torsion classes: internal bug"
                        )
                    arrows.append((i, j, forward))
        return tuple(sorted(arrows)), tuple(ends)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
