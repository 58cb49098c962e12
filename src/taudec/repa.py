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

Each path component gets one rigidity table, built with ext_dim on every
ordered pair of its intervals: an Ext^1 bitmask and a pairwise-rigid
bitmask per interval.  Enumeration backtracks over the rigid masks,
Fac T is the complement of the Ext^1 masks of T's summands, and the
complements of an almost complete set are the AND of its rigid masks
minus the set itself.  Mutation replaces a summand by the other
complement of the rest, so the Hasse quiver comes from lookups rather
than a scan over all pairs of modules.  Callers pass one `tables` dict
to share tables across quivers with common components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence

from .matrices import IntVector
from .quiver import UNIT, ValuedQuiver


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
    seen: set[int] = set()
    for start in vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        edge_count = sum(1 for (u, v) in pair_multiplicity if u in comp)
        if edge_count != len(comp) - 1 or any(len(neighbours[w]) > 2 for w in comp):
            raise UnsupportedComponentError(
                f"component {sorted(comp)} is not a path",
                component=tuple(sorted(comp)),
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


def delete_vertex(quiver: PathQuiver, v: int) -> PathQuiver:
    if v not in quiver.vertices:
        raise ValueError(f"vertex {v} not in the quiver")
    return PathQuiver(
        tuple(w for w in quiver.vertices if w != v),
        tuple(a for a in quiver.arrows if v not in a),
    )


@dataclass(frozen=True)
class IntervalModule:
    """Indecomposable module, identified by its contiguous support set."""

    support: frozenset[int]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("interval support must be non-empty")

    def __repr__(self) -> str:
        return f"Interval({{{','.join(map(str, sorted(self.support)))}}})"


def _interval_key(m: IntervalModule) -> tuple[int, int, tuple[int, ...]]:
    return min(m.support), len(m.support), tuple(sorted(m.support))


def interval(quiver: PathQuiver, support: Iterable[int]) -> IntervalModule:
    """Build an interval module, checking contiguity within one path component."""
    sup = frozenset(support)
    for path in quiver.paths:
        positions = [i for i, w in enumerate(path) if w in sup]
        if not positions:
            continue
        if len(positions) != len(sup) or positions[-1] - positions[0] + 1 != len(sup):
            raise ValueError(f"support {sorted(sup)} is not contiguous")
        return IntervalModule(sup)
    raise ValueError(f"support {sorted(sup)} not inside the quiver")


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
    """Ext^1 among all intervals of one path component, as bitmasks.

    `intervals` is the component's interval list in `_interval_key` order,
    and a mask names intervals by their positions there.  Bit j of
    `ext_out[i]` is set when Ext^1(intervals[i], intervals[j]) != 0, and
    bit j of `rigid[i]` when there is no Ext^1 either way (bit i always
    is).  Every entry comes from ext_dim over the component alone, which
    gives the same answer as over any quiver containing it: intervals of
    different components have neither Hom nor Ext^1 between them.
    """

    def __init__(self, component: PathQuiver) -> None:
        self.size = len(component.vertices)
        self.intervals = intervals(component)
        self.index = {m: i for i, m in enumerate(self.intervals)}
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

    @cached_property
    def tilting(self) -> tuple[int, ...]:
        """Masks of the rigid sets with one summand per vertex.

        Found by backtracking over the rigid masks, in lexicographic order
        of their sorted positions.
        """
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


# Tables shared between calls, keyed by a component's path and its arrows.
RigidityTables = dict[
    tuple[tuple[int, ...], tuple[tuple[int, int], ...]], RigidityTable
]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tables(
    quiver: PathQuiver, tables: RigidityTables | None
) -> tuple[RigidityTable, ...]:
    """The table of each path component, in path order, built on first use."""
    if tables is None:
        tables = {}
    out = []
    for path in quiver.paths:
        on_path = set(path)
        arrows = tuple(a for a in quiver.arrows if a[0] in on_path)
        table = tables.get((path, arrows))
        if table is None:
            table = tables[path, arrows] = RigidityTable(PathQuiver(path, arrows))
        out.append(table)
    return tuple(out)


def _masks(
    tabs: Sequence[RigidityTable], modules: Iterable[IntervalModule]
) -> tuple[int, ...]:
    """Per-component position masks of a set of interval modules."""
    masks = [0] * len(tabs)
    for m in modules:
        for c, table in enumerate(tabs):
            i = table.index.get(m)
            if i is not None:
                masks[c] |= 1 << i
                break
        else:
            raise ValueError(f"{m!r} is not a module over this quiver")
    return tuple(masks)


def tilting_modules(
    quiver: PathQuiver, tables: RigidityTables | None = None
) -> tuple[TiltingModule, ...]:
    """Enumerate all tilting modules, per component.

    Within each path component the rigid sets with one summand per vertex
    are backtracked over its rigidity table; components are then combined
    as products.  Order is deterministic.  `tables` shares rigidity tables
    with other calls.
    """
    per_component = [
        [tuple(table.intervals[i] for i in _bits(mask)) for mask in table.tilting]
        for table in _tables(quiver, tables)
    ]
    return tuple(
        TiltingModule(tuple(m for part in combo for m in part))
        for combo in product(*per_component)
    )


def fac_contains(
    quiver: PathQuiver,
    tilt: TiltingModule,
    x: IntervalModule,
    tables: RigidityTables | None = None,
) -> bool:
    """Whether x lies in the torsion class generated by a tilting module.

    For tilting T over a hereditary algebra, Fac T = {X : Ext^1(T, X) = 0}.
    """
    tabs = _tables(quiver, tables)
    masks = zip(tabs, _masks(tabs, tilt.summands), _masks(tabs, (x,)))
    return not any(table.ext_from(mask) & target for table, mask, target in masks)


def tilting_hasse(
    quiver: PathQuiver,
    modules: Sequence[TiltingModule] | None = None,
    tables: RigidityTables | None = None,
) -> tuple[tuple[int, int], ...]:
    """Mutation arrows between tilting modules, as index pairs.

    Two tilting modules are adjacent when they share all but one summand;
    the arrow points towards the smaller torsion class.  Indices refer to
    the order of `modules`, by default tilting_modules(quiver).  Each
    module is mutated at each summand: the other complements of the rest
    come from the rigidity table, and the modules holding them are looked
    up by their summand positions.  Arrows are ordered by their index pair.
    """
    if tables is None:
        tables = {}
    if modules is None:
        modules = tilting_modules(quiver, tables)
    tabs = _tables(quiver, tables)
    keys = [_masks(tabs, t.summands) for t in modules]
    position = {key: k for k, key in enumerate(keys)}
    pairs: list[tuple[int, int, bool]] = []
    for i, key in enumerate(keys):
        for c, (table, mask) in enumerate(zip(tabs, key)):
            not_fac = table.ext_from(mask)
            for x in _bits(mask):
                rest = mask & ~(1 << x)
                for y in _bits(table.complements(rest) & ~mask):
                    other = rest | 1 << y
                    j = position.get(key[:c] + (other,) + key[c + 1:])
                    if j is None or j < i:
                        continue
                    forward = not (not_fac >> y) & 1
                    backward = not (table.ext_from(other) >> x) & 1
                    if forward == backward:
                        raise ArithmeticError(
                            f"adjacent tilting modules {modules[i]} and {modules[j]} "
                            "have incomparable torsion classes: internal bug"
                        )
                    pairs.append((i, j, forward))
    pairs.sort()
    return tuple((i, j) if forward else (j, i) for i, j, forward in pairs)


def bongartz_complete(
    quiver: PathQuiver,
    summands: Iterable[IntervalModule],
    missing: int,
    tables: RigidityTables | None = None,
) -> TiltingModule:
    """Unique completion of an almost-complete rigid module avoiding one vertex.

    `summands` must be tilting over the quiver with `missing` deleted;
    being non-sincere it has exactly one complement, which is returned
    together with the input.  Zero or several complements signal a bug or
    a violated precondition.  `tables` shares rigidity tables with other
    calls.
    """
    base = tuple(sorted(set(summands), key=_interval_key))
    if missing not in quiver.vertices:
        raise ValueError(f"vertex {missing} not in the quiver")
    if len(base) != len(quiver.vertices) - 1:
        raise ValueError(
            f"expected {len(quiver.vertices) - 1} summands, got {len(base)}"
        )
    for m in base:
        if missing in m.support:
            raise ValueError(f"{m!r} meets the deleted vertex {missing}")
    tabs = _tables(quiver, tables)
    masks = _masks(tabs, base)
    for table, mask in zip(tabs, masks):
        for i in _bits(mask):
            clash = mask & ~table.rigid[i]
            if clash:
                m, n = table.intervals[i], table.intervals[next(_bits(clash))]
                raise ValueError(f"{m!r} and {n!r} are not rigid: bad input")
    complements = [
        table.intervals[i]
        for table, mask in zip(tabs, masks)
        for i in _bits(table.complements(mask))
    ]
    if len(complements) != 1:
        raise ValueError(
            f"expected exactly one complement, found {len(complements)}"
        )
    return TiltingModule(base + (complements[0],))


def total_dim_vector(quiver: PathQuiver, tilt: TiltingModule) -> IntVector:
    """Dimension vector of a tilting module: sum of the summand indicators."""
    totals = [0] * len(quiver.vertices)
    for m in tilt.summands:
        for i, bit in enumerate(indicator(quiver, m.support)):
            totals[i] += bit
    return tuple(totals)
