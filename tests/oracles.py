"""Independent oracles and generators used only by the test suite.

These deliberately avoid the production code paths they check: the Hom
dimension is computed by exact Gaussian elimination on the commutation
system and Ext^1 as that Hom minus the Euler form (`ext_dim_linear`),
maximal rigid sets by Bron-Kerbosch, slice components by union-find, and
finiteness through the separated quiver's maximal single subquivers.
Counts, witnesses and slice rows are also kept as the plain scan over all
2^n sign vectors, each slice built as a quiver and classified afresh and
counted by `slice_count_scan`, as the reference for the factored slice
engine in `taudec.signdec`.

The interval layer over labelled type-A quivers lives here: `PathQuiver`
(a disjoint union of paths, split and ordered from its arrows),
`IntervalModule`, `TiltingModule`, `intervals`, `indicator` and
`euler_form`.  `components`, a depth-first split of neighbour lists into
sorted components, is the reference for the walks the package makes with
`quiver.breadth_first` alone.  `breadth_first_plan` orders the vertices of
that split as the sweep of `taudec.signdec` takes them, by its own walk.
`sign_slice_path_quiver` is the old slice pipeline
(`sign_subquiver`, `opposite`, `path_quiver`), the reference for the
paths and orientation words that `taudec.glue` reads off the slice
engine.  The tilting enumerator, the mutation quiver and Fac membership
are kept in their direct forms, which call `ext_dim_linear` on every pair
they need, as references for the rigidity tables of `taudec.repa`.  Their
table-reading forms (`tilting_modules`, `tilting_hasse`, `fac_contains`)
read each labelled path's orientation-word table through a
`LabelledTable`, which moves it into the labels' interval-key order.
`span_euler_form` is the Euler form of two position spans pair by pair,
the reference for the tables' bit-count Euler matrix, and `bits` lists
the set bits of a mask.  The
contiguity-checking interval factory (`interval`) has no caller in the
package and lives here with its tests.  The gluing arrows of the glued
Hasse quiver are rebuilt by completing each tilting module of a
vertex-deleted slice on both sides of the deleted vertex with a scanning
Bongartz completion, as the reference for pairing the open ends of one
mutation pass.

`glued_hasse_scan` is the glued Hasse quiver slice by slice: a labelled
table per path component, the slice's tilting modules as the product of
their lists (`tilting_modules`), one mutation pass over that product
(`tilting_hasse`) and dimension vectors summed over summands
(`total_dim_vector`).  It is the reference for `taudec.glue`, which reads
one table per path length through labelled views and takes products by
index arithmetic.

The exact integer matrix layer (Cartan matrices, sign diagonals, sink
reflections and `g_from_dim_vector`, the sign flip from a slice tilting
module's dimension vector to its g-vector) has no caller in the package,
where `taudec.glue` applies each node's signs to its dimension vector.
It is the reference for those g-vectors and for the matrix identities of
criterion 7.  `transposed` and `arrows_of_kind` are likewise called only
by tests, and `up_to_relabelling` lists the small corpus, one quiver per
relabelling class.  `two_term_tilting` scans the arrows for the two-term
rule on a sign vector, the reference for the two-term flag of
`SliceEngine.rows`.

`g_fan_check` reads only the JSON that `hasse` prints and checks it
against the g-vector fan (Adachi-Iyama-Reiten, Demonet-Iyama-Jasso), a
gate that does not go through the sign decomposition or the Euler form:
the fan's walls give every arrow, and its c-vectors give each arrow's
direction.  Its matrices are inverted over the integers by
`unimodular_inverse`.

The package's eight value classes are kept as the frozen dataclasses they
were (`ValuationTwin` and the rest, in `TWINS`), the reference for the
equality, hash, order, repr, field checks and immutability that
`taudec.quiver.Record` gives them; `twin_of` turns a value into its twin.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from operator import attrgetter, mul
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from taudec.brauer import IdentityCheck
from taudec.dynkin import _EXCEPTIONAL as EXCEPTIONAL
from taudec.dynkin import _FAMILIES as FAMILIES
from taudec.dynkin import NON_DYNKIN, DynkinType, catalan, classify, tilting_count
from taudec.glue import GLUING, INTERNAL, GluedHasse, HasseNode, UnsupportedComponentError
from taudec.quiver import (
    UNIT,
    Arrow,
    IntVector,
    QuiverError,
    SignVector,
    Valuation,
    ValuedGraph,
    ValuedQuiver,
    check_signs,
    format_signs,
    sign_subquiver,
)
from taudec.repa import RigidityTable, Span
from taudec.signdec import (
    INFINITE,
    Classified,
    Infinite,
    SliceEngine,
    count_support_tilting,
    enumerate_signs,
    finiteness_witness,
)


def components(neighbours: Mapping[int, Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of an undirected graph given by neighbour lists.

    Every vertex is a key of `neighbours` and every edge is listed at both
    ends.  Returns sorted vertex tuples, ordered by minimal vertex.
    """
    seen: set[int] = set()
    out = []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        out.append(tuple(comp))
    return tuple(out)


def breadth_first_plan(neighbours: Mapping[int, Collection[int]]) -> list[int]:
    """Every vertex in sweep order, each component of `components` in one run.

    A component is walked breadth first, neighbours by label, from its vertex
    of least (degree, label), and the components come in the order of those
    starts, by (degree, label) again.
    """
    def rank(v: int) -> tuple[int, int]:
        return len(neighbours[v]), v

    order = []
    for start in sorted((min(comp, key=rank) for comp in components(neighbours)), key=rank):
        walk, seen = [start], {start}
        for v in walk:  # the walk grows while it is read
            fresh = sorted(set(neighbours[v]) - seen)
            seen.update(fresh)
            walk += fresh
        order += walk
    return order


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


def transposed(val: Valuation) -> Valuation:
    """The valuation of the reversed arrow: (d'', d')."""
    return Valuation(val.d_dprime, val.d_prime)


def opposite(quiver: ValuedQuiver) -> ValuedQuiver:
    """Reverse all arrows, transposing each valuation."""
    return ValuedQuiver(
        quiver.n, tuple(Arrow(a.tgt, a.src, transposed(a.val)) for a in quiver.arrows)
    )


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


def path_word(path: Sequence[int], arrows: Iterable[tuple[int, int]]) -> tuple[bool, ...]:
    """A labelled path's orientation word: True where the arrow points along it."""
    arrows = set(arrows)
    return tuple((u, v) in arrows for u, v in zip(path, path[1:]))


@dataclass(frozen=True)
class IntervalModule:
    """Indecomposable module, identified by its contiguous support set."""

    support: frozenset[int]
    # (min, size, sorted support), the order of intervals throughout; set once
    key: tuple[int, int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.support))
        object.__setattr__(self, "key", (ordered[0], len(ordered), ordered))


_interval_key = attrgetter("key")


def interval_module(path: Sequence[int], span: tuple[int, int]) -> IntervalModule:
    """The interval module of a table's span (start, stop) on a labelled path."""
    return IntervalModule(frozenset(path[span[0]:span[1]]))


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
    pos = {v: i for i, v in enumerate(quiver.vertices)}
    total = sum(a * b for a, b in zip(x, y))
    for u, v in quiver.arrows:
        total -= x[pos[u]] * y[pos[v]]
    return total


@dataclass(frozen=True)
class TiltingModule:
    """Rigid module with one indecomposable summand per vertex, summands by key."""

    summands: tuple[IntervalModule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "summands", tuple(sorted(self.summands, key=_interval_key)))

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(m.support)) for m in self.summands)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def span_euler_form(word: Sequence[bool], x: Span, y: Span) -> int:
    """<dim x, dim y> of two position spans of an orientation word's path,
    pair by pair: the shared positions minus the arrows from x into y.  The
    reference for the bit-count Euler matrix of `RigidityTable`."""
    (a, b), (c, d) = x, y
    total = max(0, min(b, d) - max(a, c))
    for p, ahead in enumerate(word):
        u, v = (p, p + 1) if ahead else (p + 1, p)
        total -= a <= u < b and c <= v < d
    return total


class LabelledTable:
    """The rigidity table of a labelled path's orientation word, with its
    intervals, masks and tilting modules moved into interval-key order over
    the labels: the order a table built on the labels would hold.  Its
    complements scan is independent of the table's own mutation graph."""

    def __init__(
        self, path: tuple[int, ...], arrows: Iterable[tuple[int, int]],
        table: RigidityTable | None = None,
    ) -> None:
        # `table`, when given, is the prebuilt table of the path's orientation word
        table = table or RigidityTable(path_word(path, arrows))
        labelled = [interval_module(path, span) for span in table.spans]
        order = sorted(range(len(labelled)), key=lambda i: labelled[i].key)
        rank = {i: r for r, i in enumerate(order)}

        def move(mask: int) -> int:
            return sum(1 << rank[i] for i in bits(mask))

        self.intervals = tuple(labelled[i] for i in order)
        self.full = table.full
        self.ext_out = tuple(move(table.ext_out[i]) for i in order)
        self.rigid = tuple(move(table.rigid[i]) for i in order)
        self.tilting = tuple(sorted(map(move, table.tilting), key=lambda m: list(bits(m))))

    def ext_from(self, mask: int) -> int:
        """Intervals X with Ext^1(M, X) != 0 for some M in `mask`."""
        out = 0
        for i in bits(mask):
            out |= self.ext_out[i]
        return out

    def complements(self, base: int) -> int:
        """Intervals outside `base` that are rigid with every member of it."""
        allowed = self.full
        for i in bits(base):
            allowed &= self.rigid[i]
        return allowed & ~base


def rank_of(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by exact fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@cache
def hom_dim_linear(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> int:
    """Hom dimension by solving the commutation system as a linear system.

    One scalar unknown f_v per vertex carrying a stalk of both modules;
    one equation per arrow u -> v whose target space Hom(m_u, n_v) is
    non-zero, reading (n-side map) f_u - f_v (m-side map) = 0.
    """
    variables = [v for v in quiver.vertices if v in m.support and v in n.support]
    pos = {v: k for k, v in enumerate(variables)}
    rows = []
    for u, v in quiver.arrows:
        if u not in m.support or v not in n.support:
            continue
        row = [0] * len(variables)
        if u in pos and v in n.support:
            row[pos[u]] += 1
        if v in pos and u in m.support:
            row[pos[v]] -= 1
        if any(row):
            rows.append(row)
    return len(variables) - rank_of(rows)


def ext_dim_linear(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n>, Hom from the linear system."""
    return hom_dim_linear(quiver, m, n) - euler_form(
        quiver, indicator(quiver, m.support), indicator(quiver, n.support)
    )


def path_with_orientation(m: int, bits: int) -> PathQuiver:
    """Path on vertices 1..m; bit k flips the k-th edge to point left."""
    arrows = []
    for k in range(m - 1):
        if (bits >> k) & 1:
            arrows.append((k + 2, k + 1))
        else:
            arrows.append((k + 1, k + 2))
    return PathQuiver(tuple(range(1, m + 1)), tuple(arrows))


def all_orientations(m: int):
    for bits in range(2 ** max(0, m - 1)):
        yield path_with_orientation(m, bits)


def brute_maximal_rigid(quiver: PathQuiver) -> list[frozenset[IntervalModule]]:
    """All inclusion-maximal rigid sets of intervals, via Bron-Kerbosch."""
    ivs = list(intervals(quiver))
    k = len(ivs)
    neighbour = [
        {
            j
            for j in range(k)
            if i != j
            and ext_dim_linear(quiver, ivs[i], ivs[j]) == 0
            and ext_dim_linear(quiver, ivs[j], ivs[i]) == 0
        }
        for i in range(k)
    ]
    maximal: list[frozenset[IntervalModule]] = []

    def expand(clique: set[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            maximal.append(frozenset(ivs[i] for i in clique))
            return
        for v in sorted(candidates):
            expand(clique | {v}, candidates & neighbour[v], excluded & neighbour[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(k)), set())
    return maximal


def random_bipartite(rng: random.Random, max_n: int = 8, max_val: int = 3):
    """Random source/sink-oriented valued quiver with its sign witness."""
    n = rng.randint(1, max_n)
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if signs[i - 1] == 1 and signs[j - 1] == -1 and rng.random() < 0.5:
                arrows.append(
                    Arrow(i, j, Valuation(rng.randint(1, max_val), rng.randint(1, max_val)))
                )
    return ValuedQuiver(n, tuple(arrows)), signs


def random_quiver(rng: random.Random, max_n: int = 5, max_val: int = 2) -> ValuedQuiver:
    """Random valued quiver, loops included."""
    n = rng.randint(1, max_n)
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.3:
                arrows.append(
                    Arrow(i, j, Valuation(rng.randint(1, max_val), rng.randint(1, max_val)))
                )
    return ValuedQuiver(n, tuple(arrows))


def random_type_a(rng: random.Random, max_n: int = 5) -> ValuedQuiver:
    """A path or cycle, sometimes beside a second one, relabelled as a whole.

    Each edge points one way or both ways and any vertex may carry a loop,
    so every sign slice is a union of type-A paths unless it keeps a whole
    even cycle.
    """
    arrows: list[Arrow] = []
    n = 0
    for _ in range(rng.choice((1, 1, 2))):
        size = rng.randint(1, max_n)
        cycle = size >= 3 and rng.random() < 0.5
        for u in range(1, size + cycle):
            v = u % size + 1
            way = rng.choice(("->", "<-", "<->"))
            if way != "<-":
                arrows.append(Arrow(n + u, n + v))
            if way != "->":
                arrows.append(Arrow(n + v, n + u))
        arrows += [Arrow(n + v, n + v) for v in range(1, size + 1) if rng.random() < 0.3]
        n += size
    images = rng.sample(range(1, n + 1), n)
    return relabelled(ValuedQuiver(n, tuple(arrows)), images)


def separated_quiver(quiver: ValuedQuiver) -> ValuedQuiver:
    """Separated quiver on 2n vertices: arrow i->j becomes i -> n+j."""
    n = quiver.n
    return ValuedQuiver(
        2 * n, tuple(Arrow(a.src, n + a.tgt, a.val) for a in quiver.arrows)
    )


def source_sink_signs(quiver: ValuedQuiver) -> SignVector | None:
    """Sign vector +1 on sources, -1 on sinks, when the quiver is bipartite.

    Returns None as soon as some vertex has both incoming and outgoing
    arrows (a loop counts as both).  Isolated vertices get +1.
    """
    has_out = {a.src for a in quiver.arrows}
    has_in = {a.tgt for a in quiver.arrows}
    signs = []
    for v in quiver.vertices:
        if v in has_out and v in has_in:
            return None
        signs.append(-1 if v in has_in else 1)
    return tuple(signs)


def two_term_tilting(quiver: ValuedQuiver, signs: Sequence[int]) -> bool:
    """Whether the two-term silting complexes in this sign class are tilting.

    True exactly when no arrow runs from a -1 vertex to a +1 vertex; for a
    radical-square-zero algebra those arrows span the obstruction space.
    """
    signs = check_signs(signs, quiver.n)
    return not any(
        signs[a.src - 1] == -1 and signs[a.tgt - 1] == 1 for a in quiver.arrows
    )


def union_find_groups(
    vertices: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Vertex groups joined by the pairs, by union-find; sorted by minimal vertex."""
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in sorted(parent):
        groups.setdefault(find(v), []).append(v)
    return [g for _, g in sorted(groups.items())]


def underlying_graph(quiver: ValuedQuiver) -> ValuedGraph:
    """The whole slice's valued graph, built arrow by arrow.

    Only defined for loop-free quivers without 2-cycles.
    """
    edges: list[tuple[int, int, tuple[int, int]]] = []
    pairs: set[tuple[int, int]] = set()
    for a in quiver.arrows:
        if a.src == a.tgt:
            raise QuiverError(f"loop at vertex {a.src} has no underlying edge")
        key = (min(a.src, a.tgt), max(a.src, a.tgt))
        if key in pairs:
            raise QuiverError(f"arrows both ways between {key[0]} and {key[1]}")
        pairs.add(key)
        edges.append((key[0], key[1], a.val.unordered()))
    return ValuedGraph(tuple(quiver.vertices), tuple(edges))


def graph_components_union_find(quiver: ValuedQuiver) -> tuple[ValuedGraph, ...]:
    """Components of underlying_graph as induced subgraphs, via union-find."""
    graph = underlying_graph(quiver)
    out = []
    for verts in union_find_groups(graph.vertices, ((u, v) for u, v, _ in graph.edges)):
        vset = set(verts)
        out.append(ValuedGraph(tuple(verts), tuple(e for e in graph.edges if e[0] in vset)))
    return tuple(out)


def graph_components(quiver: ValuedQuiver) -> tuple[ValuedGraph, ...]:
    """Underlying valued graph, one induced subgraph per connected component.

    Orientation is forgotten and valuations become unordered pairs;
    components are sorted by minimal vertex.  Only defined for loop-free
    quivers without 2-cycles, i.e. the output of sign_subquiver.
    """
    neighbours: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    edges: list[tuple[int, int, tuple[int, int]]] = []
    for a in quiver.arrows:
        u, v = a.src, a.tgt
        if u == v:
            raise QuiverError(f"loop at vertex {u} has no underlying edge")
        if u > v:
            u, v = v, u
        if v in neighbours[u]:
            raise QuiverError(f"arrows both ways between {u} and {v}")
        neighbours[u].append(v)
        neighbours[v].append(u)
        edges.append((u, v, a.val.unordered()))
    comps = components(neighbours)
    index = {v: k for k, comp in enumerate(comps) for v in comp}
    comp_edges: list[list] = [[] for _ in comps]
    for e in edges:
        comp_edges[index[e[0]]].append(e)
    return tuple(ValuedGraph(c, tuple(es)) for c, es in zip(comps, comp_edges))


def sign_slice_components_scan(
    quiver: ValuedQuiver, signs: Sequence[int]
) -> tuple[tuple[ValuedGraph, DynkinType], ...]:
    """One slice built as a quiver, split into graphs and classified afresh."""
    return tuple(
        (comp, classify(comp)) for comp in graph_components(sign_subquiver(quiver, signs))
    )


def count_support_tilting_scan(quiver: ValuedQuiver) -> int | Infinite:
    """The count summed over all 2^n sign vectors of the whole quiver."""
    total = 0
    for signs in enumerate_signs(quiver.n):
        part = slice_count_scan(sign_slice_components_scan(quiver, signs))
        if isinstance(part, Infinite):
            return INFINITE
        total += part
    return total


def finiteness_witness_scan(
    quiver: ValuedQuiver,
) -> tuple[SignVector, ValuedGraph] | None:
    """The first non-Dynkin slice component over all 2^n sign vectors."""
    for signs in enumerate_signs(quiver.n):
        for comp, dynkin in sign_slice_components_scan(quiver, signs):
            if not dynkin.is_dynkin:
                return signs, comp
    return None


def component_quivers(quiver: ValuedQuiver) -> Iterator[tuple[list[int], ValuedQuiver]]:
    """Each weakly connected component's vertices, by union-find and by minimal
    vertex, with the sub-quiver on them relabelled 1..k in increasing order."""
    for group in union_find_groups(quiver.vertices, ((a.src, a.tgt) for a in quiver.arrows)):
        label = {v: k for k, v in enumerate(group, 1)}
        arrows = tuple(Arrow(label[a.src], label[a.tgt], a.val)
                       for a in quiver.arrows if a.src in label)
        yield group, ValuedQuiver(len(group), arrows)


def count_by_components(quiver: ValuedQuiver) -> int | Infinite:
    """The count as the product of each component's sub-quiver count: the
    per-component reference that the one-pass sweep replaced."""
    total = 1
    for _, sub in component_quivers(quiver):
        count = count_support_tilting(sub)
        if count is INFINITE:
            return INFINITE
        total *= count
    return total


def witness_by_components(quiver: ValuedQuiver) -> tuple[SignVector, ValuedGraph] | None:
    """The first witness as the least of the components' own first witnesses,
    each with +1 outside its component: the per-component reference that the
    one-pass sweep replaced."""
    found = []
    for group, sub in component_quivers(quiver):
        witness = finiteness_witness(sub)
        if witness is not None:
            signs, graph = [1] * quiver.n, witness[1]
            for v, s in zip(group, witness[0]):
                signs[v - 1] = s
            edges = tuple((group[u - 1], group[v - 1], val) for u, v, val in graph.edges)
            found.append((tuple(signs), ValuedGraph(tuple(group[v - 1] for v in graph.vertices), edges)))
    # negated vectors compare in enumerate_signs order, +1 before -1
    return min(found, key=lambda w: tuple(-s for s in w[0]), default=None)


def oriented_path_count(forward: Sequence[bool]) -> int:
    """The count of the path 1 - 2 - ... - n, edge k pointing right when forward[k].

    Every slice is a union of type-A paths, so a sign class counts the
    product of catalan(size) over its runs of joined vertices.  One pass
    along the path keeps, per sign of the last vertex and length of its
    run, the summed counts of the closed runs before it.
    """
    runs = {(1, 1): 1, (-1, 1): 1}
    for right in forward:
        nxt: dict[tuple[int, int], int] = {}
        for (last, length), weight in runs.items():
            for sign in (1, -1):
                joined = last != sign and (last == 1) == right
                key = (sign, length + 1) if joined else (sign, 1)
                closed = 1 if joined else catalan(length)
                nxt[key] = nxt.get(key, 0) + weight * closed
        runs = nxt
    return sum(weight * catalan(length) for (_, length), weight in runs.items())


def disjoint_union(first: ValuedQuiver, second: ValuedQuiver) -> ValuedQuiver:
    """Both quivers side by side; the second's vertices follow the first's."""
    shifted = tuple(Arrow(a.src + first.n, a.tgt + first.n, a.val) for a in second.arrows)
    return ValuedQuiver(first.n + second.n, first.arrows + shifted)


def relabelled(quiver: ValuedQuiver, images: Sequence[int]) -> ValuedQuiver:
    """Vertex v renamed images[v - 1]; images is a permutation of 1..n."""
    return ValuedQuiver(
        quiver.n,
        tuple(Arrow(images[a.src - 1], images[a.tgt - 1], a.val) for a in quiver.arrows),
    )


def up_to_relabelling(n: int, choices) -> list[ValuedQuiver]:
    """One quiver on 1..n per relabelling class, each ordered pair of distinct
    vertices taking one of `choices`: a valuation, or None for no arrow."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    slot = {pair: k for k, pair in enumerate(pairs)}
    moves = [[slot[image[i], image[j]] for i, j in pairs] for image in permutations(range(n))]
    members = []
    for code in product(range(len(choices)), repeat=len(pairs)):
        moved = [[0] * len(pairs) for _ in moves]
        for move, out in zip(moves, moved):
            for k, c in zip(move, code):
                out[k] = c
        if list(code) == min(moved):
            arrows = tuple(Arrow(i + 1, j + 1, choices[c]) for (i, j), c in zip(pairs, code)
                           if choices[c] is not None)
            members.append(ValuedQuiver(n, arrows))
    return members


CORPUS_VALUATIONS = (None, Valuation(1, 1), Valuation(1, 2), Valuation(2, 1), Valuation(2, 2))


@cache
def small_corpus(sizes: tuple[int, ...] = (1, 2, 3, 4)) -> tuple[ValuedQuiver, ...]:
    """The small corpus on each of `sizes` vertices, in that order, one quiver
    per relabelling class: valued by CORPUS_VALUATIONS on at most 3 vertices
    (1 + 15 + 2675 members), digraphs on 4 (218)."""
    return tuple([quiver for n in sizes
                  for quiver in up_to_relabelling(n, CORPUS_VALUATIONS if n <= 3 else (None, UNIT))])


def first_non_a_row(quiver: ValuedQuiver) -> str | None:
    """The signs text of the first `SliceEngine.rows()` row with a component
    not of type A, where `glued_hasse` stops; None if there is none."""
    return next((text for text, parts, _ in SliceEngine(quiver).rows()
                 if any(dynkin.family != "A" for _, dynkin, _ in parts)), None)


def finite_by_separated_quiver(quiver: ValuedQuiver) -> bool:
    """Finiteness via maximal single subquivers of the separated quiver."""
    sep = separated_quiver(quiver)
    n = quiver.n
    for signs in product((1, -1), repeat=n):
        chosen = {i if signs[i - 1] == 1 else n + i for i in range(1, n + 1)}
        edges = [
            (a.src, a.tgt, a.val.unordered())
            for a in sep.arrows
            if a.src in chosen and a.tgt in chosen
        ]
        for verts in union_find_groups(chosen, ((u, v) for u, v, _ in edges)):
            vset = set(verts)
            comp = ValuedGraph(tuple(verts), tuple(e for e in edges if e[0] in vset))
            if not classify(comp).is_dynkin:
                return False
    return True


def rigid(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> bool:
    return ext_dim_linear(quiver, m, n) == 0 and ext_dim_linear(quiver, n, m) == 0


def tilting_modules_scan(quiver: PathQuiver) -> tuple[TiltingModule, ...]:
    """Tilting modules by backtracking over a compatibility graph built inline."""
    per_component: list[list[tuple[IntervalModule, ...]]] = []
    for path in quiver.paths:
        path_set = set(path)
        ivs = [m for m in intervals(quiver) if m.support <= path_set]
        need = len(path)
        masks = [0] * len(ivs)
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                if rigid(quiver, ivs[i], ivs[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        found: list[tuple[IntervalModule, ...]] = []

        def extend(start: int, chosen: list[int], allowed: int) -> None:
            if len(chosen) == need:
                found.append(tuple(ivs[i] for i in chosen))
                return
            if (allowed >> start).bit_count() < need - len(chosen):
                return
            for k in range(start, len(ivs)):
                if (allowed >> k) & 1:
                    chosen.append(k)
                    extend(k + 1, chosen, allowed & masks[k])
                    chosen.pop()

        extend(0, [], (1 << len(ivs)) - 1)
        per_component.append(found)
    return tuple(
        TiltingModule(tuple(m for part in combo for m in part))
        for combo in product(*per_component)
    )


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


def fac_contains(
    quiver: PathQuiver,
    tilt: TiltingModule,
    x: IntervalModule,
    tables: RigidityTables | None = None,
) -> bool:
    """Whether x lies in the torsion class generated by a tilting module, by
    the rigidity tables that mutation reads.

    For tilting T over a hereditary algebra, Fac T = {X : Ext^1(T, X) = 0}.
    """
    tabs = _tables(quiver, tables)
    masks = zip(tabs, _masks(tabs, tilt.summands), _masks(tabs, (x,)))
    return not any(table.ext_from(mask) & target for table, mask, target in masks)


def fac_contains_scan(quiver: PathQuiver, tilt: TiltingModule, x: IntervalModule) -> bool:
    """Fac T = {X : Ext^1(T, X) = 0}, one ext_dim_linear per summand."""
    return all(ext_dim_linear(quiver, t, x) == 0 for t in tilt.summands)


def tilting_hasse_pairs(
    quiver: PathQuiver, modules: Sequence[TiltingModule]
) -> tuple[tuple[int, int], ...]:
    """Mutation arrows by scanning all pairs for sets differing in one summand."""
    edges: list[tuple[int, int]] = []
    summand_sets = [set(t.summands) for t in modules]
    for i in range(len(modules)):
        for j in range(i + 1, len(modules)):
            diff = summand_sets[i] ^ summand_sets[j]
            if len(diff) != 2:
                continue
            (xi,) = diff & summand_sets[i]
            (xj,) = diff & summand_sets[j]
            forward = fac_contains_scan(quiver, modules[i], xj)
            backward = fac_contains_scan(quiver, modules[j], xi)
            assert forward != backward, "incomparable torsion classes"
            edges.append((i, j) if forward else (j, i))
    return tuple(edges)


def bongartz_complete_scan(
    quiver: PathQuiver, summands: Iterable[IntervalModule], missing: int
) -> TiltingModule:
    """The unique complement found by scanning every interval of the quiver."""
    base = tuple(set(summands))
    complements = [
        x
        for x in intervals(quiver)
        if x not in base and all(rigid(quiver, x, m) for m in base)
    ]
    assert len(complements) == 1, f"{len(complements)} complements"
    return TiltingModule(base + (complements[0],))


def hasse_nodes(quiver: ValuedQuiver) -> tuple[HasseNode, ...]:
    """All nodes, ordered by sign vector then by the tilting enumerator."""
    out: list[HasseNode] = []
    for signs in enumerate_signs(quiver.n):
        slice_quiver = sign_slice_path_quiver(quiver, signs)
        for tilt in tilting_modules(slice_quiver):
            g = g_from_dim_vector(signs, total_dim_vector(slice_quiver, tilt))
            out.append(HasseNode(signs, tilt.supports(), g))
    return tuple(out)


def delete_vertex(quiver: PathQuiver, v: int) -> PathQuiver:
    """The path quiver without vertex v and its arrows."""
    if v not in quiver.vertices:
        raise ValueError(f"vertex {v} not in the quiver")
    return PathQuiver(
        tuple(w for w in quiver.vertices if w != v),
        tuple(a for a in quiver.arrows if v not in a),
    )


def gluing_arrows(quiver: ValuedQuiver) -> tuple[tuple[HasseNode, HasseNode], ...]:
    """The cross-sign arrows of the glued Hasse quiver, as node pairs.

    For every sign vector and every +1 coordinate v, each tilting module
    of the slice without v is completed by a scan in the slice above and
    in the slice below, where v is -1; the two completions are joined.
    Arrows come by upper sign vector, then v, then the enumeration order
    of the slice without v.
    """
    n = quiver.n
    slices = {signs: sign_slice_path_quiver(quiver, signs) for signs in enumerate_signs(n)}

    def node(signs: SignVector, tilt: TiltingModule) -> HasseNode:
        g = g_from_dim_vector(signs, total_dim_vector(slices[signs], tilt))
        return HasseNode(signs, tilt.supports(), g)

    out = []
    for upper in enumerate_signs(n):
        for coord in range(n):
            if upper[coord] != 1:
                continue
            lower = upper[:coord] + (-1,) + upper[coord + 1:]
            vertex = coord + 1
            deleted = delete_vertex(slices[upper], vertex)
            assert deleted == delete_vertex(slices[lower], vertex), "slices disagree"
            for shared in tilting_modules_scan(deleted):
                top = bongartz_complete_scan(slices[upper], shared.summands, vertex)
                bottom = bongartz_complete_scan(slices[lower], shared.summands, vertex)
                out.append((node(upper, top), node(lower, bottom)))
    return tuple(out)


def slice_count_scan(parts: Iterable[Classified]) -> int | Infinite:
    """Product of the per-type tilting counts of classified slice components."""
    total = 1
    for _, dynkin in parts:
        if not dynkin.is_dynkin:
            return INFINITE
        total *= tilting_count(dynkin)
    return total


def matching_determinant(size: int, edges: Sequence[tuple[int, int, tuple[int, int]]]) -> int:
    """det(2I - A) of a forest on `size` vertices with A_uv^2 = lo * hi on each
    edge (u, v, (lo, hi)).  Only fixed points and transpositions along edges
    survive in the permutation sum, so it is the sum over matchings M of
    (-1)^|M| 2^(size - 2|M|) times the product of lo * hi over M."""
    total = 0

    def extend(start: int, used: frozenset, pairs: int, weight: int) -> None:
        nonlocal total
        total += (-1) ** pairs * 2 ** (size - 2 * pairs) * weight
        for i in range(start, len(edges)):
            u, v, (lo, hi) = edges[i]
            if u not in used and v not in used:
                extend(i + 1, used | {u, v}, pairs + 1, weight * lo * hi)

    extend(0, frozenset(), 0, 1)
    return total


def dynkin_by_minors(graph: ValuedGraph) -> DynkinType:
    """The type of a connected valued graph from determinants alone, calling
    neither `classify` nor `tilting_count`.

    A connected graph is Dynkin exactly when it has no cycle and 2I - A is
    positive definite, that is when every leading minor in breadth-first
    order is positive (Sylvester); on a tree each minor is a
    `matching_determinant`.  The rank, the determinant and whether every
    edge is unit then fix the type: det is n + 1 for A_n, 4 for D_n, 3, 2
    and 1 for E6, E7 and E8, 2 for BC_n, and 1 for F4 and G2.
    """
    verts, edges = graph.vertices, graph.edges
    if len(edges) != len(verts) - 1:
        return NON_DYNKIN
    neighbours: dict[int, list[int]] = {v: [] for v in verts}
    for u, v, _ in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    order = [verts[0]]
    for v in order:
        order += [u for u in neighbours[v] if u not in order]
    for size in range(1, len(verts) + 1):
        inside = set(order[:size])
        det = matching_determinant(size, [e for e in edges if e[0] in inside and e[1] in inside])
        if det <= 0:
            return NON_DYNKIN
    if all(val == (1, 1) for *_, val in edges):
        family = "A" if det == len(verts) + 1 else "D" if det == 4 else "E"
    else:
        family = "BC" if det == 2 else "F" if len(verts) == 4 else "G"
    return DynkinType(family, len(verts))


# exponents of the exceptional types (Bourbaki's tables)
EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11), "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29), "F4": (1, 5, 7, 11), "G2": (1, 5),
}


def positive_catalan(dynkin: DynkinType) -> int:
    """The positive Catalan number, the product of (h + e - 1) / (e + 1) over
    the exponents e, with Coxeter number h one more than the largest
    (Fomin-Zelevinsky 2003): the number of tilting modules of the type."""
    family, rank = dynkin.family, dynkin.rank
    if family == "A":
        exponents = tuple(range(1, rank + 1))
    elif family == "BC":
        exponents = tuple(range(1, 2 * rank, 2))
    elif family == "D":
        exponents = tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)
    else:
        exponents = EXCEPTIONAL_EXPONENTS[str(dynkin)]
    h = max(exponents) + 1
    value = Fraction(1)
    for e in exponents:
        value *= Fraction(h + e - 1, e + 1)
    assert value.denominator == 1, dynkin
    return value.numerator


# Label-keyed rigidity tables shared between calls: (path, arrows) -> table.
RigidityTables = dict[
    tuple[tuple[int, ...], tuple[tuple[int, int], ...]], LabelledTable
]


def _tables(
    quiver: PathQuiver, tables: RigidityTables | None
) -> tuple[LabelledTable, ...]:
    """The table of each path component, on its labels, in path order."""
    if tables is None:
        tables = {}
    out = []
    for path in quiver.paths:
        on_path = set(path)
        arrows = tuple(a for a in quiver.arrows if a[0] in on_path)
        table = tables.get((path, arrows))
        if table is None:
            table = tables[path, arrows] = LabelledTable(path, arrows)
        out.append(table)
    return tuple(out)


def _masks(
    tabs: Sequence[LabelledTable], modules: Iterable[IntervalModule]
) -> tuple[int, ...]:
    """Per-component position masks of a set of interval modules."""
    masks = [0] * len(tabs)
    for m in modules:
        for c, table in enumerate(tabs):
            if m in table.intervals:
                masks[c] |= 1 << table.intervals.index(m)
                break
        else:
            raise ValueError(f"{m!r} is not a module over this quiver")
    return tuple(masks)


def tilting_modules(
    quiver: PathQuiver, tables: RigidityTables | None = None
) -> tuple[TiltingModule, ...]:
    """All tilting modules: per component from its table, combined as products."""
    per_component = [
        [tuple(table.intervals[i] for i in bits(mask)) for mask in table.tilting]
        for table in _tables(quiver, tables)
    ]
    return tuple(
        TiltingModule(tuple(m for part in combo for m in part))
        for combo in product(*per_component)
    )


def tilting_hasse(
    quiver: PathQuiver,
    modules: Sequence[TiltingModule] | None = None,
    tables: RigidityTables | None = None,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, IntervalModule], ...]]:
    """Mutation arrows between tilting modules, and the open ends.

    Each module of `modules` (by default tilting_modules(quiver)) is
    mutated at each summand over the whole slice; the modules holding the
    other complements are looked up by their summand positions.  Arrows
    point towards the smaller torsion class and are ordered by their
    index pair.  An open end is a (module index, summand) pair whose rest
    has no other complement; open ends are listed by module index.
    """
    if tables is None:
        tables = {}
    if modules is None:
        modules = tilting_modules(quiver, tables)
    tabs = _tables(quiver, tables)
    keys = [_masks(tabs, t.summands) for t in modules]
    position = {key: k for k, key in enumerate(keys)}
    pairs: list[tuple[int, int, bool]] = []
    open_ends: list[tuple[int, IntervalModule]] = []
    for i, key in enumerate(keys):
        for c, (table, mask) in enumerate(zip(tabs, key)):
            not_fac = table.ext_from(mask)
            for x in bits(mask):
                rest = mask & ~(1 << x)
                others = table.complements(rest) & ~mask
                if not others:
                    open_ends.append((i, table.intervals[x]))
                for y in bits(others):
                    other = rest | 1 << y
                    j = position.get(key[:c] + (other,) + key[c + 1:])
                    if j is None or j < i:
                        continue
                    forward = not (not_fac >> y) & 1
                    backward = not (table.ext_from(other) >> x) & 1
                    assert forward != backward, "incomparable torsion classes"
                    pairs.append((i, j, forward))
    pairs.sort()
    arrows = tuple((i, j) if forward else (j, i) for i, j, forward in pairs)
    return arrows, tuple(open_ends)


def total_dim_vector(quiver: PathQuiver, tilt: TiltingModule) -> IntVector:
    """Dimension vector of a tilting module: sum of the summand indicators."""
    totals = [0] * len(quiver.vertices)
    for m in tilt.summands:
        for i, bit in enumerate(indicator(quiver, m.support)):
            totals[i] += bit
    return tuple(totals)


def _slice_nodes(
    signs: SignVector, slice_quiver: PathQuiver, modules: Sequence[TiltingModule]
) -> list[HasseNode]:
    nodes = []
    for tilt in modules:
        g = g_from_dim_vector(signs, total_dim_vector(slice_quiver, tilt))
        assert all(gi * si > 0 for gi, si in zip(g, signs)), "sign law"
        nodes.append(HasseNode(signs, tilt.supports(), g))
    return nodes


def _rest_order(slice_quiver: PathQuiver, v: int, rest: Sequence[IntervalModule]) -> tuple:
    """Sort key of `rest` among the tilting modules of the slice without v:
    the product order over its paths by minimal vertex, each part by the
    sorted interval keys of its summands."""
    part_of: dict[int, int] = {}
    for path in slice_quiver.paths:
        cut = path.index(v) if v in path else len(path)
        for part in (path[:cut], path[cut + 1:]):
            for w in part:
                part_of[w] = min(part)
    return tuple(sorted((part_of[min(m.support)], _interval_key(m)) for m in rest))


def glued_hasse_scan(quiver: ValuedQuiver) -> GluedHasse:
    """The glued Hasse quiver slice by slice, in `glued_hasse`'s order.

    Each slice's modules come from `tilting_modules` and its internal
    arrows and open ends from `tilting_hasse`; open ends pair up by
    (signs without v, v, rest) and gluing arrows follow the upper sign
    vector, then v, then `_rest_order`.
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
            for v in summand.support.difference(*(m.support for m in rest)):
                side = signs[v - 1]
                order = (rank, v, _rest_order(slice_quiver, v, rest)) if side == 1 else ()
                key = (signs[:v - 1] + signs[v:], v, rest)
                ends.setdefault(key, []).append((side, order, offset + i))
    gluing = []
    for (others, v, _), pair in ends.items():
        pair.sort(reverse=True)
        upper = format_signs(others[:v - 1] + (1,) + others[v - 1:])
        assert [side for side, _, _ in pair] == [1, -1], f"unpaired ends below {upper} at {v}"
        (_, order, top), (_, _, bottom) = pair
        gluing.append((order, top, bottom))
    gluing.sort()
    arrows.extend((top, bottom, GLUING) for _, top, bottom in gluing)
    return GluedHasse(tuple(nodes), tuple(arrows))


def arrows_of_kind(hasse: GluedHasse, kind: str) -> tuple[tuple[int, int], ...]:
    """The (from, to) pairs of the Hasse arrows of one kind, in order."""
    return tuple((a, b) for a, b, k in hasse.arrows if k == kind)


# Exact integer matrices: Cartan matrices, sign diagonals, sink reflections.
# Matrices are dense tuples of tuples of Python ints; sizes stay tiny, so
# exactness wins over any numeric library.

IntMatrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def diagonal_matrix(entries: Sequence[int]) -> IntMatrix:
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(a: IntMatrix, x: Sequence[int]) -> IntVector:
    return tuple(sum(row[k] * x[k] for k in range(len(x))) for row in a)


def _assert_acyclic(quiver: ValuedQuiver) -> None:
    outgoing: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    indegree = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        if a.src == a.tgt:
            raise QuiverError(f"loop at vertex {a.src}; quiver is not hereditary")
        outgoing[a.src].append(a.tgt)
        indegree[a.tgt] += 1
    queue = [v for v in quiver.vertices if indegree[v] == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in outgoing[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if removed != quiver.n:
        raise QuiverError("oriented cycle; quiver is not hereditary")


def cartan_matrix(quiver: ValuedQuiver) -> IntMatrix:
    """Cartan matrix of the presented hereditary algebra.

    Column i is e_i plus d'_{ij} e_j over the arrows i -> j (the radical of
    the i-th projective is semisimple).  Requires a loop-free acyclic quiver.
    """
    _assert_acyclic(quiver)
    n = quiver.n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in quiver.arrows:
        rows[a.tgt - 1][a.src - 1] = a.val.d_prime
    return tuple(tuple(row) for row in rows)


def sign_diagonal(signs: Sequence[int]) -> IntMatrix:
    """Diagonal matrix of a +/-1 vector; an involution."""
    signs = check_signs(signs, len(signs))
    return diagonal_matrix(signs)


def reflect_at(quiver: ValuedQuiver, a: int, x: Sequence[int]) -> IntVector:
    """Reflection of an integer vector at a sink: negate there, add weighted inflow."""
    if not 1 <= a <= quiver.n:
        raise QuiverError(f"vertex {a} outside 1..{quiver.n}")
    if len(x) != quiver.n:
        raise QuiverError(f"vector has length {len(x)}, expected {quiver.n}")
    if any(arrow.src == a for arrow in quiver.arrows):
        raise QuiverError(f"vertex {a} is not a sink")
    y = list(x)
    y[a - 1] = -x[a - 1] + sum(
        arrow.val.d_prime * x[arrow.src - 1]
        for arrow in quiver.arrows
        if arrow.tgt == a
    )
    return tuple(y)


def sink_reflection_matrix(quiver: ValuedQuiver, signs: Sequence[int]) -> IntMatrix:
    """Matrix of the simultaneous reflection at all -1 vertices.

    The sign vector must orient the quiver source-to-sink: every arrow
    runs from a +1 vertex to a -1 vertex (so -1 vertices are sinks and the
    reflections commute).  Equals the Cartan matrix times the sign diagonal.
    """
    signs = check_signs(signs, quiver.n)
    for arrow in quiver.arrows:
        if signs[arrow.src - 1] != 1 or signs[arrow.tgt - 1] != -1:
            raise QuiverError(
                f"arrow {arrow.src}->{arrow.tgt} violates the source/sink signs"
            )
    return mat_mul(cartan_matrix(quiver), sign_diagonal(signs))


def g_from_dim_vector(signs: Sequence[int], c: Sequence[int]) -> IntVector:
    """g-vector from a dimension vector: flip the sign of each -1 coordinate.

    This coordinatewise involution translates dimension vectors of tilting
    modules over a sign slice into g-vectors of the support tilting
    modules they index, and back.
    """
    signs = check_signs(signs, len(signs))
    if len(c) != len(signs):
        raise QuiverError(f"length mismatch: {len(c)} vs {len(signs)}")
    return tuple(s * x for s, x in zip(signs, c))


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> IntMatrix | None:
    """The integer inverse of a square integer matrix of determinant +-1, or
    None when the determinant is anything else.

    Integer row operations (swaps, negations, adding integer multiples of a
    row) reduce the matrix to the identity exactly when its determinant is
    +-1: Euclid down each column leaves the gcd of the column below the
    finished rows as pivot, and that gcd divides the determinant.  The same
    operations turn the identity into the inverse."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return None
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        while True:
            live = [r for r in range(c, n) if a[r][c]]
            if not live:
                return None
            p = min(live, key=lambda r: abs(a[r][c]))
            a[c], a[p] = a[p], a[c]
            for r in range(c + 1, n):
                q = a[r][c] // a[c][c]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[c])]
            if not any(a[r][c] for r in range(c + 1, n)):
                break
        if abs(a[c][c]) != 1:
            return None
        a[c] = [a[c][c] * x for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                q = a[r][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def g_fan_check(json_text: str) -> None:
    """Check `hasse --format json` against the g-vector fan, without the sign
    decomposition; raises AssertionError naming the first failure.

    A type-A slice summand's g-vector is the node's `eps` applied to the
    indicator of its support.  By Adachi-Iyama-Reiten (2014) the summand
    g-vectors of each node form a Z-basis and a mutation exchanges exactly
    one of them; by Demonet-Iyama-Jasso (2019) the cones of a tau-tilting
    finite algebra form a complete fan.  So: every node's summand matrix
    has determinant +-1 and its rows sum to the node's `g`; the basis e_i
    and the basis -e_i are nodes; and each of 40 seeded random points of
    [-10^6, 10^6]^n has a non-zero coordinate in every node's basis, all
    exact integers, and positive coordinates in exactly one of them.

    The fan also decides every arrow and its direction.  The columns of a
    node's inverse matrix are its c-vectors, one per summand, and each is
    >= 0 or <= 0 (sign-coherence: Treffinger 2019, Fu 2017).  Every n - 1
    summand g-vectors of a node are shared by exactly one other node, its
    neighbour across that wall (two completions of an almost complete
    pair, Adachi-Iyama-Reiten 2014, Theorem 2.18), and the arrows join
    exactly these pairs, once each.  An arrow leaves the node where the
    exchanged summand's c-vector is positive and enters the one where it
    is negative, and it is `gluing` exactly when its ends' `eps` differ.
    The arrows are acyclic, with one source, the basis e_i, and one sink,
    the basis -e_i.
    """
    payload = json.loads(json_text)
    nodes, arrows = payload["nodes"], payload["arrows"]
    matrices, bases, c_vectors = [], [], []
    for node in nodes:
        eps = node["eps"]
        basis = [tuple(eps[v - 1] if v in support else 0 for v in range(1, len(eps) + 1))
                 for support in map(set, node["summand_supports"])]
        inverse = unimodular_inverse(basis)
        assert inverse is not None, f"node {node['id']}: determinant is not +-1"
        g = tuple(map(sum, zip(*basis)))
        assert g == tuple(node["g"]), f"node {node['id']}: summand g-vectors sum to {g}"
        matrices.append(basis)
        bases.append(frozenset(basis))
        c_vectors.append(list(zip(*inverse)))
    n = len(nodes[0]["eps"])
    units = {
        sign: frozenset(tuple(sign * (i == j) for j in range(n)) for i in range(n))
        for sign in (1, -1)
    }
    for sign, unit in units.items():
        assert unit in bases, f"no node has the summand g-vectors {sign:+d}e_i"
    # coordinate j in a basis is x . (c-vector j): a wall's normal, kept once
    # up to sign for all the cones that share its hyperplane
    normals: dict[tuple[int, ...], int] = {}
    cones = []
    for columns in c_vectors:
        cone = set()
        for column in columns:
            sign = 1 if next(c for c in column if c) > 0 else -1
            cone.add((normals.setdefault(tuple(sign * c for c in column), len(normals)), sign))
        cones.append(cone)
    rng = random.Random(0)
    for _ in range(40):
        x = [rng.randint(-10**6, 10**6) for _ in range(n)]
        dots = [sum(map(mul, x, normal)) for normal in normals]
        assert all(dots), f"point {x} has a zero coordinate in some node's basis"
        sides = {(i, 1 if d > 0 else -1) for i, d in enumerate(dots)}
        inside = sum(cone <= sides for cone in cones)
        assert inside == 1, f"point {x} lies in {inside} open cones"

    for k, columns in enumerate(c_vectors):
        for c in columns:
            assert min(c) >= 0 or max(c) <= 0, f"node {k}: c-vector {c} is not sign-coherent"
    walls: dict[frozenset, list[int]] = {}
    for k, basis in enumerate(matrices):
        for row in basis:
            walls.setdefault(bases[k] - {row}, []).append(k)
    pairs = set()
    for wall, ends in walls.items():
        assert len(ends) == 2, f"nodes {ends} share the summand g-vectors {sorted(wall)}"
        pairs.add(frozenset(ends))
    joined = {frozenset((arrow["from"], arrow["to"])) for arrow in arrows}
    assert joined == pairs, (
        f"exchange pairs without an arrow: {sorted(map(sorted, pairs - joined))}; "
        f"arrows between non-neighbours: {sorted(map(sorted, joined - pairs))}"
    )
    assert len(arrows) == len(pairs), "some exchange pair has two arrows"
    later: list[list[int]] = [[] for _ in nodes]
    indegree = [0] * len(nodes)
    for arrow in arrows:
        a, b = arrow["from"], arrow["to"]
        for node, other, sign in ((a, b, 1), (b, a, -1)):
            (k,) = [k for k, row in enumerate(matrices[node]) if row not in bases[other]]
            c = c_vectors[node][k]
            assert sign * sum(c) > 0, f"arrow {arrow}: the exchanged c-vector at node {node} is {c}"
        kind = GLUING if nodes[a]["eps"] != nodes[b]["eps"] else INTERNAL
        assert arrow["kind"] == kind, f"arrow {arrow}: its kind should be {kind}"
        later[a].append(b)
        indegree[b] += 1
    for sign, ends in ((1, indegree), (-1, list(map(len, later)))):
        found = [bases[k] for k, d in enumerate(ends) if not d]
        assert found == [units[sign]], f"{len(found)} nodes end the order at the {sign:+d} side"
    queue = [k for k, d in enumerate(indegree) if not d]
    for k in queue:
        for b in later[k]:
            indegree[b] -= 1
            if not indegree[b]:
                queue.append(b)
    assert len(queue) == len(nodes), "the arrows have a cycle"


# The package's value classes as the frozen dataclasses they were before
# `quiver.Record`: the reference for its equality, hash, order, repr, match
# arguments, field checks and immutability.  Each twin prints under the
# name of its class.


@dataclass(frozen=True, order=True)
class ValuationTwin:
    d_prime: int
    d_dprime: int

    def __post_init__(self) -> None:
        if self.d_prime < 1 or self.d_dprime < 1:
            raise QuiverError(
                f"valuation entries must be positive, got ({self.d_prime}, {self.d_dprime})"
            )


@dataclass(frozen=True, order=True)
class ArrowTwin:
    src: int
    tgt: int
    val: ValuationTwin = ValuationTwin(1, 1)


@dataclass(frozen=True)
class ValuedQuiverTwin:
    n: int
    arrows: tuple[ArrowTwin, ...] = ()

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


@dataclass(frozen=True)
class ValuedGraphTwin:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, tuple[int, int]], ...] = ()

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


@dataclass(frozen=True)
class DynkinTypeTwin:
    family: str
    rank: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        unlisted = self.family in ("E", "F", "G") and (self.family, self.rank) not in EXCEPTIONAL
        if unlisted or self.rank < 3 and self.rank < {"A": 1, "BC": 2, "D": 3}.get(self.family, 0):
            raise ValueError(f"no Dynkin type {self.family}{self.rank}")


@dataclass(frozen=True)
class HasseNodeTwin:
    signs: SignVector
    supports: tuple[tuple[int, ...], ...]
    g: IntVector


@dataclass(frozen=True)
class GluedHasseTwin:
    nodes: tuple[HasseNodeTwin, ...]
    arrows: tuple[tuple[int, int, str], ...]


@dataclass(frozen=True)
class IdentityCheckTwin:
    name: str
    n: int
    got: int
    want: int


TWINS = {
    Valuation: ValuationTwin, Arrow: ArrowTwin, ValuedQuiver: ValuedQuiverTwin,
    ValuedGraph: ValuedGraphTwin, DynkinType: DynkinTypeTwin, HasseNode: HasseNodeTwin,
    GluedHasse: GluedHasseTwin, IdentityCheck: IdentityCheckTwin,
}
for _cls, _twin in TWINS.items():
    _twin.__qualname__ = _cls.__qualname__


def twin_of(value):
    """A value with every record in it, nested in tuples or fields too,
    replaced by its dataclass twin."""
    if isinstance(value, tuple):
        return tuple([twin_of(item) for item in value])
    if type(value) in TWINS:
        return TWINS[type(value)](*[twin_of(getattr(value, name)) for name in value.__slots__])
    return value
