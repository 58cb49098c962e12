"""Independent oracles and generators used only by the test suite.

These deliberately avoid the production code paths they check: the Hom
dimension is computed by exact Gaussian elimination on the commutation
system, maximal rigid sets by Bron-Kerbosch, and finiteness through the
separated quiver's maximal single subquivers.  The tilting enumerator,
the mutation quiver, Fac membership and the Bongartz completion are also
kept in their direct forms, which call ext_dim on every pair they need,
as references for the rigidity-table versions in `taudec.repa`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from taudec.dynkin import classify
from taudec.glue import GLUING, HasseNode, glued_hasse, sign_slice_path_quiver
from taudec.matrices import g_from_dim_vector
from taudec.quiver import (
    Arrow,
    Valuation,
    ValuedGraph,
    ValuedQuiver,
    graph_components,
    separated_quiver,
)
from taudec.repa import (
    IntervalModule,
    PathQuiver,
    TiltingModule,
    ext_dim,
    intervals,
    tilting_modules,
    total_dim_vector,
)
from taudec.signdec import enumerate_signs


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
            and ext_dim(quiver, ivs[i], ivs[j]) == 0
            and ext_dim(quiver, ivs[j], ivs[i]) == 0
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


def finite_by_separated_quiver(quiver: ValuedQuiver) -> bool:
    """Finiteness via maximal single subquivers of the separated quiver."""
    sep = separated_quiver(quiver)
    n = quiver.n
    for signs in product((1, -1), repeat=n):
        chosen = {i if signs[i - 1] == 1 else n + i for i in range(1, n + 1)}
        edges = tuple(
            (a.src, a.tgt, a.val.unordered())
            for a in sep.arrows
            if a.src in chosen and a.tgt in chosen
        )
        graph = ValuedGraph(tuple(sorted(chosen)), edges)
        if any(not classify(c).is_dynkin for c in graph_components(graph)):
            return False
    return True


def rigid(quiver: PathQuiver, m: IntervalModule, n: IntervalModule) -> bool:
    return ext_dim(quiver, m, n) == 0 and ext_dim(quiver, n, m) == 0


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


def fac_contains_scan(quiver: PathQuiver, tilt: TiltingModule, x: IntervalModule) -> bool:
    """Fac T = {X : Ext^1(T, X) = 0}, one ext_dim per summand."""
    return all(ext_dim(quiver, t, x) == 0 for t in tilt.summands)


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
            out.append(HasseNode(signs, tilt, g))
    return tuple(out)


def gluing_arrows(quiver: ValuedQuiver) -> tuple[tuple[HasseNode, HasseNode], ...]:
    """The cross-sign arrows of the glued Hasse quiver only, as node pairs."""
    hasse = glued_hasse(quiver)
    return tuple(
        (hasse.nodes[a], hasse.nodes[b]) for a, b in hasse.arrows_of_kind(GLUING)
    )
