"""Dynkin classification of valued graphs and exact tilting-module counts.

A connected hereditary algebra has finitely many tilting modules exactly
when the underlying valued graph of its quiver is a Dynkin diagram, and
the count per type is known in closed form.  B and C are merged into one
family "BC" because the unordered valuation pair cannot tell them apart
and their counts agree.

The classifier walks graphs only through `quiver`: `neighbour_lists` and
`components` check connectivity, and the arms of a tree with one branch
vertex are the components left when that vertex is removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quiver import ValuedGraph, components, neighbour_lists

_FAMILIES = ("A", "BC", "D", "E", "F", "G", "non-Dynkin")


class NonDynkinError(ValueError):
    """Requested a finite count for a non-Dynkin graph."""


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def is_dynkin(self) -> bool:
        return self.family != "non-Dynkin"

    def __str__(self) -> str:
        if not self.is_dynkin:
            return "non-Dynkin"
        return f"{self.family}{self.rank}"


NON_DYNKIN = DynkinType("non-Dynkin")


def classify(graph: ValuedGraph) -> DynkinType:
    """Classify a connected valued graph against the Dynkin list.

    Simply-laced paths and the standard D/E trees are recognized with all
    valuations (1,1); a path with one terminal {1,2} edge is BC, a 4-path
    with the {1,2} edge in the middle is F4, a single {1,3} edge is G2.
    Everything else (cycles, other valuations, wrong tree shapes) is
    non-Dynkin.  Raises if the graph is disconnected.
    """
    verts = graph.vertices
    n = len(verts)
    if n == 0:
        raise ValueError("cannot classify the empty graph")
    adjacency = neighbour_lists(verts, graph.edges)
    if len(components(adjacency)) != 1:
        raise ValueError("graph is disconnected")
    if len(graph.edges) != n - 1:
        return NON_DYNKIN  # a connected graph with >= n edges contains a cycle
    degree = {v: len(adjacency[v]) for v in verts}
    is_path = all(d <= 2 for d in degree.values())
    special = [e for e in graph.edges if e[2] != (1, 1)]

    if not special:
        if is_path:
            return DynkinType("A", n)
        branch = [v for v in verts if degree[v] >= 3]
        if len(branch) != 1 or degree[branch[0]] != 3:
            return NON_DYNKIN
        hub = branch[0]  # without it, a tree with one branch vertex falls apart into its arms
        arms = sorted(map(len, components(neighbour_lists(
            [v for v in verts if v != hub], [e for e in graph.edges if hub not in e[:2]]))))
        if arms[0] == 1 and arms[1] == 1:
            return DynkinType("D", n)
        if arms == [1, 2, 2]:
            return DynkinType("E", 6)
        if arms == [1, 2, 3]:
            return DynkinType("E", 7)
        if arms == [1, 2, 4]:
            return DynkinType("E", 8)
        return NON_DYNKIN

    if len(special) > 1 or not is_path:
        return NON_DYNKIN
    u, v, val = special[0]
    if val == (1, 2):
        if degree[u] == 1 or degree[v] == 1:
            return DynkinType("BC", n)
        if n == 4:
            return DynkinType("F", 4)  # only the middle edge of a 4-path is non-terminal
        return NON_DYNKIN
    if val == (1, 3) and n == 2:
        return DynkinType("G", 2)
    return NON_DYNKIN


def catalan(n: int) -> int:
    """Exact n-th Catalan number binom(2n, n) / (n + 1); catalan(0) == 1."""
    if n < 0:
        raise ValueError(f"catalan is undefined for n = {n}")
    quotient, remainder = divmod(math.comb(2 * n, n), n + 1)
    if remainder:
        raise ArithmeticError(f"binom({2 * n}, {n}) is not a multiple of {n + 1}: internal bug")
    return quotient


def tilting_count(dynkin: DynkinType) -> int:
    """Number of tilting modules over a connected hereditary algebra of this type.

    Raises NonDynkinError for non-Dynkin input, where the count is infinite.
    """
    family, rank = dynkin.family, dynkin.rank
    if family == "A":
        return catalan(rank)
    if family == "BC":
        return math.comb(2 * rank - 1, rank - 1)
    if family == "D":
        quotient, remainder = divmod(
            (3 * rank - 4) * math.comb(2 * rank - 2, rank - 2), 2 * rank - 2
        )
        if remainder:
            raise ArithmeticError(f"the D{rank} count is not an integer: internal bug")
        return quotient
    if family == "E":
        return {6: 418, 7: 2431, 8: 17342}[rank]
    if family == "F":
        return 66
    if family == "G":
        return 5
    raise NonDynkinError("tilting count is infinite for a non-Dynkin graph")
