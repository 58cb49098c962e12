"""Dynkin classification of valued graphs and exact tilting-module counts.

A connected hereditary algebra has finitely many tilting modules exactly
when the underlying valued graph of its quiver is a Dynkin diagram, and
the count per type is known in closed form.  B and C are merged into one
family "BC" because the unordered valuation pair cannot tell them apart
and their counts agree.

One table, `shape_type`, names the type of a path from its length and
its non-unit edges by position, and of a unit star from its three arm
lengths.  `classify` reduces a graph to that shape and reads the table;
the sign sweep reads it directly.  The classifier walks graphs only by
`quiver.breadth_first`: one walk checks connectivity and runs a path from
one end, and the arms of a tree with one branch vertex are what each of
its neighbours reaches once that vertex is removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quiver import ValuedGraph, breadth_first, neighbour_lists

_FAMILIES = ("A", "BC", "D", "E", "F", "G", "non-Dynkin")
_EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


class NonDynkinError(ValueError):
    """Requested a finite count for a non-Dynkin graph."""


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("E", "F", "G") and (self.family, self.rank) not in _EXCEPTIONAL:
            raise ValueError(f"no Dynkin type {self.family}{self.rank}")

    @property
    def is_dynkin(self) -> bool:
        return self.family != "non-Dynkin"

    def __str__(self) -> str:
        if not self.is_dynkin:
            return "non-Dynkin"
        return f"{self.family}{self.rank}"


NON_DYNKIN = DynkinType("non-Dynkin")


def shape_type(shape: tuple) -> DynkinType:
    """The type of a path, shaped (length, non-unit edges by position), or of
    a unit star, shaped as its three sorted arm lengths.

    An all-unit path is A; a path with one {1,2} edge is BC when the edge
    is terminal and F4 when it is the middle of a 4-path; a single {1,3}
    edge is G2.  A star with two arms of length 1 is D, and the arms
    (1, 2, 2), (1, 2, 3) and (1, 2, 4) are E6, E7 and E8.  Everything else
    is non-Dynkin.
    """
    if len(shape) == 3:
        short, middle, long = shape
        if short == middle == 1:
            return DynkinType("D", long + 3)
        if (short, middle) == (1, 2) and long <= 4:
            return DynkinType("E", long + 4)
        return NON_DYNKIN
    length, special = shape
    if not special:
        return DynkinType("A", length)
    if len(special) > 1:
        return NON_DYNKIN
    ((at, val),) = special
    if val == (1, 2):
        if at in (0, length - 2):
            return DynkinType("BC", length)
        if length == 4:
            return DynkinType("F", 4)  # only the middle edge of a 4-path is non-terminal
        return NON_DYNKIN
    if val == (1, 3) and length == 2:
        return DynkinType("G", 2)
    return NON_DYNKIN


def classify(graph: ValuedGraph) -> DynkinType:
    """Classify a connected valued graph against the Dynkin list.

    A tree whose vertices all have degree at most 2 is a path and is read
    from one end; a unit tree with one vertex of degree 3 is a star.  Both
    are typed by `shape_type`.  Everything else (cycles, other branchings,
    valued stars) is non-Dynkin.  Raises if the graph is empty or
    disconnected.
    """
    verts = graph.vertices
    n = len(verts)
    if n == 0:
        raise ValueError("cannot classify the empty graph")
    adjacency = neighbour_lists(verts, graph.edges)
    order = breadth_first(adjacency, verts)
    if len(order) != n:
        raise ValueError("graph is disconnected")
    if len(graph.edges) != n - 1:
        return NON_DYNKIN  # a connected graph with >= n edges contains a cycle
    branch = [v for v in verts if len(adjacency[v]) > 2]
    special = [e for e in graph.edges if e[2] != (1, 1)]
    if not branch:  # a path: breadth_first starts at one end and runs along it
        at = {v: p for p, v in enumerate(order)} if special else {}
        return shape_type((n, tuple(sorted((min(at[u], at[v]), val) for u, v, val in special))))
    hub = branch[0]
    if len(branch) > 1 or len(adjacency[hub]) > 3 or special:
        return NON_DYNKIN
    # without the hub, a tree with one branch vertex falls apart into its arms
    rest = neighbour_lists(
        [v for v in verts if v != hub], [e for e in graph.edges if hub not in e[:2]])
    return shape_type(tuple(sorted(len(breadth_first(rest, (u,))) for u in adjacency[hub])))


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
