"""Dynkin classification of valued graphs and exact tilting-module counts.

A connected hereditary algebra has finitely many tilting modules exactly
when the underlying valued graph of its quiver is a Dynkin diagram, and
the count per type is known in closed form.  B and C are merged into one
family "BC" because the unordered valuation pair cannot tell them apart
and their counts agree.

One table, `shape_type`, names the type of a path from its length and
its non-unit edges by position, and of a unit star from its three arm
lengths.  `classify` reduces a graph to that shape and reads the table;
the sign sweep reads it directly.  `classify` walks a graph once, by
`quiver.breadth_first`: the walk checks connectivity and runs a path from
one end, or a star from a leaf to the hub and then along both other arms.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .quiver import Record, ValuedGraph, breadth_first, neighbour_lists

_FAMILIES = ("A", "BC", "D", "E", "F", "G", "non-Dynkin")
# the exceptional types and their tilting counts, read-only
_EXCEPTIONAL = MappingProxyType(
    {("E", 6): 418, ("E", 7): 2431, ("E", 8): 17342, ("F", 4): 66, ("G", 2): 5})


class NonDynkinError(ValueError):
    """Requested a finite count for a non-Dynkin graph."""


class DynkinType(Record):
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int = 0) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        unlisted = family in ("E", "F", "G") and (family, rank) not in _EXCEPTIONAL
        # A, BC and D start at ranks 1, 2 and 3 (D3 is A3)
        if unlisted or rank < 3 and rank < {"A": 1, "BC": 2, "D": 3}.get(family, 0):
            raise ValueError(f"no Dynkin type {family}{rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

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
    first = order.index(hub)  # the walk runs one arm to the hub, then the others in step
    leaf = next(p for p in range(first + 1, n) if len(adjacency[order[p]]) == 1)
    short = (leaf - first + 1) // 2
    return shape_type(tuple(sorted((first, short, n - 1 - first - short))))


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

    The exceptional types read the table that also lists the ranks
    `DynkinType` accepts.  Raises NonDynkinError for non-Dynkin input, where
    the count is infinite.
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
    if (family, rank) in _EXCEPTIONAL:
        return _EXCEPTIONAL[family, rank]
    raise NonDynkinError("tilting count is infinite for a non-Dynkin graph")
