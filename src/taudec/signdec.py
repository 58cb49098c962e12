"""Sign-vector enumeration, tau-tilting-finiteness, and exact counts.

The support tilting modules of a radical-square-zero algebra split into
2^n classes indexed by sign vectors; each class is counted by the tilting
modules of a hereditary slice, which is finite exactly when every
connected component of the slice's underlying graph is Dynkin.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .dynkin import DynkinType, classify, tilting_count
from .quiver import SignVector, ValuedGraph, ValuedQuiver, graph_components, sign_subquiver


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


def sign_slice_components(
    quiver: ValuedQuiver, signs: Sequence[int]
) -> tuple[tuple[ValuedGraph, DynkinType], ...]:
    """Connected components of the sign slice's underlying graph, classified."""
    return tuple(
        (comp, classify(comp)) for comp in graph_components(sign_subquiver(quiver, signs))
    )


def slice_count(parts: Iterable[tuple[ValuedGraph, DynkinType]]) -> int | Infinite:
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
    """Total number of support tilting modules, summed over all sign classes."""
    total = 0
    for signs in enumerate_signs(quiver.n):
        part = count_for_signs(quiver, signs)
        if isinstance(part, Infinite):
            return INFINITE
        total += part
    return total


def finiteness_witness(
    quiver: ValuedQuiver,
) -> tuple[SignVector, ValuedGraph] | None:
    """First sign vector whose slice has a non-Dynkin component, with that component."""
    for signs in enumerate_signs(quiver.n):
        for comp, dynkin in sign_slice_components(quiver, signs):
            if not dynkin.is_dynkin:
                return signs, comp
    return None


def is_tau_tilting_finite(quiver: ValuedQuiver) -> bool:
    """Whether the presented algebra has finitely many support tilting modules."""
    return finiteness_witness(quiver) is None
