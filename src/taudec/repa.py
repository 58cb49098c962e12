"""Rigidity tables of type-A path components, one per orientation word.

A path component on k vertices is determined up to labels by its
orientation word: word[p] is True when the arrow between positions p and
p + 1 points from p to p + 1.  Its indecomposable representations are
the interval modules, one per span [start, stop) of positions.  Over a
hereditary algebra dim Hom - dim Ext^1 is the Euler form of the
dimension vectors, read off the word.  A Dynkin path algebra is
representation-directed, so Hom(X, Y) and Ext^1(X, Y) are never both
non-zero (Ringel 1984, LNM 1099, 2.4), and the sign of the Euler form
alone decides Ext^1: it is non-zero exactly when <x, y> < 0.  Tilting
modules are exactly the rigid sets with one summand per vertex.
Everything here is exact integer arithmetic on positions.

Each word gets one rigidity table, and the table computes its mutation
graph once: tilting sets by backtracking over the rigid masks, then the
exchange rule.  An almost complete tilting module over a hereditary
algebra has two complements when it is sincere and one when it is not
(Happel-Unger); an almost complete support tau-tilting pair has exactly
two completions (Adachi-Iyama-Reiten 2014, Theorem 2.18), so the missing
one of a rest that is not sincere lies across the sign of the vertex the
rest misses, where the glued Hasse quiver pairs the open ends.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

Span = tuple[int, int]  # the positions [start, stop) of an interval module


class UnsupportedComponentError(ValueError):
    """A quiver component falls outside simply-laced type A."""

    def __init__(self, message: str, component: tuple[int, ...] | None = None,
                 signs: tuple[int, ...] | None = None):
        super().__init__(message)
        self.component = component
        self.signs = signs


def _euler(word: Sequence[bool], x: Span, y: Span) -> int:
    """<dim x, dim y>: the shared positions minus the arrows from x into y."""
    (a, b), (c, d) = x, y
    total = max(0, min(b, d) - max(a, c))
    for p, ahead in enumerate(word):
        u, v = (p, p + 1) if ahead else (p + 1, p)
        total -= a <= u < b and c <= v < d
    return total


class RigidityTable:
    """Ext^1 and the mutation graph of one orientation word.

    `spans` lists the interval modules of the word's path as spans, by
    start, then size (the interval-key order on positions), and a mask
    names intervals by their indices there.  Bit j of `ext_out[i]` is set
    when <spans[i], spans[j]> < 0, that is Ext^1(spans[i], spans[j]) != 0,
    and of `rigid[i]` when the Euler form is negative neither way (bit i
    always is).  The Euler matrix is checked for directedness: <x, x> = 1
    for every interval, and no pair is negative both ways; anything else
    is an internal bug.

    The mutation graph: `tilting` holds the tilting masks, `dims` one
    dimension vector per mask, by position, `arrows` the mutations
    (i, j, forward) between their indices, i < j and sorted, forward when
    the arrow points from i to j, and `ends` the open ends (index,
    summand, missing position).  One pass groups the masks by rest.  By
    the exchange rule a sincere rest has two completions T_i = rest + X
    and T_j = rest + Y, i < j, with Ext^1 non-zero one way between X and
    Y; Fac T_i holds Y, and the arrow is forward, when Ext^1(Y, X) != 0.
    Any other rest has one, an open end at the positions only X covers.
    A third completion, or Ext^1 both ways or neither, is an internal bug.
    """

    def __init__(self, word: Sequence[bool]) -> None:
        self.word = tuple(word)
        self.size = len(self.word) + 1
        self.spans = tuple(
            (start, stop) for start in range(self.size) for stop in range(start + 1, self.size + 1)
        )
        self.full = (1 << len(self.spans)) - 1
        euler = [[_euler(self.word, x, y) for y in self.spans] for x in self.spans]
        for i, row in enumerate(euler):
            for j, form in enumerate(row):
                if (form < 0 and euler[j][i] < 0) or (i == j and form != 1):
                    raise ArithmeticError(
                        f"Euler form <{self.spans[i]}, {self.spans[j]}> = {form} "
                        "breaks directedness: internal bug"
                    )
        self.ext_out = tuple(sum((form < 0) << j for j, form in enumerate(row)) for row in euler)
        self.rigid = tuple(
            sum((min(form, euler[j][i]) >= 0) << j for j, form in enumerate(row))
            for i, row in enumerate(euler)
        )
        self.tilting = self._tilting()
        self.dims = tuple(self._dims(mask) for mask in self.tilting)
        self.arrows, self.ends = self._mutate()

    def _dims(self, mask: int) -> tuple[int, ...]:
        """Summands covering each position: each span adds 1 from its start
        and takes it back at its stop, and a running sum reads the positions."""
        steps = [0] * (self.size + 1)
        for i in _bits(mask):
            start, stop = self.spans[i]
            steps[start] += 1
            steps[stop] -= 1
        return tuple(accumulate(steps[:-1]))

    def _tilting(self) -> tuple[int, ...]:
        """Masks of the rigid sets with one summand per vertex, in lexicographic
        order of their sorted positions."""
        found: list[int] = []
        count = len(self.spans)

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
        completions: dict[int, list[tuple[int, int]]] = {}
        for i, mask in enumerate(self.tilting):
            for x in _bits(mask):
                completions.setdefault(mask & ~(1 << x), []).append((i, x))
        arrows: list[tuple[int, int, bool]] = []
        ends: list[tuple[int, int, int]] = []
        for rest, found in completions.items():
            if len(found) == 1:
                ((i, x),) = found
                # exactly one position; none or several fail the pairing or degree check
                ends.extend((i, x, p) for p in range(*self.spans[x]) if self.dims[i][p] == 1)
            elif len(found) == 2:
                (i, x), (j, y) = found
                forward = bool(self.ext_out[y] >> x & 1)
                if forward == bool(self.ext_out[x] >> y & 1):
                    modules = [[self.spans[k] for k in _bits(rest | 1 << z)] for z in (x, y)]
                    raise ArithmeticError(
                        f"adjacent tilting modules {modules[0]} and {modules[1]} have "
                        "incomparable torsion classes: internal bug"
                    )
                arrows.append((i, j, forward))
            else:
                raise ArithmeticError(
                    f"almost complete tilting module {[self.spans[k] for k in _bits(rest)]} "
                    f"has {len(found)} completions: internal bug"
                )
        return tuple(sorted(arrows)), tuple(ends)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
