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
from typing import Sequence

Span = tuple[int, int]  # the positions [start, stop) of an interval module


class UnsupportedComponentError(ValueError):
    """A quiver component falls outside simply-laced type A."""

    def __init__(self, message: str, component: tuple[int, ...] | None = None,
                 signs: tuple[int, ...] | None = None):
        super().__init__(message)
        self.component = component
        self.signs = signs


def _euler_matrix(word: Sequence[bool], spans: Sequence[Span]) -> list[list[int]]:
    """<dim x, dim y> for every pair of spans: the shared positions minus the
    arrows from x into y, each a bit count.  Arrow p joins positions p and
    p + 1; a span's tails and heads are the arrows that start and end in it."""
    ahead = sum(1 << p for p, forward in enumerate(word) if forward)
    behind = (1 << len(word)) - 1 & ~ahead
    covers = [(1 << stop) - (1 << start) for start, stop in spans]
    # a forward arrow p starts at p and ends at p + 1, a backward one the other way
    tails = [cover & ahead | cover >> 1 & behind for cover in covers]
    heads = [cover >> 1 & ahead | cover & behind for cover in covers]
    return [
        [(x & y).bit_count() - (t & h).bit_count() for y, h in zip(covers, heads)]
        for x, t in zip(covers, tails)
    ]


class RigidityTable:
    """Ext^1 and the mutation graph of one orientation word.

    `spans` lists the interval modules of the word's path as spans, by
    start, then size (the interval-key order on positions), and a mask
    names intervals by their indices there.  The Euler matrix comes from bit
    counts of position and arrow masks.  Bit j of `ext_out[i]` is set
    when <spans[i], spans[j]> < 0, that is Ext^1(spans[i], spans[j]) != 0,
    and of `rigid[i]` when the Euler form is negative neither way (bit i
    always is).  The Euler matrix is checked for directedness: <x, x> = 1
    for every interval, and no pair is negative both ways; anything else
    is an internal bug.

    The mutation graph: `tilting` holds the tilting masks, `members` the
    indices of each mask's summands, ascending, `dims` one dimension
    vector per mask, by position, `arrows` the mutations
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
        euler = _euler_matrix(self.word, self.spans)
        self.ext_out = tuple(sum((form < 0) << j for j, form in enumerate(row)) for row in euler)
        ext_in = [sum((form < 0) << i for i, form in enumerate(column)) for column in zip(*euler)]
        for i, row in enumerate(euler):
            # the first pair (i, j) in row order negative both ways, or a diagonal entry not 1
            if broken := self.ext_out[i] & ext_in[i] | (row[i] != 1) << i:
                j = (broken & -broken).bit_length() - 1
                raise ArithmeticError(
                    f"Euler form <{self.spans[i]}, {self.spans[j]}> = {row[j]} "
                    "breaks directedness: internal bug"
                )
        self.rigid = tuple(self.full & ~(out | into) for out, into in zip(self.ext_out, ext_in))
        self.tilting, self.members = tuple(zip(*self._tilting())) or ((), ())
        self.dims = tuple(map(self._dims, self.members))
        self.arrows, self.ends = self._mutate()

    def _dims(self, members: tuple[int, ...]) -> tuple[int, ...]:
        """Summands covering each position: each span adds 1 from its start
        and takes it back at its stop, and a running sum reads the positions."""
        steps = [0] * (self.size + 1)
        for i in members:
            start, stop = self.spans[i]
            steps[start] += 1
            steps[stop] -= 1
        return tuple(accumulate(steps[:-1]))

    def _tilting(self) -> list[tuple[int, tuple[int, ...]]]:
        """(mask, indices) of the rigid sets with one summand per vertex, in
        lexicographic order of their sorted positions."""
        found: list[tuple[int, tuple[int, ...]]] = []

        def extend(chosen: int, members: tuple[int, ...], allowed: int) -> None:
            # `allowed` holds the later intervals rigid with every chosen one
            need = self.size - len(members)
            if not need:
                found.append((chosen, members))
            while 0 < need <= allowed.bit_count():
                low = allowed & -allowed
                allowed ^= low
                k = low.bit_length() - 1
                extend(chosen | low, members + (k,), allowed & self.rigid[k])

        extend(0, (), self.full)
        return found

    def _mutate(self) -> tuple[tuple[tuple[int, int, bool], ...], tuple[tuple[int, int, int], ...]]:
        completions: dict[int, list[tuple[int, int]]] = {}
        for i, (mask, members) in enumerate(zip(self.tilting, self.members)):
            for x in members:
                completions.setdefault(mask ^ 1 << x, []).append((i, x))
        arrows: list[tuple[int, int, bool]] = []
        ends: list[tuple[int, int, int]] = []
        for rest, found in completions.items():
            if len(found) == 1:
                ((i, x),) = found
                # exactly one position; none or several fail the pairing or degree check
                ends += [(i, x, p) for p in range(*self.spans[x]) if self.dims[i][p] == 1]
            elif len(found) == 2:
                (i, x), (j, y) = found
                forward = bool(self.ext_out[y] >> x & 1)
                if forward == bool(self.ext_out[x] >> y & 1):
                    modules = [[self.spans[k] for k in self.members[t]] for t in (i, j)]
                    raise ArithmeticError(
                        f"adjacent tilting modules {modules[0]} and {modules[1]} have "
                        "incomparable torsion classes: internal bug"
                    )
                arrows.append((i, j, forward))
            else:
                summands = [span for k, span in enumerate(self.spans) if rest >> k & 1]
                raise ArithmeticError(
                    f"almost complete tilting module {summands} has {len(found)} completions: "
                    "internal bug"
                )
        return tuple(sorted(arrows)), tuple(ends)
