"""Rigidity tables of type-A path components, one per orientation word.

A path component on k vertices is determined up to labels by its
orientation word: word[p] is True when the arrow between positions p and
p + 1 points from p to p + 1.  Its indecomposable representations are
the interval modules, one per span [start, stop) of positions: the 0/1
vector of the span as dimension vector, identity maps on the arrows
inside it and zero elsewhere.  A homomorphism is a vertexwise family of
scalars commuting with the arrow maps; the constraints chain the scalars
on the overlap together, so every Hom space is 0- or 1-dimensional, and
only the four edges where the overlap ends inside one of the two spans
can force it to zero.  Over a hereditary algebra dim Hom - dim Ext^1 is
the Euler form of the dimension vectors, read off the word, which makes
Ext^1 computable from Hom, and tilting modules are exactly the rigid sets
with one summand per vertex.  Everything here is exact integer
arithmetic on positions.

Each word gets one rigidity table, and the table computes its mutation
graph once: tilting sets by backtracking over the rigid masks, mutation
by the other complement of each rest, arrows towards the smaller Fac T,
and the rests with no other complement (not sincere) as open ends, which
the glued Hasse quiver pairs across the sign of the vertex they miss.
"""

from __future__ import annotations

from typing import Iterator, Sequence

Span = tuple[int, int]  # the positions [start, stop) of an interval module


class UnsupportedComponentError(ValueError):
    """A quiver component falls outside simply-laced type A."""

    def __init__(self, message: str, component: tuple[int, ...] | None = None,
                 signs: tuple[int, ...] | None = None):
        super().__init__(message)
        self.component = component
        self.signs = signs


def _hom(word: Sequence[bool], x: Span, y: Span) -> int:
    """dim Hom(x, y): 1 when the spans meet and no arrow at an edge where the
    overlap ends runs into y from the rest of x or out of x into the rest of y."""
    (a, b), (c, d) = x, y
    if max(a, c) >= min(b, d):
        return 0
    return int(not (
        (a < c and word[c - 1]) or (d < b and not word[d - 1])
        or (c < a and not word[a - 1]) or (b < d and word[b - 1])
    ))


def _euler(word: Sequence[bool], x: Span, y: Span) -> int:
    """<dim x, dim y>: the shared positions minus the arrows from x into y."""
    (a, b), (c, d) = x, y
    total = max(0, min(b, d) - max(a, c))
    for p, ahead in enumerate(word):
        u, v = (p, p + 1) if ahead else (p + 1, p)
        total -= a <= u < b and c <= v < d
    return total


class RigidityTable:
    """Hom, Ext^1 and the mutation graph of one orientation word.

    `spans` lists the interval modules of the word's path as spans, by
    start, then size (the interval-key order on positions), and a mask
    names intervals by their indices there.  Bit j of `ext_out[i]` is set
    when Ext^1(spans[i], spans[j]) != 0, and of `rigid[i]` when there
    is no Ext^1 either way (bit i always is).  Every entry, the diagonal
    included, takes Ext^1 as Hom minus the Euler form, and a negative
    value is an internal bug.

    The mutation graph: `tilting` holds the tilting masks, `arrows` the
    mutations (i, j, forward) between their indices, i < j and sorted,
    forward when the arrow points from i to j; `ends` the open ends
    (index, summand, missing position), and `dims` one dimension vector
    per mask, by position.
    """

    def __init__(self, word: Sequence[bool]) -> None:
        self.word = tuple(word)
        self.size = len(self.word) + 1
        self.spans = tuple(
            (start, stop) for start in range(self.size) for stop in range(start + 1, self.size + 1)
        )
        self.full = (1 << len(self.spans)) - 1
        ext_out = []
        for x in self.spans:
            exts = 0
            for j, y in enumerate(self.spans):
                ext = _hom(self.word, x, y) - _euler(self.word, x, y)
                if ext < 0:
                    raise ArithmeticError(
                        f"negative Ext dimension between {x} and {y}: internal bug"
                    )
                exts |= bool(ext) << j
            ext_out.append(exts)
        self.ext_out = tuple(ext_out)
        ext_in = [0] * len(self.spans)
        for i, out in enumerate(self.ext_out):
            for j in _bits(out):
                ext_in[j] |= 1 << i
        self.rigid = tuple(
            self.full & ~(out | into) for out, into in zip(self.ext_out, ext_in)
        )
        self.tilting = self._tilting()
        self.arrows, self.ends = self._mutate()
        self.dims = tuple(self._dims(mask) for mask in self.tilting)

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

    def _dims(self, mask: int) -> tuple[int, ...]:
        spans = [self.spans[i] for i in _bits(mask)]
        return tuple(sum(a <= p < b for a, b in spans) for p in range(self.size))

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
        position = {mask: k for k, mask in enumerate(self.tilting)}
        arrows: list[tuple[int, int, bool]] = []
        ends: list[tuple[int, int, int]] = []
        for i, mask in enumerate(self.tilting):
            not_fac = self.ext_from(mask)
            for x in _bits(mask):
                rest = mask & ~(1 << x)
                others = self.complements(rest) & ~mask
                if not others:
                    covered = [range(*self.spans[r]) for r in _bits(rest)]
                    # exactly one position; none or several fail the pairing or degree check
                    missing = set(range(*self.spans[x])).difference(*covered)
                    ends.extend((i, x, p) for p in sorted(missing))
                for y in _bits(others):
                    other = rest | 1 << y
                    j = position.get(other)
                    if j is None or j < i:
                        continue
                    forward = not (not_fac >> y) & 1
                    backward = not (self.ext_from(other) >> x) & 1
                    if forward == backward:
                        modules = [[self.spans[k] for k in _bits(t)] for t in (mask, other)]
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
