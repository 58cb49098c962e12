"""Brauer line/cycle quivers, their closed-form counts, and identity oracles.

The generators emit the radical-square-zero quotient quiver directly: the
multiplicity function in the Brauer relations never changes the counts,
so it is not an input.  The composition-sum table is an independent
dynamic-programming oracle for the combinatorial identities behind the
closed formulas.
"""

from __future__ import annotations

import math

from .dynkin import catalan
from .quiver import QuiverError, Record, ValuedQuiver, normalize


def brauer_line_quiver(n: int) -> ValuedQuiver:
    """Line quiver on n vertices: loops at both ends, arrows both ways between neighbours.

    For n = 1 the two end loops coincide and merge into one loop valued (2, 2).
    """
    if n < 1:
        raise QuiverError(f"need n >= 1, got {n}")
    raw = [(1, 1), (n, n)]
    for i in range(1, n):
        raw += [(i, i + 1), (i + 1, i)]
    return normalize(n, raw)


def brauer_cycle_quiver(n: int) -> ValuedQuiver:
    """Cycle quiver on n vertices: arrows both ways around the cycle.

    Degenerates for n = 1 to a single (2, 2) loop and for n = 2 to a pair
    of (2, 2) arrows, by merging the parallel transcription.
    """
    if n < 1:
        raise QuiverError(f"need n >= 1, got {n}")
    raw = []
    for i in range(1, n + 1):
        j = i % n + 1
        raw += [(i, j), (j, i)]
    return normalize(n, raw)


def brauer_line_count(n: int) -> int:
    """Closed form for the line quiver: binom(2n, n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(2 * n, n)


def brauer_cycle_count(n: int) -> int:
    """Closed form for the odd cycle: 2^(2n-1); even cycles are not finite."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n % 2 == 0:
        raise ValueError(
            f"the {n}-cycle algebra is tau-tilting-infinite; no finite count"
        )
    return 2 ** (2 * n - 1)


def composition_sums(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Table P[n][r] for 0 <= n, r <= n_max: the sum over positive
    compositions of n into r parts of the product of the parts' Catalan
    numbers, zero outside 1 <= r <= n.

    Dynamic program: P[n][r] = sum over k of C_k * P[n-k][r-1], P[0][0] = 1.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    cats = [catalan(k) for k in range(n_max + 1)]
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            table[n][r] = sum(
                cats[k] * table[n - k][r - 1] for k in range(1, n - r + 2)
            )
    return tuple(tuple(row) for row in table)


class IdentityCheck(Record):
    __slots__ = ("name", "n", "got", "want")

    def __init__(self, name: str, n: int, got: int, want: int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "got", got)
        object.__setattr__(self, "want", want)

    @property
    def passed(self) -> bool:
        return self.got == self.want


def verify_identities(n_max: int) -> list[IdentityCheck]:
    """Check the composition-sum identities for 1 <= n <= n_max.

    Total row sum equals half the central binomial; the odd-length and
    even-length parts contribute n*C_{n-1} and (n-1)*C_{n-1}.
    """
    table = composition_sums(n_max)
    checks = []
    for n in range(1, n_max + 1):
        row = table[n]  # row[0] is 0 for n >= 1
        checks.append(IdentityCheck("total-sum", n, sum(row), math.comb(2 * n, n) // 2))
        checks.append(IdentityCheck("odd-parts", n, sum(row[1::2]), n * catalan(n - 1)))
        checks.append(
            IdentityCheck("even-parts", n, sum(row[2::2]), (n - 1) * catalan(n - 1))
        )
    return checks


def catalan_checks(n_max: int) -> list[IdentityCheck]:
    """The three Catalan identities for 1 <= n <= n_max."""
    checks = []
    for n in range(1, n_max + 1):
        convolution = sum(catalan(k) * catalan(n - k) for k in range(n + 1))
        checks.append(IdentityCheck("catalan-convolution", n, convolution, catalan(n + 1)))
        checks.append(
            IdentityCheck(
                "catalan-two-term", n, (n + 2) * catalan(n + 1), 2 * (2 * n + 1) * catalan(n)
            )
        )
        binomial_sum = sum(
            math.comb(2 * t, t) * math.comb(2 * (n - t), n - t) for t in range(n + 1)
        )
        checks.append(IdentityCheck("central-binomial-sum", n, binomial_sum, 4**n))
    return checks
