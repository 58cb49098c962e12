from __future__ import annotations

from itertools import combinations

import pytest

from taudec.brauer import (
    brauer_cycle_count,
    brauer_cycle_quiver,
    brauer_line_count,
    brauer_line_quiver,
    catalan_checks,
    composition_sums,
    verify_identities,
)
from taudec.dynkin import catalan
from taudec.quiver import Arrow, QuiverError, Valuation, ValuedQuiver
from taudec.signdec import INFINITE, count_support_tilting


class TestLineQuiver:
    def test_one_edge_degenerates_to_a_double_loop(self):
        assert brauer_line_quiver(1) == ValuedQuiver(1, (Arrow(1, 1, Valuation(2, 2)),))

    def test_two_edges(self):
        q = brauer_line_quiver(2)
        assert q.arrows == (
            Arrow(1, 1),
            Arrow(1, 2),
            Arrow(2, 1),
            Arrow(2, 2),
        )

    def test_three_edges_shape(self):
        q = brauer_line_quiver(3)
        pairs = {(a.src, a.tgt) for a in q.arrows}
        assert pairs == {(1, 1), (3, 3), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert all(a.val == Valuation(1, 1) for a in q.arrows)

    def test_rejects_nonpositive(self):
        with pytest.raises(QuiverError):
            brauer_line_quiver(0)


class TestCycleQuiver:
    def test_three_edges(self):
        q = brauer_cycle_quiver(3)
        pairs = {(a.src, a.tgt) for a in q.arrows}
        assert pairs == {(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)}
        assert len(q.arrows) == 6

    def test_one_edge_degenerates_to_a_double_loop(self):
        assert brauer_cycle_quiver(1) == ValuedQuiver(1, (Arrow(1, 1, Valuation(2, 2)),))

    def test_two_edges_merge_parallels(self):
        q = brauer_cycle_quiver(2)
        assert q.arrows == (
            Arrow(1, 2, Valuation(2, 2)),
            Arrow(2, 1, Valuation(2, 2)),
        )


class TestClosedForms:
    def test_line_counts(self):
        assert [brauer_line_count(n) for n in (1, 4, 8)] == [2, 70, 12870]

    def test_cycle_counts(self):
        assert [brauer_cycle_count(n) for n in (1, 3, 5)] == [2, 32, 512]

    def test_even_cycle_rejected(self):
        with pytest.raises(ValueError):
            brauer_cycle_count(4)

    def test_pipeline_reproduces_line_counts(self):
        for n in range(1, 7):
            assert count_support_tilting(brauer_line_quiver(n)) == brauer_line_count(n)

    def test_pipeline_reproduces_cycle_counts(self):
        for n in (1, 3, 5):
            assert count_support_tilting(brauer_cycle_quiver(n)) == brauer_cycle_count(n)
        for n in (2, 4):
            assert count_support_tilting(brauer_cycle_quiver(n)) is INFINITE


def compositions(n, r):
    """All r-tuples of positive integers summing to n."""
    for cuts in combinations(range(1, n), r - 1):
        parts = []
        prev = 0
        for c in cuts + (n,):
            parts.append(c - prev)
            prev = c
        yield tuple(parts)


class TestCompositionSums:
    def test_base_cases(self):
        sums = composition_sums(5)
        assert sums[1][1] == 1
        assert sums[3][3] == 1
        assert sums[3][2] == 4

    def test_single_part_is_catalan(self):
        sums = composition_sums(8)
        for n in range(1, 9):
            assert sums[n][1] == catalan(n)

    def test_zero_above_diagonal(self):
        sums = composition_sums(6)
        for n in range(1, 7):
            for r in range(n + 1, 7):
                assert sums[n][r] == 0

    def test_matches_direct_enumeration(self):
        sums = composition_sums(8)
        for n in range(1, 9):
            for r in range(1, n + 1):
                direct = 0
                for parts in compositions(n, r):
                    term = 1
                    for b in parts:
                        term *= catalan(b)
                    direct += term
                assert sums[n][r] == direct


class TestIdentities:
    def test_all_pass_up_to_twelve(self):
        assert all(c.passed for c in verify_identities(12))
        assert all(c.passed for c in catalan_checks(12))

    def test_small_values(self):
        checks = {(c.name, c.n): c for c in verify_identities(4)}
        assert checks[("odd-parts", 1)].got == 1
        assert checks[("even-parts", 1)].got == 0
        assert checks[("total-sum", 4)].got == 35
        assert checks[("odd-parts", 4)].got == 4 * catalan(3) == 20

    def test_check_reports_discrepancy(self):
        from taudec.brauer import IdentityCheck

        assert not IdentityCheck("x", 1, 2, 3).passed
