from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    count_support_tilting_scan,
    disjoint_union,
    finite_by_separated_quiver,
    finiteness_witness_scan,
    graph_components,
    random_quiver,
    relabelled,
    sign_slice_components_scan,
)
from taudec.dynkin import catalan
from taudec.brauer import brauer_cycle_quiver, brauer_line_quiver
from taudec.quiver import (
    Arrow,
    Valuation,
    ValuedQuiver,
    sign_subquiver,
)
from taudec.signdec import (
    INFINITE,
    Infinite,
    SliceEngine,
    count_for_signs,
    count_support_tilting,
    enumerate_signs,
    finiteness_witness,
    is_tau_tilting_finite,
    sign_slice_components,
)

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))


def doubled_arrow():
    return ValuedQuiver(2, (Arrow(1, 2, Valuation(2, 2)),))


class TestEnumerateSigns:
    def test_n_one(self):
        assert list(enumerate_signs(1)) == [(1,), (-1,)]

    def test_n_two_order(self):
        out = list(enumerate_signs(2))
        assert out[0] == (1, 1)
        assert len(out) == 4

    def test_count_n_ten(self):
        assert sum(1 for _ in enumerate_signs(10)) == 1024

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_signs(0)


class TestCountForSigns:
    def test_three_cycle_slice(self):
        assert count_for_signs(THREE_CYCLE, (1, -1, 1)) == 2

    def test_all_plus_gives_one(self):
        assert count_for_signs(THREE_CYCLE, (1, 1, 1)) == 1
        assert count_for_signs(brauer_line_quiver(3), (1, 1, 1)) == 1

    def test_line_two_mixed(self):
        assert count_for_signs(brauer_line_quiver(2), (1, -1)) == 2

    def test_doubled_arrow_slice_is_infinite(self):
        assert count_for_signs(doubled_arrow(), (1, -1)) is INFINITE


class TestCountSupportTilting:
    def test_three_cycle(self):
        assert count_support_tilting(THREE_CYCLE) == 14

    def test_line_two(self):
        assert count_support_tilting(brauer_line_quiver(2)) == 6

    def test_edgeless(self):
        assert count_support_tilting(ValuedQuiver(3)) == 8

    def test_doubled_arrow(self):
        assert count_support_tilting(doubled_arrow()) is INFINITE


class TestFiniteness:
    def test_three_cycle_finite(self):
        assert is_tau_tilting_finite(THREE_CYCLE)

    def test_even_cycles_infinite(self):
        for n in (2, 4, 6):
            assert not is_tau_tilting_finite(brauer_cycle_quiver(n))

    def test_doubled_arrow_witness(self):
        witness = finiteness_witness(doubled_arrow())
        assert witness is not None
        signs, component = witness
        assert signs == (1, -1)
        assert component.vertices == (1, 2)
        assert component.edges == ((1, 2, (2, 2)),)

    def test_finite_iff_count_finite(self):
        catalog = [
            THREE_CYCLE,
            doubled_arrow(),
            ValuedQuiver(2),
            brauer_line_quiver(3),
            brauer_cycle_quiver(2),
            brauer_cycle_quiver(3),
        ]
        for q in catalog:
            assert is_tau_tilting_finite(q) == (
                not isinstance(count_support_tilting(q), Infinite)
            )

    def test_stops_at_the_first_non_dynkin_slice(self, monkeypatch):
        calls = []
        original = SliceEngine.slice

        def counted(engine, mask):
            calls.append(mask)
            return original(engine, mask)

        monkeypatch.setattr(SliceEngine, "slice", counted)
        # the doubled arrow on 1-2 gives a witness at its second mask; the line is finite
        assert not is_tau_tilting_finite(disjoint_union(doubled_arrow(), brauer_line_quiver(12)))
        assert len(calls) <= 2

    def test_agrees_with_separated_quiver_oracle(self):
        catalog = [
            THREE_CYCLE,
            doubled_arrow(),
            brauer_line_quiver(1),
            brauer_line_quiver(3),
            brauer_cycle_quiver(2),
            brauer_cycle_quiver(3),
            brauer_cycle_quiver(4),
            brauer_cycle_quiver(5),
            ValuedQuiver(1, (Arrow(1, 1),)),
        ]
        rng = random.Random(11)
        catalog += [random_quiver(rng, max_n=4, max_val=2) for _ in range(30)]
        for q in catalog:
            assert is_tau_tilting_finite(q) == finite_by_separated_quiver(q)


class TestSignSymmetry:
    # arrow sets of the Brauer quivers are symmetric, so flipping all
    # signs reverses the slice without changing its count
    def test_counts_match_under_global_flip(self):
        for q in (brauer_line_quiver(3), brauer_line_quiver(4), brauer_cycle_quiver(5)):
            for signs in enumerate_signs(q.n):
                flipped = tuple(-s for s in signs)
                assert count_for_signs(q, signs) == count_for_signs(q, flipped)

    def test_half_sum(self):
        for q in (brauer_line_quiver(3), brauer_cycle_quiver(3), brauer_cycle_quiver(5)):
            half = sum(
                count_for_signs(q, signs)
                for signs in enumerate_signs(q.n)
                if signs[0] == 1
            )
            assert 2 * half == count_support_tilting(q)


def composition_of(signs):
    """Part sizes cut by the positions where consecutive signs agree."""
    n = len(signs)
    breaks = [i for i in range(1, n) if signs[i - 1] == signs[i]] + [n]
    parts = []
    prev = 0
    for b in breaks:
        parts.append(b - prev)
        prev = b
    return parts


class TestBrauerLineStructure:
    def test_slices_are_simply_laced_paths(self):
        for n in (2, 3, 4, 5):
            q = brauer_line_quiver(n)
            for signs in enumerate_signs(n):
                components = sign_slice_components(q, signs)
                assert all(d.family == "A" for _, d in components)

    def test_per_slice_count_is_catalan_product(self):
        for n in (2, 3, 4, 5, 6):
            q = brauer_line_quiver(n)
            for signs in enumerate_signs(n):
                if signs[0] != 1:
                    continue
                parts = composition_of(signs)
                expected = 1
                for b in parts:
                    expected *= catalan(b)
                assert count_for_signs(q, signs) == expected


def test_odd_cycle_slices_have_odd_component_count():
    for n in (3, 5, 7):
        q = brauer_cycle_quiver(n)
        for signs in enumerate_signs(n):
            assert len(graph_components(sign_subquiver(q, signs))) % 2 == 1


def shuffled(rng: random.Random, quiver: ValuedQuiver) -> ValuedQuiver:
    images = list(quiver.vertices)
    rng.shuffle(images)
    return relabelled(quiver, images)


def sample_quiver(family: str, seed: int) -> ValuedQuiver:
    """A random quiver: plain, a shuffled union of two, or with isolated vertices."""
    rng = random.Random(seed)
    if family == "plain":
        return random_quiver(rng, max_n=5, max_val=3)
    if family == "union":
        first, second = random_quiver(rng, max_n=4), random_quiver(rng, max_n=4)
        return shuffled(rng, disjoint_union(first, second))
    base = random_quiver(rng, max_n=4, max_val=3)
    return shuffled(rng, ValuedQuiver(base.n + rng.randint(1, 3), base.arrows))


FAMILIES = st.sampled_from(("plain", "union", "isolated"))
SEEDS = st.integers(0, 2**32 - 1)


class TestAgainstScan:
    """The slice engine against the plain scan over all 2^n sign vectors."""

    @settings(max_examples=40, deadline=None)
    @given(FAMILIES, SEEDS)
    def test_count(self, family, seed):
        quiver = sample_quiver(family, seed)
        assert count_support_tilting(quiver) == count_support_tilting_scan(quiver)

    @settings(max_examples=40, deadline=None)
    @given(FAMILIES, SEEDS)
    def test_witness(self, family, seed):
        quiver = sample_quiver(family, seed)
        assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    @settings(max_examples=25, deadline=None)
    @given(FAMILIES, SEEDS)
    def test_slice_rows(self, family, seed):
        quiver = sample_quiver(family, seed)
        rows = list(SliceEngine(quiver, quiver.vertices).walk())
        assert [signs for signs, _ in rows] == list(enumerate_signs(quiver.n))
        for signs, parts in rows:
            want = sign_slice_components_scan(quiver, signs)
            assert parts == want
            assert sign_slice_components(quiver, signs) == want


class TestFactoringProperties:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_disjoint_union_count_is_product(self, seed):
        rng = random.Random(seed)
        first, second = random_quiver(rng, max_n=6), random_quiver(rng, max_n=6)
        counts = count_support_tilting(first), count_support_tilting(second)
        want = INFINITE if INFINITE in counts else counts[0] * counts[1]
        assert count_support_tilting(disjoint_union(first, second)) == want

    @settings(max_examples=30, deadline=None)
    @given(FAMILIES, SEEDS)
    def test_relabelling_keeps_count_and_finiteness(self, family, seed):
        quiver = sample_quiver(family, seed)
        moved = shuffled(random.Random(seed), quiver)
        assert count_support_tilting(moved) == count_support_tilting(quiver)
        assert is_tau_tilting_finite(moved) == is_tau_tilting_finite(quiver)
        assert (finiteness_witness(moved) is None) == (finiteness_witness(quiver) is None)
