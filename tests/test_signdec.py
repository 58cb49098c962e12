from __future__ import annotations

import contextlib
import io
import math
import random
import runpy
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    breadth_first_plan,
    component_quivers,
    components,
    count_by_components,
    count_support_tilting_scan,
    disjoint_union,
    finite_by_separated_quiver,
    finiteness_witness_scan,
    graph_components,
    oriented_path_count,
    random_quiver,
    relabelled,
    sign_slice_components_scan,
    slice_count_scan,
    small_corpus,
    transposed,
    two_term_tilting,
    witness_by_components,
)
from taudec import cli, signdec
from taudec.dynkin import catalan, tilting_count
from taudec.brauer import brauer_cycle_quiver, brauer_line_quiver
from taudec.quiver import (
    Arrow,
    Valuation,
    ValuedQuiver,
    breadth_first,
    format_signs,
    parse_quiver,
    quiver_file_text,
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
    slice_count,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))


def doubled_arrow():
    return ValuedQuiver(2, (Arrow(1, 2, Valuation(2, 2)),))


def test_infinite_prints_as_infinite():
    assert repr(INFINITE) == "infinite"
    assert Infinite() is INFINITE


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
        rows = list(SliceEngine(quiver).walk())
        assert [signs for signs, _ in rows] == list(enumerate_signs(quiver.n))
        for signs, parts in rows:
            want = sign_slice_components_scan(quiver, signs)
            assert [(graph, dynkin) for graph, dynkin, _ in parts] == list(want)
            assert sign_slice_components(quiver, signs) == want
            assert slice_count(parts) == count_for_signs(quiver, signs) == slice_count_scan(want)


def valued_path(vals) -> ValuedQuiver:
    """Arrows both ways between neighbours; the pair i, i + 1 valued vals[i - 1]."""
    arrows = []
    for i, val in enumerate(vals, 1):
        arrows += [Arrow(i, i + 1, val), Arrow(i + 1, i, transposed(val))]
    return ValuedQuiver(len(vals) + 1, tuple(arrows))


def valued_line(n: int, k: int, lo: int, hi: int) -> ValuedQuiver:
    """Arrows both ways between neighbours; the pair k, k + 1 valued (lo, hi)."""
    return valued_path([Valuation(lo, hi) if i == k else Valuation(1, 1) for i in range(1, n)])


# unit paths are typed from their bits, every other component by `classify`:
# the valued members sit on each side of that rule
ENGINE_QUIVERS = pytest.mark.parametrize(
    "quiver",
    [brauer_line_quiver(6), brauer_cycle_quiver(5), brauer_cycle_quiver(4), THREE_CYCLE,
     parse_quiver("n 4\na 1 2\na 1 3\na 1 4\n"),
     parse_quiver("n 6\na 1 2\na 3 2\na 3 4\na 5 4\na 5 6\n"),
     valued_line(5, 2, 1, 2), valued_line(4, 3, 1, 2), valued_line(4, 2, 1, 2),
     parse_quiver("n 2\na 1 2 1 2\na 2 1 1 3\n")],
    ids=["line6", "cycle5", "cycle4", "three-cycle", "star-d4", "zigzag6",
         "beyond-f4", "bc4-terminal", "f4", "bc2-g2"],
)


def kept_edges(quiver: ValuedQuiver, signs) -> frozenset:
    """The slice's edges (lo, hi, unordered valuation): arrows from +1 to -1."""
    return frozenset(
        (min(a.src, a.tgt), max(a.src, a.tgt), a.val.unordered())
        for a in quiver.arrows
        if signs[a.src - 1] == 1 and signs[a.tgt - 1] == -1
    )


def signdec_rows_scan(quiver: ValuedQuiver) -> str:
    """The `signdec` table, each row built afresh from the scan oracles."""
    rows = ["# signs  components  count  two_term_tilting"]
    for signs in product((1, -1), repeat=quiver.n):
        parts = sign_slice_components_scan(quiver, signs)
        cells = ",".join(
            f"{dynkin}{{{','.join(str(v) for v in graph.vertices)}}}" for graph, dynkin in parts
        )
        count = slice_count_scan(parts)
        text = "infinite" if count is INFINITE else str(count)
        flag = "true" if two_term_tilting(quiver, signs) else "false"
        rows.append(f"{''.join('+' if s == 1 else '-' for s in signs)}  {cells}  {text}  {flag}")
    return "\n".join(rows) + "\n"


@settings(max_examples=40, deadline=None)
@given(FAMILIES, SEEDS)
def test_signdec_stdout_against_the_scan(tmp_path_factory, family, seed):
    quiver = sample_quiver(family, seed)
    path = tmp_path_factory.mktemp("signdec") / "quiver.txt"
    path.write_text(quiver_file_text(quiver), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["signdec", str(path)]) == 0
    assert out.getvalue() == signdec_rows_scan(quiver)


class TestCountsHeldByTheEngine:
    @ENGINE_QUIVERS
    def test_one_split_per_distinct_slice(self, quiver, monkeypatch):
        calls = []
        original = SliceEngine._split

        def counted(engine, key, text):
            calls.append(key)
            return original(engine, key, text)

        monkeypatch.setattr(SliceEngine, "_split", counted)
        rows = list(SliceEngine(quiver).walk())
        assert len(calls) == len(set(calls))
        assert len(calls) == len({kept_edges(quiver, signs) for signs, _ in rows})
        for signs, parts in rows:
            want = sign_slice_components_scan(quiver, signs)
            assert [(graph, dynkin) for graph, dynkin, _ in parts] == list(want)

    @ENGINE_QUIVERS
    def test_tilting_count_once_per_distinct_component(self, quiver, monkeypatch):
        calls = []

        def counted(dynkin):
            calls.append(dynkin)
            return tilting_count(dynkin)

        monkeypatch.setattr(signdec, "tilting_count", counted)
        rows = list(SliceEngine(quiver).walk())
        counts = [slice_count(parts) for _, parts in rows]
        distinct = {(graph.vertices, graph.edges) for _, parts in rows for graph, _, _ in parts}
        assert len(calls) <= len(distinct)
        assert counts == [slice_count_scan(sign_slice_components_scan(quiver, signs))
                          for signs, _ in rows]


def wide_quiver(rng: random.Random) -> tuple[ValuedQuiver, list[int]]:
    """A quiver on more than 64 vertices, relabelled so that its pieces'
    labels interleave, with the images of its even Brauer 4-cycle in cycle
    order and of its pair 1, 2 that carries two edges of unequal valuations.

    Besides those, it holds a loop, isolated vertices and random valued
    pieces with loops and 2-cycles.
    """
    pieces = [
        brauer_cycle_quiver(4),
        ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)), Arrow(2, 1, Valuation(1, 3)))),
        ValuedQuiver(1, (Arrow(1, 1),)),
        ValuedQuiver(rng.randint(1, 4)),
    ]
    quiver = pieces[0]
    for piece in pieces[1:]:
        quiver = disjoint_union(quiver, piece)
    while quiver.n <= 64:
        quiver = disjoint_union(quiver, random_quiver(rng, max_n=6, max_val=3))
    images = rng.sample(range(1, quiver.n + 1), quiver.n)
    return relabelled(quiver, images), images[:6]


def witness_quiver() -> ValuedQuiver:
    """Brauer line 8 beside 200 Brauer four-cycles: 808 vertices."""
    quiver = brauer_line_quiver(8)
    for _ in range(200):
        quiver = disjoint_union(quiver, brauer_cycle_quiver(4))
    return quiver


class TestPastAMachineWord:
    """`SliceEngine.slice` on masks wider than 64 bits against the scan,
    which builds each slice as a quiver and splits it by a neighbour walk."""

    @staticmethod
    def check(engine: SliceEngine, quiver: ValuedQuiver, signs) -> tuple:
        parts = engine.slice(tuple(signs))
        want = sign_slice_components_scan(quiver, signs)
        assert [(graph, dynkin) for graph, dynkin, _ in parts] == list(want)
        assert slice_count(parts) == slice_count_scan(want)
        return parts

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_masks(self, seed):
        rng = random.Random(seed)
        quiver, (*cycle, a, b) = wide_quiver(rng)
        assert quiver.n > 64
        engine = SliceEngine(quiver)
        for k in range(8):
            signs = [rng.choice((1, -1)) for _ in quiver.vertices]
            # the pair keeps one of its two edges, each way in turn
            signs[a - 1], signs[b - 1] = (1, -1) if k % 2 else (-1, 1)
            if k < 2:  # alternating signs keep the whole even cycle
                for i, v in enumerate(cycle):
                    signs[v - 1] = (-1) ** (i + k)
            parts = self.check(engine, quiver, signs)
            pair = next(graph for graph, _, _ in parts if a in graph.vertices)
            assert pair.edges == ((min(a, b), max(a, b), (1, 2) if k % 2 else (1, 3)),)
            if k < 2:
                ring = next((graph, dynkin) for graph, dynkin, _ in parts
                            if cycle[0] in graph.vertices)
                assert ring[0].vertices == tuple(sorted(cycle)) and len(ring[0].edges) == 4
                assert not ring[1].is_dynkin

    def test_witness_slice_of_808_vertices(self):
        quiver = witness_quiver()
        engine = SliceEngine(quiver)
        mask = signdec.transfer_count(quiver, witness=True)
        witness = [-1 if mask & engine.bit[v] else 1 for v in quiver.vertices]
        parts = self.check(engine, quiver, witness)
        assert len(parts) == 805
        assert [str(dynkin) for _, dynkin, _ in parts].count("A1") == 804
        rng = random.Random(808)
        for _ in range(3):
            self.check(engine, quiver, [rng.choice((1, -1)) for _ in quiver.vertices])


class TestTwoTerm:
    """`SliceEngine.rows`, read off two half tables, against one mask at a
    time: the sign text, a fresh engine's slice, and the two-term flag
    against the per-arrow scan.  Odd n gives halves of unequal width."""

    def check(self, quiver):
        rows = list(SliceEngine(quiver).rows())
        assert len(rows) == 2 ** quiver.n
        for signs, (text, parts, two_term) in zip(enumerate_signs(quiver.n), rows):
            assert text == format_signs(signs)
            assert parts == SliceEngine(quiver).slice(signs)
            assert two_term == two_term_tilting(quiver, signs)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.sampled_from((1, 2, 3)))
    def test_random_quivers(self, seed, max_val):
        self.check(random_quiver(random.Random(seed), max_n=9, max_val=max_val))

    def test_loops_two_cycles_valued_arrows_and_isolated_vertices(self):
        # vertex 5 is isolated; 1 and 3 carry loops; 1 and 2 form a 2-cycle
        quiver = ValuedQuiver(5, (
            Arrow(1, 1), Arrow(1, 2), Arrow(2, 1), Arrow(2, 3, Valuation(1, 3)),
            Arrow(3, 3, Valuation(2, 2)), Arrow(4, 2, Valuation(2, 1)),
        ))
        rng = random.Random(11)
        for moved in [quiver] + [shuffled(rng, quiver) for _ in range(5)]:
            self.check(moved)

    @pytest.mark.parametrize(
        "quiver",
        [
            ValuedQuiver(1, ()),
            ValuedQuiver(1, (Arrow(1, 1),)),
            ValuedQuiver(4, ()),
            # unequal unordered valuations: two edges on one pair, kept apart
            ValuedQuiver(3, (Arrow(1, 2, Valuation(1, 2)), Arrow(2, 1, Valuation(1, 3)),
                             Arrow(3, 2))),
            # a one-bit high half over a one-bit low half, or over none for n = 1
            ValuedQuiver(1, (Arrow(1, 1, Valuation(2, 2)),)),
            ValuedQuiver(2, (Arrow(2, 1, Valuation(1, 2)),)),
            ValuedQuiver(2, (Arrow(1, 1), Arrow(1, 2), Arrow(2, 1), Arrow(2, 2))),
        ],
        ids=["n1", "n1-loop", "edgeless-n4", "two-edges-on-a-pair",
             "n1-valued-loop", "n2-valued-arrow", "n2-two-way-with-loops"],
    )
    def test_small_and_two_edged_pairs(self, quiver):
        self.check(quiver)

    def test_two_edges_on_a_pair_stay_two_edges(self):
        quiver = ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)), Arrow(2, 1, Valuation(1, 3))))
        rows = list(SliceEngine(quiver).rows())
        assert [[graph.edges for graph, _, _ in parts] for _, parts, _ in rows] == [
            [(), ()], [((1, 2, (1, 2)),)], [((1, 2, (1, 3)),)], [(), ()]
        ]


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


STAR_D4 = parse_quiver("n 4\na 1 2\na 1 3\na 1 4\n")
TWO_WAY_D4 = ValuedQuiver(4, tuple(Arrow(u, v) for u, v in ((1, 4), (4, 1), (2, 4), (4, 2),
                                                            (3, 4), (4, 3))))
# the two-way D4 star joined by a two-way edge 4 - 5 to an even Brauer 14-cycle on
# 5..18: the sweep branches in the star before it closes the cycle
D4_THEN_CYCLE = ValuedQuiver(
    18, disjoint_union(TWO_WAY_D4, brauer_cycle_quiver(14)).arrows + (Arrow(4, 5), Arrow(5, 4))
)
# a 4-cycle of sources 1, 3 and sinks 2, 4, with tails 5 -> 1 and 3 <- 6 - 7: no slice
# edge meets a third at any vertex, the sweep runs 5, 1, 2, 4, 3, 6, 7 and finds the
# slice cycle of + - + - at 3, before the tail 6 - 7
CYCLE_WITH_TAILS = ValuedQuiver(
    7,
    tuple(
        Arrow(u, v)
        for u, v in ((1, 2), (3, 2), (3, 4), (1, 4), (5, 1), (6, 3), (6, 7), (7, 6))
    ),
)


def valued_cycle(rng: random.Random, max_val: int) -> ValuedQuiver:
    """A cycle on 3 to 8 vertices, each pair joined one way or both ways."""
    n = rng.randint(3, 8)
    arrows = []
    for i in range(1, n + 1):
        j = i % n + 1
        val = Valuation(rng.randint(1, max_val), rng.randint(1, max_val))
        ways = rng.choice(("both", "both", "forward", "back"))
        if ways != "back":
            arrows.append(Arrow(i, j, val))
        if ways != "forward":
            arrows.append(Arrow(j, i, transposed(val)))
    return ValuedQuiver(n, tuple(arrows))


def sweep_quiver(family: str, max_val: int, seed: int) -> ValuedQuiver:
    """Up to 8 vertices: plain, a shuffled union of two, with isolated
    vertices, or a cycle, whose sweep joins two paths at its last vertex."""
    rng = random.Random(seed)
    if family == "cycle":
        return shuffled(rng, valued_cycle(rng, max_val))
    if family == "plain":
        return random_quiver(rng, max_n=8, max_val=max_val)
    if family == "union":
        first = random_quiver(rng, max_n=4, max_val=max_val)
        second = random_quiver(rng, max_n=4, max_val=max_val)
        return shuffled(rng, disjoint_union(first, second))
    base = random_quiver(rng, max_n=5, max_val=max_val)
    return shuffled(rng, ValuedQuiver(base.n + rng.randint(1, 3), base.arrows))


def walk_total(quiver: ValuedQuiver) -> int | Infinite:
    """The quiver's sum over its sign classes, by the slice engine."""
    total = 0
    for _, parts in SliceEngine(quiver).walk():
        part = slice_count(parts)
        if part is INFINITE:
            return INFINITE
        total += part
    return total


def sweep_counts(quiver: ValuedQuiver) -> list:
    """The sweep's count of each quiver component's sub-quiver, by minimal vertex."""
    return [count_support_tilting(sub) for _, sub in component_quivers(quiver)]


def infinite_quiver(rng: random.Random, max_val: int) -> ValuedQuiver:
    """A random quiver on up to 4 vertices that is tau-tilting-infinite."""
    while True:
        quiver = random_quiver(rng, max_n=4, max_val=max_val)
        if finiteness_witness_scan(quiver) is not None:
            return quiver


def interleaved_union(seed: int) -> ValuedQuiver:
    """Two to four random valued quivers with loops, and up to three isolated
    vertices, side by side with their labels shuffled together."""
    rng = random.Random(seed)
    quiver = random_quiver(rng, max_n=4, max_val=rng.randint(1, 3))
    for _ in range(rng.randint(1, 3)):
        quiver = disjoint_union(quiver, random_quiver(rng, max_n=4, max_val=rng.randint(1, 3)))
    return shuffled(rng, ValuedQuiver(quiver.n + rng.randint(0, 3), quiver.arrows))


SWEEP_FAMILIES = st.sampled_from(("plain", "union", "isolated", "cycle"))
VALUATIONS = st.sampled_from((1, 2, 3))


class TestSweep:
    """The transfer-matrix sweep against the plain scan and against the walk."""

    def test_one_pass_against_the_per_component_reference(self):
        infinite_parts = []
        for seed in range(300):
            quiver = interleaved_union(seed)
            assert count_support_tilting(quiver) == count_by_components(quiver)
            assert finiteness_witness(quiver) == witness_by_components(quiver)
            infinite_parts.append(sum(finiteness_witness(sub) is not None
                                      for _, sub in component_quivers(quiver)))
        # finite unions, and unions whose first witness is the least of several
        assert infinite_parts.count(0) >= 30 and sum(k > 1 for k in infinite_parts) >= 30

    def test_vertex_order_against_the_component_split(self, monkeypatch):
        # the sweep walks each component once, from its vertex of least
        # (degree, label), and takes the components in the order of those starts
        calls = []

        def recorded(neighbours, group):
            calls.append((tuple(group), breadth_first(neighbours, group)))
            return calls[-1][1]

        monkeypatch.setattr(signdec, "breadth_first", recorded)
        for seed in range(300):
            quiver = interleaved_union(seed)
            links = signdec._links(quiver)
            calls.clear()
            signdec.transfer_count(quiver)  # the plan is made before any state

            def rank(v):
                return len(links[v]), v

            starts = sorted((min(comp, key=rank) for comp in components(links)), key=rank)
            assert [group for group, _ in calls] == [(start,) for start in starts]
            assert [v for _, order in calls for v in order] == breadth_first_plan(links)

    def test_states_are_freed_before_a_memory_error_unwinds(self, monkeypatch):
        # unwinding allocates a traceback entry per frame, so the sweep drops
        # its states first: under a memory cap the exit 2 stays one line
        original, calls = signdec._join, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 20:
                raise MemoryError
            return original(*args)

        monkeypatch.setattr(signdec, "_join", failing)
        with pytest.raises(MemoryError) as caught:
            signdec.transfer_count(brauer_cycle_quiver(9), witness=True)
        frames, tb = [], caught.value.__traceback__
        while tb:
            if tb.tb_frame.f_code is signdec.transfer_count.__code__:
                frames.append(tb.tb_frame)
            tb = tb.tb_next
        assert len(calls) == 20 and len(frames) == 1
        assert frames[0].f_locals["states"] is None

    @settings(max_examples=80, deadline=None)
    @given(SWEEP_FAMILIES, VALUATIONS, SEEDS)
    def test_count_against_scan(self, family, max_val, seed):
        quiver = sweep_quiver(family, max_val, seed)
        assert count_support_tilting(quiver) == count_support_tilting_scan(quiver)

    @settings(max_examples=80, deadline=None)
    @given(SWEEP_FAMILIES, VALUATIONS, SEEDS)
    def test_each_component_against_its_walk(self, family, max_val, seed):
        quiver = sweep_quiver(family, max_val, seed)
        for _, sub in component_quivers(quiver):
            assert count_support_tilting(sub) == walk_total(sub)

    @pytest.mark.parametrize(
        "quiver, finite",
        [
            (valued_line(3, 1, 1, 2), True),  # BC3 at + - +
            (valued_line(4, 2, 1, 2), True),  # F4 at + - + -
            (valued_line(5, 2, 1, 2), False),  # the (1,2) edge inside a 5-path
            (valued_line(2, 1, 1, 3), True),  # G2
            (valued_line(3, 1, 1, 3), False),  # a (1,3) edge on a 3-path
            (valued_line(2, 1, 1, 4), False),
            (valued_line(6, 1, 2, 1), True),  # BC6, the (1,2) edge at the end
        ],
    )
    def test_valued_paths_stay_in_the_sweep(self, quiver, finite):
        (count,) = sweep_counts(quiver)
        assert count is not None
        assert (count is not INFINITE) == finite
        assert count == count_support_tilting_scan(quiver)

    @settings(max_examples=60, deadline=None)
    @given(VALUATIONS, SEEDS)
    def test_witness_against_scan(self, max_val, seed):
        quiver = random_quiver(random.Random(seed), max_n=8, max_val=max_val)
        assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    @settings(max_examples=60, deadline=None)
    @given(VALUATIONS, SEEDS)
    def test_witness_of_two_infinite_components(self, max_val, seed):
        # each component has a witness of its own, so the least of them decides
        rng = random.Random(seed)
        first, second = infinite_quiver(rng, max_val), infinite_quiver(rng, max_val)
        quiver = shuffled(rng, disjoint_union(first, second))
        assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    def test_last_vertex_of_a_cycle_joins_two_paths(self):
        # 4, swept last, joins 2-3 and 5-1 into 2-3-4-5-1: the (1,2) edge 3-4 is inside
        arrows = [(1, 2), (2, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 5)]
        quiver = ValuedQuiver(
            5,
            tuple(Arrow(u, v) for u, v in arrows)
            + (Arrow(3, 4, Valuation(1, 2)), Arrow(4, 3, Valuation(2, 1))),
        )
        assert sweep_counts(quiver) == [INFINITE]
        assert count_support_tilting_scan(quiver) is INFINITE

    def test_infinite_at_once(self):
        for quiver in (
            brauer_cycle_quiver(2),
            brauer_cycle_quiver(4),
            brauer_cycle_quiver(10),
            doubled_arrow(),
        ):
            assert sweep_counts(quiver) == [INFINITE]


def oriented_path(rng: random.Random, n: int) -> tuple[list[bool], ValuedQuiver]:
    """A randomly oriented path on n vertices, relabelled."""
    forward = [rng.random() < 0.5 for _ in range(n - 1)]
    arrows = tuple(
        Arrow(i + 1, i + 2) if right else Arrow(i + 2, i + 1) for i, right in enumerate(forward)
    )
    return forward, shuffled(rng, ValuedQuiver(n, arrows))


def mirrored(n: int, edges, vals) -> ValuedQuiver:
    """Each edge (u, v) as an arrow u -> v with its valuation and v -> u with the
    transposed one: a quiver equal to its opposite."""
    return ValuedQuiver(n, tuple(arrow for (u, v), val in zip(edges, vals)
                                 for arrow in (Arrow(u, v, val), Arrow(v, u, transposed(val)))))


def two_way_tree(n: int, edges) -> ValuedQuiver:
    """Unit arrows both ways along each edge of a tree on 1..n."""
    return mirrored(n, edges, [Valuation(1, 1)] * len(edges))


def d_edges(n: int) -> list[tuple[int, int]]:
    """The D_n tree: the fork 1, 2 - 3, then the path 3 - 4 - ... - n."""
    return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]


def two_way_d(n: int) -> ValuedQuiver:
    """The two-way D_n tree."""
    return two_way_tree(n, d_edges(n))


def star_edges(arms) -> list[tuple[int, int]]:
    """The star with centre 1 and arms of these lengths, numbered arm by arm."""
    edges, top = [], 1
    for arm in arms:
        edges += [(top + j if j else 1, top + j + 1) for j in range(arm)]
        top += arm
    return edges


def two_way_star(arms) -> ValuedQuiver:
    """The two-way star with centre 1 and arms of these lengths."""
    return two_way_tree(1 + sum(arms), star_edges(arms))


def random_tree(rng: random.Random, n: int, max_val: int) -> ValuedQuiver:
    """A tree on 1..n, often with several branch vertices: each vertex after the
    first hangs from an earlier one, one way or both ways, a fifth of the edges
    valued; loops at a tenth of the vertices."""
    arrows = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1) if rng.random() < 0.5 else rng.randint(max(1, v - 3), v - 1)
        val = Valuation(rng.randint(1, max_val), rng.randint(1, max_val))
        if rng.random() < 0.8:
            val = Valuation(1, 1)
        ways = rng.choice(("both", "both", "forward", "back"))
        if ways != "back":
            arrows.append(Arrow(u, v, val))
        if ways != "forward":
            arrows.append(Arrow(v, u, transposed(val)))
    arrows += [Arrow(v, v) for v in range(1, n + 1) if rng.random() < 0.1]
    return ValuedQuiver(n, tuple(arrows))


def tree_quiver(seed: int) -> ValuedQuiver:
    """A random tree (valuations up to 2), a unit tree with up to two extra
    arrows, or a unit tree joined by a two-way edge to a Brauer cycle; relabelled."""
    rng = random.Random(seed)
    tree = random_tree(rng, rng.randint(1, 10), max_val=2 if seed % 3 == 0 else 1)
    arrows = tree.arrows
    if seed % 3 == 1:
        for _ in range(rng.randint(1, 2)):
            u, v = rng.sample(range(1, tree.n + 1), 2) if tree.n > 1 else (1, 1)
            if all((a.src, a.tgt) != (u, v) for a in arrows):
                arrows += (Arrow(u, v),)
    if seed % 3 == 2:
        both = disjoint_union(tree, brauer_cycle_quiver(rng.randint(1, 5)))
        arrows = both.arrows + (Arrow(1, tree.n + 1), Arrow(tree.n + 1, 1))
        return shuffled(rng, ValuedQuiver(both.n, arrows))
    return shuffled(rng, ValuedQuiver(tree.n, arrows))


class TestSweepWithoutWalk:
    """The families the sweep claims, counted with the walk and the rows switched off."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def refuse(engine):
            raise AssertionError("the sweep fell back to the walk")

        monkeypatch.setattr(SliceEngine, "walk", refuse)
        monkeypatch.setattr(SliceEngine, "rows", refuse)

    def test_d4_star_is_counted_by_the_sweep(self):
        assert sweep_counts(STAR_D4) == [50]
        assert count_support_tilting(STAR_D4) == 50

    def test_two_way_d4_equals_the_scan(self):
        want = count_support_tilting_scan(TWO_WAY_D4)
        assert sweep_counts(TWO_WAY_D4) == [want]
        assert count_support_tilting(TWO_WAY_D4) == want

    def test_third_edge_at_the_new_vertex_makes_a_centre(self):
        # the sweep reaches 6 after 3, 4 and 5; signs +++ on them and - on 6
        # give 6 three slice edges at once (a D6 slice with 2 and 1)
        quiver = ValuedQuiver(
            6,
            tuple(
                Arrow(u, v)
                for u, v in ((1, 2), (2, 3), (4, 2), (2, 5), (3, 6), (4, 6), (5, 6))
            ),
        )
        assert sweep_counts(quiver) == [748]
        assert count_support_tilting(quiver) == count_support_tilting_scan(quiver) == 748

    def test_star_and_line_in_one_call(self):
        quiver = disjoint_union(STAR_D4, brauer_line_quiver(6))
        assert sweep_counts(quiver) == [50, math.comb(12, 6)]
        moved = shuffled(random.Random(3), quiver)
        assert set(sweep_counts(moved)) == {50, math.comb(12, 6)}
        assert count_support_tilting(quiver) == 50 * math.comb(12, 6)
        assert count_support_tilting(moved) == 50 * math.comb(12, 6)

    def test_two_way_d_n(self):
        rng = random.Random(40)
        for n in range(4, 41):
            quiver = two_way_d(n)
            count = count_support_tilting(quiver)
            if n <= 12:
                assert count == count_support_tilting_scan(quiver)
            for _ in range(3):
                assert count_support_tilting(shuffled(rng, quiver)) == count
            assert finiteness_witness(quiver) is None

    @pytest.mark.parametrize(
        "arms, count", [((1, 2, 2), 1700), ((1, 2, 3), 8872), ((1, 2, 4), 54066)],
        ids=["E6", "E7", "E8"],
    )
    def test_two_way_e(self, arms, count):
        quiver = two_way_star(arms)
        assert count_support_tilting(quiver) == count_support_tilting_scan(quiver) == count
        assert finiteness_witness(quiver) is None

    @pytest.mark.parametrize(
        "quiver",
        [two_way_star((2, 2, 2)), two_way_star((1, 3, 3)), two_way_star((1, 2, 5)),
         two_way_star((1, 1, 1, 1))]
        + [two_way_tree(n + 1, d_edges(n - 1) + [(n - 1, n), (n - 1, n + 1)])
           for n in range(5, 10)],
        ids=["affine-E6", "affine-E7", "affine-E8", "affine-D4"]
        + [f"affine-D{n}" for n in range(5, 10)],
    )
    def test_affine_trees_are_infinite(self, quiver):
        assert count_support_tilting(quiver) is INFINITE
        assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    @pytest.mark.parametrize(
        "arrows",
        [
            # a D~5 slice at +++++---: the new vertex joins two paths and then
            # meets a vertex inside a third
            ((1, 6), (3, 2), (3, 6), (4, 6), (4, 7), (4, 8), (5, 3), (7, 5), (8, 1), (8, 3)),
            # a D~6 slice at +++++-+-: the new vertex joins two paths and then
            # meets the arm end of a star
            ((1, 8), (3, 6), (4, 6), (4, 7), (5, 3), (5, 8), (7, 6), (7, 8)),
        ],
        ids=["inside-a-path", "at-an-arm-end"],
    )
    def test_new_vertex_on_two_paths_is_a_second_branch(self, arrows):
        quiver = ValuedQuiver(8, tuple(Arrow(u, v) for u, v in arrows))
        assert count_support_tilting(quiver) is INFINITE
        assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    def test_finite_finds_the_cycle_after_a_branch(self):
        signs, component = finiteness_witness(D4_THEN_CYCLE)
        assert format_signs(signs) == "+++++-+-+-+-+-+-+-"
        assert component.vertices == tuple(range(5, 19))

    def test_random_trees_against_the_scan(self):
        for seed in range(300):
            quiver = tree_quiver(seed)
            assert count_support_tilting(quiver) == count_support_tilting_scan(quiver)
            assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    def test_stars_joined_to_brauer_cycles(self):
        # the D4 star, one way and both ways, joined at its leaf or its centre
        for star, at in ((STAR_D4, 2), (TWO_WAY_D4, 1), (TWO_WAY_D4, 4)):
            for m in range(1, 9):
                both = disjoint_union(star, brauer_cycle_quiver(m))
                quiver = ValuedQuiver(both.n, both.arrows + (Arrow(at, 5), Arrow(5, at)))
                assert count_support_tilting(quiver) == count_support_tilting_scan(quiver)
                assert finiteness_witness(quiver) == finiteness_witness_scan(quiver)

    def test_brauer_lines(self):
        for n in range(1, 61):
            assert count_support_tilting(brauer_line_quiver(n)) == math.comb(2 * n, n)

    def test_odd_brauer_cycles(self):
        for n in range(1, 32, 2):
            assert count_support_tilting(brauer_cycle_quiver(n)) == 2 ** (2 * n - 1)

    def test_even_brauer_cycles(self):
        for n in range(2, 31, 2):
            assert count_support_tilting(brauer_cycle_quiver(n)) is INFINITE

    def test_oriented_type_a(self):
        rng = random.Random(2026)
        for n in range(1, 31):
            forward, quiver = oriented_path(rng, n)
            assert count_support_tilting(quiver) == oriented_path_count(forward)

    def test_zigzag_is_catalan(self):
        # no path of length two: the algebra is hereditary of type A_n
        for n in range(1, 31):
            arrows = tuple(
                Arrow(i, i + 1) if i % 2 else Arrow(i + 1, i) for i in range(1, n)
            )
            assert count_support_tilting(ValuedQuiver(n, arrows)) == catalan(n + 1)

    def test_cycle_after_a_branch_is_infinite(self):
        assert sweep_counts(D4_THEN_CYCLE) == [INFINITE]
        assert count_support_tilting(D4_THEN_CYCLE) is INFINITE

    def test_even_brauer_cycle_witnesses(self):
        for n in range(2, 31, 2):
            signs, component = finiteness_witness(brauer_cycle_quiver(n))
            assert signs == (1, -1) * (n // 2)
            assert component.vertices == tuple(range(1, n + 1))

    def test_finite_prints_the_sweep_witness(self, tmp_path, capsys):
        path = tmp_path / "cycle12.txt"
        path.write_text(quiver_file_text(brauer_cycle_quiver(12)), encoding="utf-8")
        assert cli.main(["finite", str(path)]) == 0
        component = ",".join(str(v) for v in range(1, 13))
        assert capsys.readouterr().out == (
            f"infinite\nwitness: signs={'+-' * 6} component={{{component}}}\n"
        )

    def test_one_slice_for_the_first_witness(self, monkeypatch):
        built = []
        original = SliceEngine.slice

        def counted(engine, signs):
            built.append(signs)
            return original(engine, signs)

        monkeypatch.setattr(SliceEngine, "slice", counted)
        quiver = disjoint_union(brauer_cycle_quiver(12), brauer_cycle_quiver(4))
        assert finiteness_witness(quiver)[0] == (1,) * 12 + (1, -1, 1, -1)
        assert built == [(1,) * 12 + (1, -1, 1, -1)]

    @pytest.mark.parametrize(
        "quiver",
        [
            doubled_arrow(),
            valued_line(2, 1, 2, 2),
            valued_line(3, 2, 2, 2),
            valued_path([Valuation(1, 2), Valuation(2, 1)]),
            valued_path([Valuation(1, 2), Valuation(1, 1), Valuation(1, 1), Valuation(2, 1)]),
            valued_path([Valuation(2, 1), Valuation(1, 1), Valuation(1, 2)]),
            valued_line(5, 2, 1, 2),  # one vertex beyond F4
            valued_line(5, 3, 2, 1),
            CYCLE_WITH_TAILS,
            disjoint_union(valued_line(5, 2, 1, 2), CYCLE_WITH_TAILS),
        ],
        ids=["doubled-arrow", "edge-2-2", "inner-edge-2-2", "1-2-at-both-ends-3",
             "1-2-at-both-ends-5", "2-1-and-1-2-ends-4", "beyond-f4", "beyond-f4-turned",
             "cycle-with-tails", "union"],
    )
    def test_witness_without_the_walk(self, quiver):
        want = finiteness_witness_scan(quiver)
        assert want is not None
        assert finiteness_witness(quiver) == want
        rng = random.Random(len(quiver.arrows))
        for _ in range(5):
            moved = shuffled(rng, quiver)
            assert finiteness_witness(moved) == finiteness_witness_scan(moved)


# D4 to D8, E6 to E8, and the affine D4 and E6 stars
MIRRORED_TREES = [d_edges(n) for n in range(4, 9)] + [
    star_edges(arms) for arms in ((1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 1, 1, 1), (2, 2, 2))]
MIRRORED_VALUATIONS = st.sampled_from(
    [Valuation(1, 1)] * 8 + [Valuation(1, 2), Valuation(2, 1), Valuation(1, 3), Valuation(2, 2)])


@st.composite
def mirrored_quivers(draw) -> ValuedQuiver:
    """A two-way path, D or E tree, or odd or even cycle on up to 8 vertices,
    valued, each arrow paired with its reverse under the transposed valuation."""
    shape = draw(st.sampled_from(("path", "tree", "cycle")))
    if shape == "tree":
        edges = draw(st.sampled_from(MIRRORED_TREES))
        n = max(v for _, v in edges)
    else:
        n = draw(st.integers(3 if shape == "cycle" else 1, 8))
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)] * (shape == "cycle")
    vals = draw(st.lists(MIRRORED_VALUATIONS, min_size=len(edges), max_size=len(edges)))
    return mirrored(n, edges, vals)


# one way 1 -> 2, unit, the other way valued (1, 2): A2 at one sign, B2 at the
# other, so a sweep that took a link both ways as mirrored would merge it wrongly
A2_ONE_WAY_B2_THE_OTHER = ValuedQuiver(2, (Arrow(1, 2), Arrow(2, 1, Valuation(1, 2))))
# two mirrored components on interleaved labels, so that the witness pair crosses
# a component boundary: the two-way edge 1 - 3 is swept first, then a two-way
# affine D4 star centred at 2, or a two-way 4-cycle on 2, 4, 5, 6
TWO_WAY_EDGE = two_way_tree(2, [(1, 2)])
EDGE_BESIDE_STAR = relabelled(disjoint_union(TWO_WAY_EDGE, two_way_star((1, 1, 1, 1))),
                              [1, 3, 2, 4, 5, 6, 7])
EDGE_BESIDE_CYCLE = relabelled(disjoint_union(TWO_WAY_EDGE, mirrored(
    4, [(1, 2), (2, 3), (3, 4), (1, 4)], [Valuation(1, 1)] * 4)), [1, 3, 2, 4, 5, 6])


class TestMirroredHalving:
    """On a component equal to its opposite, count(e) = count(-e), and the sweep
    keys each state by its class under e -> -e on the frontier; in witness mode
    a state holds the least masks of both signs of its class."""

    @settings(max_examples=40, deadline=None)
    @given(mirrored_quivers(), SEEDS)
    @example(A2_ONE_WAY_B2_THE_OTHER, 0)
    @example(two_way_star((1, 1, 1, 1)), 0)  # swept from leaf 2, first witness +----
    @example(EDGE_BESIDE_STAR, 0)
    @example(EDGE_BESIDE_CYCLE, 0)
    def test_against_the_scans(self, quiver, seed):
        # alone, and beside a one-way random quiver and isolated vertices
        rng = random.Random(seed)
        partner = random_quiver(rng, max_n=2)
        union = disjoint_union(quiver, ValuedQuiver(
            partner.n, tuple(a for a in partner.arrows if a.src <= a.tgt)))
        union = shuffled(rng, ValuedQuiver(union.n + rng.randint(1, 2), union.arrows))
        for q in (quiver, union):
            assert count_support_tilting(q) == count_support_tilting_scan(q)
            assert finiteness_witness(q) == finiteness_witness_scan(q)

    def test_work_on_brauer_cycles(self, monkeypatch):
        # _join calls per sweep, with the answer: a mirrored cycle or line keeps one
        # state per class under e -> -e; without the arrow 4 -> 5 the cycle is not
        # mirrored, nor is the zigzag, and their sweeps keep every state.  The
        # relabelled inputs of perfbench's seed-0 `count` workload and the plain
        # Brauer line 10 too
        workloads = runpy.run_path(str(PERFBENCH / "workloads.py"), run_name="workloads")
        bench = {name: parse_quiver(inp.text()) for name, inp
                 in workloads["inputs_of"](workloads["build"]("count", 0)).items()}
        calls = []
        original = signdec._join

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(signdec, "_join", counted)
        cycle9 = brauer_cycle_quiver(9)
        one_way = ValuedQuiver(9, tuple(a for a in cycle9.arrows if (a.src, a.tgt) != (4, 5)))
        for quiver, witness, want, joins in [
            (cycle9, False, 2**17, 149),
            (cycle9, True, 0, 149),
            (brauer_cycle_quiver(12), False, INFINITE, 377),
            (brauer_cycle_quiver(12), True, 0b010101010101, 397),
            (one_way, False, 89846, 221),
            (one_way, True, 0, 221),
            (bench["line10"], False, math.comb(20, 10), 45),
            (bench["line10"], True, 0, 45),
            (bench["line4+line6"], False, math.comb(8, 4) * math.comb(12, 6), 21),
            (bench["line4+line6"], True, 0, 21),
            (bench["zigzag10"], False, catalan(11), 45),
            (bench["zigzag10"], True, 0, 45),
            (bench["edgeless10"], False, 2**10, 0),
            (bench["edgeless10"], True, 0, 0),
            (brauer_line_quiver(10), False, math.comb(20, 10), 45),
            (brauer_line_quiver(10), True, 0, 45),
        ]:
            calls.clear()
            assert signdec.transfer_count(quiver, witness=witness) == want
            assert len(calls) == joins

    def test_lone_vertices_are_a_shift(self, monkeypatch):
        # a lone vertex is A1 at either sign: the sweep never visits one
        calls = []
        original = signdec.breadth_first

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(signdec, "breadth_first", counted)
        edgeless = ValuedQuiver(40, ())
        looped = ValuedQuiver(40, tuple(Arrow(v, v) for v in edgeless.vertices))
        for quiver in (edgeless, looped):
            assert signdec.transfer_count(quiver) == 2**40
            assert signdec.transfer_count(quiver, witness=True) == 0
        assert calls == []


class TestCorpus:
    """Every small quiver: `count` and `finite` by the sweep against the rows of
    the slice engine, with the walk and the rows switched off for the sweep."""

    @pytest.mark.parametrize(
        "sizes, members",
        [((1, 2, 3), 1 + 15 + 2675), ((4,), 218)],
        ids=["valued-on-at-most-3", "digraphs-on-4"],
    )
    def test_count_and_finite_against_the_rows(self, sizes, members, monkeypatch):
        corpus = list(small_corpus(sizes))
        assert len(corpus) == members
        # loops never reach a slice, so every answer stays the same
        rng = random.Random(members)
        corpus += [
            ValuedQuiver(q.n, q.arrows + tuple(Arrow(v, v) for v in q.vertices))
            for q in (shuffled(rng, quiver) for quiver in corpus)
        ]
        want = []
        for quiver in corpus:
            counts, first = [], None
            for text, parts, _ in SliceEngine(quiver).rows():
                counts.append(slice_count(parts))
                bad = [graph for graph, dynkin, _ in parts if not dynkin.is_dynkin]
                if bad and first is None:
                    first = (tuple(1 if c == "+" else -1 for c in text), bad[0])
            count = INFINITE if INFINITE in counts else sum(counts)
            assert (first is None) == (count is not INFINITE)
            want.append((quiver, count, first))

        def refuse(engine):
            raise AssertionError("the sweep fell back to the engine's rows")

        monkeypatch.setattr(SliceEngine, "walk", refuse)
        monkeypatch.setattr(SliceEngine, "rows", refuse)
        for quiver, count, first in want:
            assert count_support_tilting(quiver) == count
            assert finiteness_witness(quiver) == first
