from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    components,
    graph_components,
    graph_components_union_find,
    opposite,
    random_quiver,
    separated_quiver,
    source_sink_signs,
    two_term_tilting,
)
from taudec.quiver import (
    Arrow,
    QuiverError,
    Valuation,
    ValuedGraph,
    ValuedQuiver,
    breadth_first,
    check_signs,
    neighbour_lists,
    normalize,
    parse_quiver,
    quiver_file_text,
    sign_subquiver,
)

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))
LINE2 = ValuedQuiver(2, (Arrow(1, 1), Arrow(2, 2), Arrow(1, 2), Arrow(2, 1)))


class TestParse:
    def test_two_way_pair(self):
        q = parse_quiver("n 2\na 1 2\na 2 1")
        assert q == ValuedQuiver(2, (Arrow(1, 2), Arrow(2, 1)))

    def test_loop(self):
        q = parse_quiver("n 1\na 1 1")
        assert q == ValuedQuiver(1, (Arrow(1, 1),))

    def test_parallel_arrows_merge(self):
        q = parse_quiver("n 2\na 1 2\na 1 2")
        assert q == ValuedQuiver(2, (Arrow(1, 2, Valuation(2, 2)),))

    def test_comments_and_blanks(self):
        q = parse_quiver("# header\n\nn 2  # two vertices\na 1 2 1 3\n")
        assert q == ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 3)),))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("n 2\nz 1 2", 2),
            ("n 2\na 1 3", 2),
            ("n 2\na 1 2 0 1", 2),
            ("a 1 2\nn 2", 1),
            ("n 2\nn 3", 2),
            ("n 2\na 1 x", 2),
            ("n 0", 1),
            ("n 2\na 1", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(QuiverError) as err:
            parse_quiver(text)
        assert err.value.line == line

    def test_missing_n(self):
        with pytest.raises(QuiverError):
            parse_quiver("# nothing\n")

    def test_round_trip(self):
        for q in (THREE_CYCLE, LINE2, ValuedQuiver(1, (Arrow(1, 1, Valuation(2, 2)),))):
            assert parse_quiver(quiver_file_text(q)) == q


class TestNormalize:
    def test_merges_parallel_units(self):
        q = normalize(2, [(1, 2), (1, 2), (1, 2)])
        assert q.arrows == (Arrow(1, 2, Valuation(3, 3)),)

    def test_valued_passes_through(self):
        q = normalize(2, [(1, 2, 1, 2)])
        assert q.arrows == (Arrow(1, 2, Valuation(1, 2)),)

    def test_mixing_rejected(self):
        with pytest.raises(QuiverError):
            normalize(2, [(1, 2, 1, 2), (1, 2)])

    def test_two_valued_rejected(self):
        with pytest.raises(QuiverError):
            normalize(2, [(1, 2, 1, 2), (1, 2, 2, 1)])

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=10))
    def test_idempotent(self, raw):
        q = normalize(4, raw)
        again = normalize(
            4, [(a.src, a.tgt, a.val.d_prime, a.val.d_dprime) for a in q.arrows]
        )
        assert again == q


@st.composite
def quiver_and_signs(draw):
    n = draw(st.integers(1, 5))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)), unique=True, max_size=10
        )
    )
    quiver = ValuedQuiver(n, tuple(Arrow(s, t) for s, t in pairs))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    return quiver, signs


class TestSignSubquiver:
    def test_three_cycle(self):
        assert sign_subquiver(THREE_CYCLE, (1, -1, 1)).arrows == (Arrow(1, 2),)

    def test_all_plus_has_no_arrows(self):
        assert sign_subquiver(THREE_CYCLE, (1, 1, 1)).arrows == ()

    def test_line_two(self):
        assert sign_subquiver(LINE2, (-1, 1)).arrows == (Arrow(2, 1),)

    def test_length_checked(self):
        with pytest.raises(QuiverError):
            sign_subquiver(THREE_CYCLE, (1, -1))
        with pytest.raises(QuiverError):
            check_signs((1, 0, 1), 3)

    @given(quiver_and_signs())
    def test_no_loops_or_two_cycles(self, data):
        quiver, signs = data
        sliced = sign_subquiver(quiver, signs)
        assert all(a.src != a.tgt for a in sliced.arrows)
        pairs = {(a.src, a.tgt) for a in sliced.arrows}
        assert not any((t, s) in pairs for s, t in pairs if s != t)
        graph_components(sliced)  # never raises on a sign slice


class TestOpposite:
    def test_examples(self):
        assert opposite(ValuedQuiver(2, (Arrow(1, 2),))).arrows == (Arrow(2, 1),)
        assert opposite(ValuedQuiver(1, (Arrow(1, 1),))).arrows == (Arrow(1, 1),)
        assert opposite(ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)),))).arrows == (
            Arrow(2, 1, Valuation(2, 1)),
        )

    def test_involution(self):
        for q in (THREE_CYCLE, LINE2):
            assert opposite(opposite(q)) == q


def arrow_neighbours(quiver: ValuedQuiver) -> dict[int, list[int]]:
    """Arrows forgotten to undirected neighbour lists; loops are kept."""
    neighbours: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        neighbours[a.src].append(a.tgt)
        neighbours[a.tgt].append(a.src)
    return neighbours


class TestBreadthFirst:
    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    def test_relabelled_path_from_its_smaller_end(self, images, n):
        path = images[:n]
        edges = [(min(u, v), max(u, v), (1, 1)) for u, v in zip(path, path[1:])]
        neighbours = neighbour_lists(sorted(path), edges)
        want = path if path[0] < path[-1] else path[::-1]
        assert breadth_first(neighbours, sorted(path)) == want

    def test_degree_tie_in_the_sweep_order(self):
        # leaves 2, 4 and 6 tie at degree one: the walk starts at 2, and each
        # vertex's neighbours join in label order
        edges = [(1, 3, (1, 1)), (1, 4, (1, 1)), (1, 5, (1, 1)), (3, 6, (1, 1)), (2, 5, (1, 1))]
        neighbours = neighbour_lists(range(1, 7), edges)
        assert breadth_first(neighbours, range(1, 7)) == [2, 5, 1, 3, 4, 6]
        # the sweep's valuation dicts list the same neighbours
        links = {v: dict.fromkeys(ws) for v, ws in neighbours.items()}
        assert breadth_first(links, range(1, 7)) == [2, 5, 1, 3, 4, 6]

    def test_single_vertex(self):
        assert breadth_first({7: []}, (7,)) == [7]


class TestComponents:
    def test_examples(self):
        assert components({1: [2], 2: [1], 3: []}) == ((1, 2), (3,))
        assert components({1: [], 2: [], 3: []}) == ((1,), (2,), (3,))
        assert components(arrow_neighbours(THREE_CYCLE)) == ((1, 2, 3),)
        assert components({9: [], 5: [2], 2: [5], 4: [4]}) == ((2, 5), (4,), (9,))
        assert components({}) == ()

    @given(quiver_and_signs())
    def test_partition(self, data):
        quiver, _ = data
        comps = components(arrow_neighbours(quiver))
        flat = sorted(v for c in comps for v in c)
        assert flat == list(quiver.vertices)
        assert all(list(c) == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)

    @given(quiver_and_signs())
    def test_connected_and_separated(self, data):
        quiver, _ = data
        neighbours = arrow_neighbours(quiver)
        comps = components(neighbours)
        owner = {v: k for k, c in enumerate(comps) for v in c}
        for a in quiver.arrows:
            assert owner[a.src] == owner[a.tgt]  # no edge joins two components
        for comp in comps:
            reached = {comp[0]}
            frontier = [comp[0]]
            while frontier:
                new = {w for v in frontier for w in neighbours[v]} - reached
                reached |= new
                frontier = list(new)
            assert reached == set(comp)


class TestUnderlyingGraph:
    def test_examples(self):
        (g,) = graph_components(ValuedQuiver(2, (Arrow(1, 2),)))
        assert g.edges == ((1, 2, (1, 1)),)
        (g,) = graph_components(ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)),)))
        assert g.edges == ((1, 2, (1, 2)),)
        (g,) = graph_components(ValuedQuiver(2, (Arrow(2, 1, Valuation(3, 1)),)))
        assert g.edges == ((1, 2, (1, 3)),)

    def test_loop_rejected(self):
        with pytest.raises(QuiverError, match="loop"):
            graph_components(ValuedQuiver(1, (Arrow(1, 1),)))

    def test_two_cycle_rejected(self):
        with pytest.raises(QuiverError, match="both ways"):
            graph_components(ValuedQuiver(2, (Arrow(1, 2), Arrow(2, 1))))

    def test_graph_components(self):
        comps = graph_components(ValuedQuiver(4, (Arrow(1, 2),)))
        assert [c.vertices for c in comps] == [(1, 2), (3,), (4,)]
        assert comps[0].edges == ((1, 2, (1, 1)),)
        comps = graph_components(ValuedQuiver(5, (Arrow(4, 1), Arrow(2, 5), Arrow(5, 3))))
        assert [c.vertices for c in comps] == [(1, 4), (2, 3, 5)]
        assert comps[1].edges == ((2, 5, (1, 1)), (3, 5, (1, 1)))

    def test_symmetric_quiver_sign_flip_gives_same_graph(self):
        # arrows come in opposite pairs here, so flipping all signs
        # reverses the slice and keeps its underlying graph
        cycle3 = ValuedQuiver(
            3,
            (Arrow(1, 2), Arrow(2, 1), Arrow(2, 3), Arrow(3, 2), Arrow(3, 1), Arrow(1, 3)),
        )
        for quiver in (LINE2, cycle3):
            for signs in product((1, -1), repeat=quiver.n):
                flipped = tuple(-s for s in signs)
                assert graph_components(
                    sign_subquiver(quiver, signs)
                ) == graph_components(sign_subquiver(quiver, flipped))

    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_union_find_oracle(self, seed):
        quiver = random_quiver(random.Random(seed), max_n=6, max_val=3)
        for signs in product((1, -1), repeat=quiver.n):
            sliced = sign_subquiver(quiver, signs)
            assert graph_components(sliced) == graph_components_union_find(sliced)


class TestSourceSinkSigns:
    def test_bipartite(self):
        q = ValuedQuiver(3, (Arrow(1, 2), Arrow(3, 2)))
        assert source_sink_signs(q) == (1, -1, 1)

    def test_path_of_length_two_fails(self):
        q = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3)))
        assert source_sink_signs(q) is None

    def test_isolated_gets_plus(self):
        assert source_sink_signs(ValuedQuiver(1)) == (1,)

    def test_loop_fails(self):
        assert source_sink_signs(ValuedQuiver(1, (Arrow(1, 1),))) is None


class TestTwoTermTilting:
    def test_three_cycle_mixed(self):
        assert two_term_tilting(THREE_CYCLE, (1, -1, 1)) is False

    def test_all_minus(self):
        assert two_term_tilting(THREE_CYCLE, (-1, -1, -1)) is True

    def test_single_arrow(self):
        assert two_term_tilting(ValuedQuiver(2, (Arrow(1, 2),)), (1, -1)) is True


def test_separated_quiver():
    sep = separated_quiver(THREE_CYCLE)
    assert sep.n == 6
    assert sep.arrows == (Arrow(1, 5), Arrow(2, 6), Arrow(3, 4))
    # loops become honest arrows between the two copies
    sep = separated_quiver(ValuedQuiver(1, (Arrow(1, 1),)))
    assert sep.arrows == (Arrow(1, 2),)


def test_duplicate_ordered_pair_rejected():
    with pytest.raises(QuiverError):
        ValuedQuiver(2, (Arrow(1, 2), Arrow(1, 2, Valuation(2, 2))))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Valuation(0, 1), "valuation entries must be positive"),
        (lambda: ValuedQuiver(0), "vertex count must be positive"),
        (lambda: ValuedQuiver(2, (Arrow(1, 3),)), "outside vertex range 1..2"),
        (lambda: normalize(2, [(1, 2, 1)]), "must have 2 or 4 fields"),
        (lambda: parse_quiver("n 1 2\n"), "line 1: 'n' takes exactly one integer"),
        (lambda: ValuedGraph((1, 2), ((1, 1, (1, 1)),)), "self-edge at vertex 1"),
        (lambda: ValuedGraph((1, 2), ((2, 1, (1, 1)),)), "bad edge"),
        (lambda: ValuedGraph((1, 2), ((1, 2, (1, 1)), (1, 2, (1, 2)))), "duplicate edge"),
    ],
    ids=["valuation", "vertex-count", "arrow-range", "raw-arrow-fields", "n-line-fields",
         "self-edge", "reversed-edge", "duplicate-edge"],
)
def test_malformed_data_raises_quiver_error(build, message):
    with pytest.raises(QuiverError, match=message):
        build()
