from __future__ import annotations

import itertools
import math
import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dynkin_by_minors, positive_catalan
from taudec import dynkin
from taudec.dynkin import (
    NON_DYNKIN,
    DynkinType,
    NonDynkinError,
    catalan,
    classify,
    tilting_count,
)
from taudec.quiver import ValuedGraph


def graph(edges, extra_vertices=()):
    verts = {v for e in edges for v in e[:2]} | set(extra_vertices)
    return ValuedGraph(tuple(verts), tuple(edges))


def path_graph(n, valued_edge=None):
    """Path 1-2-...-n; valued_edge = (index, (lo, hi)) overrides one edge."""
    edges = []
    for k in range(1, n):
        val = (1, 1)
        if valued_edge and valued_edge[0] == k:
            val = valued_edge[1]
        edges.append((k, k + 1, val))
    return ValuedGraph(tuple(range(1, n + 1)), tuple(edges))


def star(arms):
    """Tree with a center and path arms of the given lengths."""
    edges = []
    center = 1
    nxt = 2
    for length in arms:
        prev = center
        for _ in range(length):
            edges.append((min(prev, nxt), max(prev, nxt), (1, 1)))
            prev = nxt
            nxt += 1
    return graph(edges, extra_vertices=(center,))


CATALOG = [
    (ValuedGraph((1,)), DynkinType("A", 1)),
    (path_graph(2), DynkinType("A", 2)),
    (path_graph(5), DynkinType("A", 5)),
    (path_graph(2, valued_edge=(1, (1, 2))), DynkinType("BC", 2)),
    (path_graph(3, valued_edge=(1, (1, 2))), DynkinType("BC", 3)),
    (path_graph(3, valued_edge=(2, (1, 2))), DynkinType("BC", 3)),
    (path_graph(4, valued_edge=(3, (1, 2))), DynkinType("BC", 4)),
    (path_graph(4, valued_edge=(2, (1, 2))), DynkinType("F", 4)),
    (path_graph(2, valued_edge=(1, (1, 3))), DynkinType("G", 2)),
    (star((1, 1, 1)), DynkinType("D", 4)),
    (star((1, 1, 2)), DynkinType("D", 5)),
    (star((1, 1, 4)), DynkinType("D", 7)),
    (star((1, 2, 2)), DynkinType("E", 6)),
    (star((1, 2, 3)), DynkinType("E", 7)),
    (star((1, 2, 4)), DynkinType("E", 8)),
    # beyond the Dynkin list
    (path_graph(2, valued_edge=(1, (2, 2))), NON_DYNKIN),
    (path_graph(2, valued_edge=(1, (1, 4))), NON_DYNKIN),
    (path_graph(2, valued_edge=(1, (2, 3))), NON_DYNKIN),
    (path_graph(3, valued_edge=(1, (1, 3))), NON_DYNKIN),
    (path_graph(5, valued_edge=(2, (1, 2))), NON_DYNKIN),
    (graph([(1, 2, (1, 1)), (2, 3, (1, 1)), (1, 3, (1, 1))]), NON_DYNKIN),
    (star((2, 2, 2)), NON_DYNKIN),
    (star((1, 2, 5)), NON_DYNKIN),
    (star((1, 3, 3)), NON_DYNKIN),
    (star((1, 1, 1, 1)), NON_DYNKIN),
    # D-shaped tree with one valued edge
    (graph([(1, 2, (1, 2)), (1, 3, (1, 1)), (1, 4, (1, 1)), (4, 5, (1, 1))]), NON_DYNKIN),
]


@pytest.mark.parametrize("g,expected", CATALOG)
def test_classify_catalog(g, expected):
    assert classify(g) == expected


def test_classify_rejects_the_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        classify(ValuedGraph(()))


def test_classify_requires_connected():
    with pytest.raises(ValueError):
        classify(ValuedGraph((1, 2, 3), ((1, 2, (1, 1)),)))


@pytest.mark.parametrize("seed", range(40))
def test_classify_rejects_a_disconnected_graph_walked_from_a_path_end(seed):
    # a path (one vertex or more) beside one or two cycles, edges valued at
    # random and labels shuffled: every cycle vertex has degree 2, so the one
    # walk starts on the path and must not take it for the whole graph
    rng = random.Random(seed)
    sizes = [rng.randint(1, 5)] + [rng.randint(3, 5) for _ in range(rng.randint(1, 2))]
    edges, n = [], 0
    for k, size in enumerate(sizes):
        val = (1, rng.randint(1, 3))
        edges += [(n + i, n + i + 1, val) for i in range(1, size)]
        if k:
            edges.append((n + 1, n + size, val))
        n += size
    g = ValuedGraph(tuple(range(1, n + 1)), tuple(edges))
    with pytest.raises(ValueError, match="disconnected"):
        classify(relabelled(g, rng.sample(range(1, n + 1), n)))
    with pytest.raises(ValueError, match="empty graph"):
        classify(ValuedGraph(()))


def relabelled(g: ValuedGraph, images) -> ValuedGraph:
    mapping = dict(zip(g.vertices, images))
    return ValuedGraph(
        tuple(mapping[v] for v in g.vertices),
        tuple(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), val)
            for u, v, val in g.edges
        ),
    )


def arm_rule(arms) -> DynkinType:
    """The type of a unit star with three arms: D when two arms have one
    vertex, E6/E7/E8 for arms 1, 2 and 2, 3 or 4, non-Dynkin otherwise."""
    a, b, c = sorted(arms)
    if a == b == 1:
        return DynkinType("D", 1 + a + b + c)
    return {(1, 2, 2): DynkinType("E", 6), (1, 2, 3): DynkinType("E", 7),
            (1, 2, 4): DynkinType("E", 8)}.get((a, b, c), NON_DYNKIN)


# every unit star with three arms of up to six vertices each
STAR_TRIPLES = [
    (star(arms), arm_rule(arms))
    for arms in itertools.combinations_with_replacement(range(1, 7), 3)
]


def test_classify_relabel_invariant_catalog():
    rng = random.Random(7)
    for g, expected in CATALOG + STAR_TRIPLES:
        verts = list(g.vertices)
        for _ in range(5):
            images = rng.sample(range(1, 3 * len(verts) + 1), len(verts))
            assert classify(relabelled(g, images)) == expected


@given(st.permutations(list(range(1, 9))))
def test_classify_relabel_invariant_e8(images):
    g = star((1, 2, 4))
    assert classify(relabelled(g, images)) == DynkinType("E", 8)


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_convolution(self):
        for n in range(21):
            assert catalan(n + 1) == sum(catalan(k) * catalan(n - k) for k in range(n + 1))

    def test_two_term_recurrence(self):
        for n in range(21):
            assert (n + 2) * catalan(n + 1) == 2 * (2 * n + 1) * catalan(n)

    def test_central_binomial_sum(self):
        for n in range(21):
            total = sum(
                math.comb(2 * t, t) * math.comb(2 * (n - t), n - t) for t in range(n + 1)
            )
            assert total == 4**n


class TestTiltingCount:
    def test_type_a_is_catalan(self):
        for n in range(1, 9):
            assert tilting_count(DynkinType("A", n)) == catalan(n)

    def test_bc(self):
        assert [tilting_count(DynkinType("BC", n)) for n in (2, 3, 4)] == [3, 10, 35]

    def test_d(self):
        assert [tilting_count(DynkinType("D", n)) for n in (4, 5, 6)] == [20, 77, 294]

    def test_d_formula_extends_to_rank_three(self):
        assert tilting_count(DynkinType("D", 3)) == catalan(3) == 5

    def test_exceptional(self):
        assert tilting_count(DynkinType("E", 6)) == 418
        assert tilting_count(DynkinType("E", 7)) == 2431
        assert tilting_count(DynkinType("E", 8)) == 17342
        assert tilting_count(DynkinType("F", 4)) == 66
        assert tilting_count(DynkinType("G", 2)) == 5

    def test_non_dynkin_raises(self):
        with pytest.raises(NonDynkinError):
            tilting_count(NON_DYNKIN)

    def test_inexact_division_is_an_internal_error(self, monkeypatch):
        # a binomial of 1 divides neither n + 1 = 2 nor 2 * rank - 2 = 6; the
        # check must hold under python -O, so it is an exception, not an assert
        monkeypatch.setattr(dynkin, "math", types.SimpleNamespace(comb=lambda n, k: 1))
        with pytest.raises(ArithmeticError, match="internal bug"):
            catalan(1)
        with pytest.raises(ArithmeticError, match="internal bug"):
            tilting_count(DynkinType("D", 4))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        DynkinType("Z", 3)


@pytest.mark.parametrize("family,rank", [
    ("E", 5), ("E", 9), ("E", 0), ("F", 3), ("F", 5), ("G", 1), ("G", 3),
])
def test_exceptional_rank_outside_the_list_rejected(family, rank):
    # the count table would answer these wrongly (F5 as 66, G3 as 5) or fail
    with pytest.raises(ValueError, match="no Dynkin type"):
        DynkinType(family, rank)


def prufer_trees(n: int):
    """Every labelled unit tree on 1..n, decoded from its Prüfer code."""
    for code in itertools.product(range(1, n + 1), repeat=max(0, n - 2)):
        degree = [0] + [1] * n
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = degree.index(1)
            edges.append((min(leaf, v), max(leaf, v), (1, 1)))
            degree[leaf] -= 1
            degree[v] -= 1
        ends = [u for u in range(1, n + 1) if degree[u] == 1]
        edges += [(ends[0], ends[1], (1, 1))] if n > 1 else []
        yield ValuedGraph(tuple(range(1, n + 1)), tuple(edges))


def cycle_graph(n: int) -> ValuedGraph:
    return ValuedGraph(tuple(range(1, n + 1)),
                       tuple((k, k + 1, (1, 1)) for k in range(1, n)) + ((1, n, (1, 1)),))


class TestAgainstMinors:
    """`classify` and `tilting_count` against determinants and exponents, an
    oracle that calls neither."""

    def test_every_unit_tree_up_to_six_vertices(self):
        seen = 0
        for n in range(1, 7):
            for tree in prufer_trees(n):
                assert classify(tree) == dynkin_by_minors(tree), tree
                seen += 1
        assert seen == sum(n ** (n - 2) for n in range(2, 7)) + 1

    def test_stars_up_to_nine_vertices(self):
        dynkin_arms = []
        for count in (3, 4):
            for arms in itertools.combinations_with_replacement(range(1, 7), count):
                if 1 + sum(arms) <= 9:
                    g = star(arms)
                    assert classify(g) == dynkin_by_minors(g), arms
                    if classify(g).is_dynkin:
                        dynkin_arms.append(arms)
        assert dynkin_arms == [(1, 1, k) for k in range(1, 7)] + [(1, 2, 2), (1, 2, 3), (1, 2, 4)]

    def test_trees_with_one_or_two_valued_edges_up_to_five_vertices(self):
        values = ((1, 2), (1, 3), (2, 2))
        seen = set()
        for n in range(2, 6):
            for tree in prufer_trees(n):
                for count in (1, 2):
                    for at in itertools.combinations(range(n - 1), count):
                        for vals in itertools.product(values, repeat=count):
                            chosen = dict(zip(at, vals))
                            g = ValuedGraph(tree.vertices, tuple(
                                (u, v, chosen.get(k, val)) for k, (u, v, val) in enumerate(tree.edges)
                            ))
                            assert classify(g) == dynkin_by_minors(g), g
                            seen.add(str(classify(g)))
        assert seen == {"BC2", "BC3", "BC4", "BC5", "F4", "G2", "non-Dynkin"}

    def test_unit_cycles(self):
        for n in range(3, 10):
            assert classify(cycle_graph(n)) == dynkin_by_minors(cycle_graph(n)) == NON_DYNKIN

    def test_tilting_count_is_the_positive_catalan_number(self):
        types = [DynkinType("A", n) for n in range(1, 13)]
        types += [DynkinType("BC", n) for n in range(2, 13)]
        types += [DynkinType("D", n) for n in range(4, 13)]
        types += [DynkinType("E", n) for n in (6, 7, 8)] + [DynkinType("F", 4), DynkinType("G", 2)]
        for dynkin_type in types:
            assert tilting_count(dynkin_type) == positive_catalan(dynkin_type), dynkin_type
