from __future__ import annotations

import pytest

from oracles import gluing_arrows, hasse_nodes
from taudec.brauer import brauer_line_quiver
from taudec.glue import GLUING, INTERNAL, glued_hasse, sign_slice_path_quiver
from taudec.quiver import Arrow, ValuedQuiver
from taudec.repa import UnsupportedComponentError
from taudec.signdec import count_support_tilting

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))
ORIENTED_SQUARE = ValuedQuiver(4, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 4), Arrow(4, 1)))
STAR_D4 = ValuedQuiver(4, (Arrow(1, 4), Arrow(2, 4), Arrow(3, 4)))


def node_by_supports(hasse, signs, supports):
    for node in hasse.nodes:
        if node.signs == signs and set(node.tilt.supports()) == set(supports):
            return node
    raise AssertionError(f"no node {supports} at {signs}")


class TestThreeCycle:
    def test_counts(self):
        hasse = glued_hasse(THREE_CYCLE)
        assert len(hasse.nodes) == 14
        assert len(hasse.arrows) == 21
        assert len(hasse.arrows_of_kind(INTERNAL)) == 6
        assert len(hasse.arrows_of_kind(GLUING)) == 15

    def test_g_vector_of_marked_node(self):
        hasse = glued_hasse(THREE_CYCLE)
        node = node_by_supports(hasse, (1, -1, 1), [(1, 2), (1,), (3,)])
        assert node.g == (2, -1, 1)

    def test_worked_gluing_arrow_present(self):
        hasse = glued_hasse(THREE_CYCLE)
        top = node_by_supports(hasse, (1, -1, 1), [(1, 2), (2,), (3,)])
        bottom = node_by_supports(hasse, (-1, -1, 1), [(1, 3), (2,), (3,)])
        top_idx = hasse.nodes.index(top)
        bottom_idx = hasse.nodes.index(bottom)
        assert (top_idx, bottom_idx) in hasse.arrows_of_kind(GLUING)

    def test_gluing_arrows_as_pairs(self):
        pairs = gluing_arrows(THREE_CYCLE)
        assert len(pairs) == 15
        for upper, lower in pairs:
            assert sum(upper.signs) == sum(lower.signs) + 2


class TestSmallCases:
    def test_edgeless_one_vertex(self):
        hasse = glued_hasse(ValuedQuiver(1))
        assert len(hasse.nodes) == 2
        assert hasse.arrows == ((0, 1, GLUING),)
        assert [n.g for n in hasse.nodes] == [(1,), (-1,)]

    def test_edgeless_two_vertices(self):
        hasse = glued_hasse(ValuedQuiver(2))
        assert len(hasse.nodes) == 4
        assert {n.g for n in hasse.nodes} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_line_two_is_a_hexagon(self):
        hasse = glued_hasse(brauer_line_quiver(2))
        assert len(hasse.nodes) == 6
        assert len(hasse.arrows) == 6
        indegree = {k: 0 for k in range(6)}
        outdegree = {k: 0 for k in range(6)}
        for a, b, _ in hasse.arrows:
            outdegree[a] += 1
            indegree[b] += 1
        sources = [k for k in range(6) if indegree[k] == 0]
        sinks = [k for k in range(6) if outdegree[k] == 0]
        assert len(sources) == 1 and len(sinks) == 1
        assert hasse.nodes[sources[0]].signs == (1, 1)
        assert hasse.nodes[sinks[0]].signs == (-1, -1)


def check_invariants(quiver):
    hasse = glued_hasse(quiver)
    n = quiver.n
    count = count_support_tilting(quiver)
    assert len(hasse.nodes) == count

    indegree = {k: 0 for k in range(len(hasse.nodes))}
    outdegree = {k: 0 for k in range(len(hasse.nodes))}
    for a, b, _ in hasse.arrows:
        outdegree[a] += 1
        indegree[b] += 1
    for k in range(len(hasse.nodes)):
        assert indegree[k] + outdegree[k] == n

    sources = [k for k, d in indegree.items() if d == 0]
    sinks = [k for k, d in outdegree.items() if d == 0]
    assert len(sources) == 1 and hasse.nodes[sources[0]].signs == (1,) * n
    assert len(sinks) == 1 and hasse.nodes[sinks[0]].signs == (-1,) * n

    gs = [node.g for node in hasse.nodes]
    assert len(set(gs)) == len(gs)
    for node in hasse.nodes:
        assert all(gi * si > 0 for gi, si in zip(node.g, node.signs))

    # acyclicity via Kahn's algorithm
    remaining = dict(indegree)
    successors = {k: [] for k in range(len(hasse.nodes))}
    for a, b, _ in hasse.arrows:
        successors[a].append(b)
    queue = [k for k, d in remaining.items() if d == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in successors[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    assert removed == len(hasse.nodes)


@pytest.mark.parametrize(
    "quiver",
    [
        THREE_CYCLE,
        ORIENTED_SQUARE,
        brauer_line_quiver(1),
        brauer_line_quiver(2),
        brauer_line_quiver(3),
        brauer_line_quiver(4),
    ],
    ids=["three-cycle", "oriented-square", "line1", "line2", "line3", "line4"],
)
def test_structural_invariants(quiver):
    check_invariants(quiver)


@pytest.mark.parametrize(
    "quiver",
    [
        THREE_CYCLE,
        ORIENTED_SQUARE,
        ValuedQuiver(4, (Arrow(1, 2), Arrow(3, 2), Arrow(3, 4))),
        ValuedQuiver(5, (Arrow(1, 2), Arrow(2, 3), Arrow(4, 5))),
        brauer_line_quiver(3),
    ],
    ids=["three-cycle", "oriented-square", "zigzag", "two-paths", "line3"],
)
def test_table_count_matches_enumerator_per_sign_class(quiver):
    from taudec.repa import tilting_modules
    from taudec.signdec import count_for_signs, enumerate_signs

    for signs in enumerate_signs(quiver.n):
        enumerated = len(tilting_modules(sign_slice_path_quiver(quiver, signs)))
        assert count_for_signs(quiver, signs) == enumerated


class TestNodes:
    def test_node_order_follows_sign_enumeration(self):
        nodes = hasse_nodes(THREE_CYCLE)
        assert nodes[0].signs == (1, 1, 1)
        assert nodes[-1].signs == (-1, -1, -1)
        assert len(nodes) == 14
        assert glued_hasse(THREE_CYCLE).nodes == nodes

    def test_brauer_line_node_count(self):
        nodes = hasse_nodes(brauer_line_quiver(2))
        assert len(nodes) == 6
        assert glued_hasse(brauer_line_quiver(2)).nodes == nodes


class TestUnsupported:
    def test_d4_slice_is_reported(self):
        with pytest.raises(UnsupportedComponentError) as err:
            glued_hasse(STAR_D4)
        assert err.value.signs == (1, 1, 1, -1)
        assert "+++-" in str(err.value)

    def test_slice_quiver_is_opposite(self):
        p = sign_slice_path_quiver(THREE_CYCLE, (1, -1, 1))
        assert p.arrows == ((2, 1),)
        assert p.vertices == (1, 2, 3)
