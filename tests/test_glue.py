from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    IntervalModule,
    arrows_of_kind,
    PathQuiver,
    TiltingModule,
    disjoint_union,
    g_fan_check,
    g_from_dim_vector,
    glued_hasse_scan,
    gluing_arrows,
    hasse_nodes,
    path_word,
    random_quiver,
    relabelled,
    sign_slice_path_quiver,
    tilting_hasse,
    tilting_hasse_pairs,
    tilting_modules,
    total_dim_vector,
)
from taudec import cli, glue, quiver as quiver_module, repa
from taudec.brauer import brauer_cycle_quiver, brauer_line_quiver
from taudec.glue import GLUING, INTERNAL, component_views, glued_hasse
from taudec.quiver import Arrow, ValuedQuiver, breadth_first, neighbour_lists
from taudec.repa import UnsupportedComponentError
from taudec.signdec import INFINITE, SliceEngine, _sign_slice, count_support_tilting, enumerate_signs

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))
ORIENTED_SQUARE = ValuedQuiver(4, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 4), Arrow(4, 1)))
STAR_D4 = ValuedQuiver(4, (Arrow(1, 4), Arrow(2, 4), Arrow(3, 4)))
# Components 1-4-6-3, 2-7 and 5 interleave their labels, so the product order
# of a vertex-deleted slice's tilting modules is not one sort of all summands.
INTERLEAVED = ValuedQuiver(7, (Arrow(3, 6), Arrow(4, 1), Arrow(4, 6), Arrow(7, 2)))
ZIGZAG = ValuedQuiver(5, (Arrow(1, 2), Arrow(3, 2), Arrow(3, 4), Arrow(5, 4)))


# A failing draw that rebuilds glued_hasse and its reference takes minutes
# to shrink, so those tests report the draw as found; they generate the same
# examples as with shrinking on.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def node_by_supports(hasse, signs, supports):
    for node in hasse.nodes:
        if node.signs == signs and set(node.supports) == set(supports):
            return node
    raise AssertionError(f"no node {supports} at {signs}")


class TestThreeCycle:
    def test_counts(self):
        hasse = glued_hasse(THREE_CYCLE)
        assert len(hasse.nodes) == 14
        assert len(hasse.arrows) == 21
        assert len(arrows_of_kind(hasse, INTERNAL)) == 6
        assert len(arrows_of_kind(hasse, GLUING)) == 15

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
        assert (top_idx, bottom_idx) in arrows_of_kind(hasse, GLUING)

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


@st.composite
def type_a_quivers(draw, max_vertices=6):
    """A path or cycle whose edges point either or both ways, with loops, relabelled.

    Every sign slice keeps at most one arrow per edge and no loop, so it is
    a union of type-A paths, unless it is a whole even cycle.
    """
    n = draw(st.integers(1, max_vertices))
    cycle = n >= 3 and draw(st.booleans())
    arrows = []
    for u in range(1, n if not cycle else n + 1):
        v = u % n + 1
        way = draw(st.sampled_from(("->", "<-", "<->")))
        if way != "<-":
            arrows.append(Arrow(u, v))
        if way != "->":
            arrows.append(Arrow(v, u))
    arrows += [Arrow(v, v) for v in sorted(draw(st.sets(st.integers(1, n))))]
    images = draw(st.permutations(range(1, n + 1)))
    return relabelled(ValuedQuiver(n, tuple(arrows)), images)


@st.composite
def type_a_unions(draw, max_vertices=5):
    """One or two `type_a_quivers`, of at most `max_vertices` and 3 vertices,
    side by side and relabelled as a whole."""
    quiver = draw(type_a_quivers(max_vertices=max_vertices))
    if draw(st.booleans()):
        quiver = disjoint_union(quiver, draw(type_a_quivers(max_vertices=3)))
    return relabelled(quiver, draw(st.permutations(range(1, quiver.n + 1))))


def reference_arrows(quiver):
    """Internal arrows by the pair scan per slice, then the reference gluing arrows."""
    nodes = hasse_nodes(quiver)
    index = {node: k for k, node in enumerate(nodes)}
    arrows = []
    for signs in enumerate_signs(quiver.n):
        ids = [k for k, node in enumerate(nodes) if node.signs == signs]
        # hasse_nodes lists each slice's nodes in tilting_modules order
        slice_quiver = sign_slice_path_quiver(quiver, signs)
        pairs = tilting_hasse_pairs(slice_quiver, tilting_modules(slice_quiver))
        arrows += [(ids[i], ids[j], INTERNAL) for i, j in pairs]
    arrows += [(index[a], index[b], GLUING) for a, b in gluing_arrows(quiver)]
    return tuple(arrows)


class TestAgainstBongartzGluing:
    """Paired open ends against completing every vertex-deleted slice's modules."""

    @pytest.mark.parametrize(
        "quiver",
        [brauer_line_quiver(k) for k in range(1, 6)]
        + [brauer_cycle_quiver(k) for k in (1, 3, 5)]
        + [THREE_CYCLE, INTERLEAVED],
        ids=["line1", "line2", "line3", "line4", "line5",
             "cycle1", "cycle3", "cycle5", "three-cycle", "interleaved"],
    )
    def test_fixed_quivers(self, quiver):
        assert glued_hasse(quiver).arrows == reference_arrows(quiver)

    @settings(max_examples=12, deadline=None, phases=NO_SHRINK)
    @given(type_a_quivers())
    def test_random_type_a_quivers(self, quiver):
        assume(count_support_tilting(quiver) is not INFINITE)
        assert glued_hasse(quiver).arrows == reference_arrows(quiver)

    # the reference takes seconds on one 8-vertex union, so at most 7 here
    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(type_a_unions(max_vertices=4))
    def test_random_type_a_unions(self, quiver):
        # with interleaved labels, ordering a rest by its paths and by one
        # sort of all its summands can disagree
        assume(count_support_tilting(quiver) is not INFINITE)
        assert glued_hasse(quiver).arrows == reference_arrows(quiver)


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


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(type_a_quivers())
def test_structural_invariants_on_random_type_a_quivers(quiver):
    assume(count_support_tilting(quiver) is not INFINITE)
    check_invariants(quiver)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(type_a_quivers(), st.randoms(use_true_random=False))
def test_relabelling_moves_nodes_and_arrows(quiver, rng):
    assume(count_support_tilting(quiver) is not INFINITE)
    images = list(range(1, quiver.n + 1))
    rng.shuffle(images)
    moved = glued_hasse(relabelled(quiver, images))

    def place(values):
        out = [0] * quiver.n
        for v, x in enumerate(values):
            out[images[v] - 1] = x
        return tuple(out)

    hasse = glued_hasse(quiver)
    labels = [(place(node.signs), place(node.g)) for node in hasse.nodes]
    moved_labels = [(node.signs, node.g) for node in moved.nodes]
    assert Counter(labels) == Counter(moved_labels)
    assert {(labels[a], labels[b], kind) for a, b, kind in hasse.arrows} == {
        (moved_labels[a], moved_labels[b], kind) for a, b, kind in moved.arrows
    }


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


class TestPairingCheck:
    def test_unpaired_open_end_is_an_internal_bug(self, monkeypatch):
        original = repa.RigidityTable.__init__

        def drop_last_end(table, word):
            original(table, word)
            table.ends = table.ends[:-1]

        monkeypatch.setattr(repa.RigidityTable, "__init__", drop_last_end)
        with pytest.raises(ArithmeticError, match="do not pair up: internal bug"):
            glued_hasse(THREE_CYCLE)

    def test_doubled_open_end_is_an_internal_bug(self, monkeypatch):
        original = repa.RigidityTable.__init__

        def double_last_end(table, word):
            original(table, word)
            table.ends = table.ends + table.ends[-1:]

        monkeypatch.setattr(repa.RigidityTable, "__init__", double_last_end)
        with pytest.raises(ArithmeticError, match="do not pair up: internal bug"):
            glued_hasse(THREE_CYCLE)


class TestCollisionCheck:
    def test_colliding_g_vectors_are_an_internal_bug(self, monkeypatch):
        # g = signs keeps the sign law but gives every node of a slice the same g
        original = glue.ComponentView.__init__

        def g_is_signs(view, table, path, signs):
            original(view, table, path, signs)
            view.g = tuple(tuple((v, signs[v - 1]) for v in path) for _ in view.g)

        monkeypatch.setattr(glue.ComponentView, "__init__", g_is_signs)
        with pytest.raises(ArithmeticError, match="node g-vectors collide: internal bug"):
            glued_hasse(THREE_CYCLE)


class TestRegularityCheck:
    def test_missing_internal_arrows_are_an_internal_bug(self, monkeypatch):
        original = repa.RigidityTable.__init__

        def drop_arrows(table, word):
            original(table, word)
            table.arrows = ()

        monkeypatch.setattr(repa.RigidityTable, "__init__", drop_arrows)
        with pytest.raises(ArithmeticError, match="some node is not n-regular: internal bug"):
            glued_hasse(THREE_CYCLE)


class TestTorsionCheck:
    def test_incomparable_torsion_classes_are_an_internal_bug(self, monkeypatch):
        # with no Ext^1 read by the mutation pass, both modules of a mutation
        # contain the other's summand
        original = repa.RigidityTable._mutate

        def no_ext(table):
            table.ext_out = (0,) * len(table.spans)
            return original(table)

        monkeypatch.setattr(repa.RigidityTable, "_mutate", no_ext)
        with pytest.raises(ArithmeticError, match="incomparable torsion classes: internal bug"):
            glued_hasse(THREE_CYCLE)


class TestAgainstSliceScan:
    """Views of one table per orientation word against tables and mutation per slice."""

    @pytest.mark.parametrize(
        "quiver",
        [brauer_line_quiver(k) for k in range(1, 6)]
        + [brauer_cycle_quiver(k) for k in (1, 3, 5)]
        + [THREE_CYCLE, ZIGZAG, INTERLEAVED],
        ids=["line1", "line2", "line3", "line4", "line5", "cycle1", "cycle3", "cycle5",
             "three-cycle", "zigzag", "interleaved"],
    )
    def test_fixed_quivers(self, quiver):
        hasse, want = glued_hasse(quiver), glued_hasse_scan(quiver)
        assert hasse.nodes == want.nodes
        assert hasse.arrows == want.arrows

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(type_a_unions(), st.randoms(use_true_random=False))
    def test_random_type_a_quivers_and_relabellings(self, quiver, rng):
        assume(count_support_tilting(quiver) is not INFINITE)
        images = list(range(1, quiver.n + 1))
        rng.shuffle(images)
        for q in (quiver, relabelled(quiver, images)):
            hasse, want = glued_hasse(q), glued_hasse_scan(q)
            assert hasse.nodes == want.nodes
            assert hasse.arrows == want.arrows


def drop_source(payload):
    """Remove node 0 and its arrows, renumbering the rest."""
    del payload["nodes"][0]
    payload["arrows"] = [
        {**arrow, "from": arrow["from"] - 1, "to": arrow["to"] - 1}
        for arrow in payload["arrows"] if arrow["from"]
    ]


class TestGVectorFan:
    """`hasse --format json` against the g-vector fan, which does not go
    through the sign decomposition."""

    @pytest.mark.parametrize(
        "quiver",
        [brauer_line_quiver(k) for k in range(1, 5)]
        + [brauer_cycle_quiver(k) for k in (1, 3, 5)]
        + [THREE_CYCLE, INTERLEAVED],
        ids=["line1", "line2", "line3", "line4", "cycle1", "cycle3", "cycle5",
             "three-cycle", "interleaved"],
    )
    def test_fixed_quivers(self, quiver):
        g_fan_check(cli.hasse_json(glued_hasse(quiver)))

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(type_a_unions())
    def test_random_type_a_unions(self, quiver):
        assume(count_support_tilting(quiver) is not INFINITE)
        g_fan_check(cli.hasse_json(glued_hasse(quiver)))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda p: p["nodes"][1]["summand_supports"].pop(), "determinant"),
            (lambda p: p["nodes"][1]["g"].reverse(), "sum to"),
            (lambda p: p["arrows"][0].update({"to": p["arrows"][0]["from"]}),
             r"arrows between non-neighbours: \[\[\d+\]\]"),
            (lambda p: p["nodes"].append(p["nodes"][0]), "in 2 open cones"),
            (drop_source, "no node has the summand g-vectors [+]1e_i"),
        ],
        ids=["dropped-summand", "wrong-g", "loop-arrow", "doubled-node", "dropped-source"],
    )
    def test_tampered_output_fails(self, tamper, message):
        payload = json.loads(cli.hasse_json(glued_hasse(THREE_CYCLE)))
        tamper(payload)
        with pytest.raises(AssertionError, match=message):
            g_fan_check(json.dumps(payload))


class TestComponentViews:
    @settings(max_examples=40, deadline=None)
    @given(type_a_unions(), st.data())
    def test_views_read_word_tables_in_label_order(self, quiver, data):
        signs = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=quiver.n,
                                         max_size=quiver.n)))
        try:
            slice_quiver = sign_slice_path_quiver(quiver, signs)
        except UnsupportedComponentError:
            assume(False)
        views = component_views(signs, _sign_slice(quiver, signs), {}, {})
        for view, path in zip(views, slice_quiver.paths):
            component = PathQuiver(path, tuple(a for a in slice_quiver.arrows if a[0] in path))
            mods = tilting_modules(component)
            assert tuple(
                TiltingModule(tuple(IntervalModule(frozenset(s)) for _, _, s in keys))
                for keys in view.summands
            ) == mods
            on = component.vertices
            assert [dict(g) for g in view.g] == [
                dict(zip(on, g_from_dim_vector([signs[v - 1] for v in on],
                                               total_dim_vector(component, mod))))
                for mod in mods
            ]
            arrows, ends = tilting_hasse(component, mods)
            assert sorted(
                (a, b) if ahead else (b, a)
                for a, later in enumerate(view.arrows)
                for b, ahead in later
            ) == sorted(arrows)
            assert [len(at) for at in view.ends] == [
                sum(i == k for i, _ in ends) for k in range(len(mods))
            ]


class TestWorkCount:
    @pytest.mark.parametrize(
        "quiver", [brauer_line_quiver(5), brauer_cycle_quiver(5)], ids=["line5", "cycle5"]
    )
    def test_one_table_per_orientation_word(self, quiver, monkeypatch):
        built = []

        class Counted(repa.RigidityTable):
            def __init__(self, word):
                built.append(word)
                super().__init__(word)

        monkeypatch.setattr(glue, "RigidityTable", Counted)
        glued_hasse(quiver)
        labelled = set()
        for signs in enumerate_signs(quiver.n):
            slice_quiver = sign_slice_path_quiver(quiver, signs)
            arrows = set(slice_quiver.arrows)
            for path in slice_quiver.paths:
                labelled.add((path, tuple((u, v) in arrows for u, v in zip(path, path[1:]))))
        words = {word for _, word in labelled}
        assert len(built) == len(words) < len(labelled)


class TestUnsupported:
    def test_d4_slice_is_reported(self):
        with pytest.raises(UnsupportedComponentError) as err:
            glued_hasse(STAR_D4)
        assert err.value.signs == (1, 1, 1, -1)
        assert err.value.component == (1, 2, 3, 4)
        assert "+++-" in str(err.value)
        assert "component [1, 2, 3, 4] is D4" in str(err.value)

    def test_slice_quiver_is_opposite(self):
        p = sign_slice_path_quiver(THREE_CYCLE, (1, -1, 1))
        assert p.arrows == ((2, 1),)
        assert p.vertices == (1, 2, 3)


def slice_readings(quiver):
    """Per sign vector, the paths and words of the views read off the slice
    engine, up to the first unsupported slice, and that slice's error.  A
    path is its component's `breadth_first` order, which the view's g
    pieces follow, and its word is `signs[v] == -1` along it."""
    tables, views, out = {}, {}, []
    try:
        for signs, parts in SliceEngine(quiver, quiver.vertices).walk():
            readings = []
            for (graph, _, _), view in zip(parts, component_views(signs, parts, tables, views)):
                neighbours = neighbour_lists(graph.vertices, graph.edges)
                path = tuple(breadth_first(neighbours, graph.vertices))
                assert all(tuple(v for v, _ in g) == path for g in view.g)
                readings.append((path, tuple(signs[v - 1] == -1 for v in path[:-1])))
            out.append((signs, readings))
    except UnsupportedComponentError as exc:
        return out, exc
    return out, None


def pipeline_readings(quiver):
    """The same by the old slice pipeline, one sign vector at a time."""
    out = []
    for signs in enumerate_signs(quiver.n):
        try:
            slice_quiver = sign_slice_path_quiver(quiver, signs)
        except UnsupportedComponentError as exc:
            return out, exc
        out.append((signs, [(path, path_word(path, slice_quiver.arrows))
                            for path in slice_quiver.paths]))
    return out, None


class TestSliceReading:
    """Paths and words from the slice engine against the old slice pipeline,
    over every sign vector."""

    def check(self, quiver):
        got, got_error = slice_readings(quiver)
        want, want_error = pipeline_readings(quiver)
        assert got == want
        assert (got_error is None) == (want_error is None)
        if got_error is not None:
            assert got_error.signs == want_error.signs
            assert f"component {list(got_error.component)} is " in str(got_error)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_valued_quivers(self, seed):
        self.check(random_quiver(random.Random(seed), max_n=5, max_val=2))

    @settings(max_examples=40, deadline=None)
    @given(type_a_unions())
    def test_type_a_unions(self, quiver):
        self.check(quiver)

    def test_no_quiver_is_built_per_slice(self, monkeypatch):
        quiver = brauer_line_quiver(3)
        want = glued_hasse(quiver)

        def refuse(*args, **kwargs):
            raise AssertionError("a ValuedQuiver was built")

        monkeypatch.setattr(quiver_module.ValuedQuiver, "__init__", refuse)
        assert glued_hasse(quiver) == want
