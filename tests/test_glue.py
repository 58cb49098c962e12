from __future__ import annotations

import json
import random
import runpy
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    IntervalModule,
    arrows_of_kind,
    PathQuiver,
    TiltingModule,
    disjoint_union,
    first_non_a_row,
    g_fan_check,
    glued_hasse_scan,
    gluing_arrows,
    hasse_nodes,
    opposite,
    path_word,
    random_quiver,
    random_type_a,
    relabelled,
    sign_slice_path_quiver,
    small_corpus,
    tilting_hasse,
    tilting_hasse_pairs,
    tilting_modules,
    total_dim_vector,
    transposed,
)
from taudec import cli, glue, quiver as quiver_module, repa
from taudec.brauer import brauer_cycle_quiver, brauer_line_quiver
from taudec.glue import GLUING, INTERNAL, UnsupportedComponentError, component_views, glued_hasse
from taudec.quiver import UNIT, Arrow, Valuation, ValuedQuiver, breadth_first, format_signs
from taudec.quiver import neighbour_lists, parse_quiver, quiver_file_text
from taudec.signdec import INFINITE, SliceEngine, _sign_slice, count_support_tilting, enumerate_signs
from taudec.signdec import finiteness_witness

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))
ORIENTED_SQUARE = ValuedQuiver(4, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 4), Arrow(4, 1)))
STAR_D4 = ValuedQuiver(4, (Arrow(1, 4), Arrow(2, 4), Arrow(3, 4)))
# Components 1-4-6-3, 2-7 and 5 interleave their labels, so the product order
# of a vertex-deleted slice's tilting modules is not one sort of all summands.
INTERLEAVED = ValuedQuiver(7, (Arrow(3, 6), Arrow(4, 1), Arrow(4, 6), Arrow(7, 2)))
ZIGZAG = ValuedQuiver(5, (Arrow(1, 2), Arrow(3, 2), Arrow(3, 4), Arrow(5, 4)))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def check_invariants(quiver, hasse=None):
    hasse = hasse or glued_hasse(quiver)
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

    def test_walk_out_of_mask_order_is_an_internal_bug(self, monkeypatch):
        # reversed, the walk still pairs every key, but its -1 end arrives first
        original = SliceEngine.walk
        monkeypatch.setattr(SliceEngine, "walk", lambda engine: reversed(list(original(engine))))
        with pytest.raises(ArithmeticError, match="do not pair up: internal bug"):
            glued_hasse(THREE_CYCLE)


class TestCollisionCheck:
    def test_colliding_g_vectors_are_an_internal_bug(self, monkeypatch):
        # the first module's dimension vector for every module keeps the sign
        # law but gives every node of a slice the same g
        original = glue.ComponentView.__init__

        def g_is_first(view, table, path):
            original(view, table, path)
            view.dims = view.dims[:1] * len(view.dims)

        monkeypatch.setattr(glue.ComponentView, "__init__", g_is_first)
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
    """Views of one table per path length against tables and mutation per slice."""

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

    # unions with interleaved labels, where a rest's keys in one sort would
    # put the gluing arrows out of order; the derandomised draws miss them
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(type_a_unions(), st.randoms(use_true_random=False))
    @example(INTERLEAVED, random.Random(0))
    @example(relabelled(disjoint_union(brauer_line_quiver(3), ValuedQuiver(4, ZIGZAG.arrows[:3])),
                        (1, 3, 4, 2, 5, 6, 7)), random.Random(0))
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


def check_views(quiver, signs, views):
    """Views of the slice components of `signs` against the oracles: the
    tilting modules, their dimension vectors, mutation arrows as the slice
    reads them and open ends."""
    slice_quiver = sign_slice_path_quiver(quiver, signs)
    for view, path in zip(views, slice_quiver.paths):
        component = PathQuiver(path, tuple(a for a in slice_quiver.arrows if a[0] in path))
        mods = tilting_modules(component)
        assert tuple(
            TiltingModule(tuple(IntervalModule(frozenset(s)) for _, _, s in keys))
            for keys in view.summands
        ) == mods
        on = component.vertices
        assert [dict(dims) for dims in view.dims] == [
            dict(zip(on, total_dim_vector(component, mod))) for mod in mods
        ]
        turned = signs[view.path[0] - 1] == 1
        arrows, ends = tilting_hasse(component, mods)
        assert sorted(
            (a, b) if ahead != turned else (b, a)
            for a, later in enumerate(view.arrows)
            for b, ahead in later
        ) == sorted(arrows)
        assert [len(at) for at in view.ends] == [
            sum(i == k for i, _ in ends) for k in range(len(mods))
        ]


class TestComponentViews:
    @settings(max_examples=40, deadline=None)
    @given(type_a_unions(), st.data())
    def test_views_read_word_tables_in_label_order(self, quiver, data):
        signs = tuple(data.draw(st.lists(st.sampled_from((1, -1)), min_size=quiver.n,
                                         max_size=quiver.n)))
        # shared dicts: a labelled component of both sign vectors is read at
        # the second through the view built at the first
        tables, views = {}, {}
        read = 0
        for at in (signs, tuple(-s for s in signs)):
            try:
                sign_slice_path_quiver(quiver, at)
            except UnsupportedComponentError:
                continue
            check_views(quiver, at, component_views(at, _sign_slice(quiver, at), tables, views))
            read += 1
        assume(read)

    @pytest.mark.parametrize(
        "quiver", [brauer_line_quiver(4), brauer_cycle_quiver(3)], ids=["line4", "cycle3"]
    )
    def test_opposite_signs_read_the_duals(self, quiver, monkeypatch):
        # every arrow of a Brauer quiver has its reverse, so a slice and the
        # slice of the opposite signs are the same labelled graph, read through
        # the same views
        built = []
        original = glue.ComponentView.__init__

        def counted(view, table, path):
            built.append(path)
            original(view, table, path)

        monkeypatch.setattr(glue.ComponentView, "__init__", counted)
        for signs in enumerate_signs(quiver.n):
            opposite = tuple(-s for s in signs)
            tables, views = {}, {}
            first = component_views(signs, _sign_slice(quiver, signs), tables, views)
            check_views(quiver, signs, first)
            count = len(built)
            second = component_views(opposite, _sign_slice(quiver, opposite), tables, views)
            check_views(quiver, opposite, second)
            assert len(built) == count
            assert all(a is b for a, b in zip(first, second, strict=True))

        # so the opposite slice's nodes are the slice's, g negated, in the same
        # order, and its internal arrows are the slice's reversed
        monkeypatch.undo()
        hasse = glued_hasse(quiver)
        ids = {}
        for k, node in enumerate(hasse.nodes):
            ids.setdefault(node.signs, []).append(k)
        internal = set(arrows_of_kind(hasse, INTERNAL))
        for signs, mine in ids.items():
            theirs = ids[tuple(-s for s in signs)]
            assert [hasse.nodes[k].g for k in theirs] == [
                tuple(-x for x in hasse.nodes[k].g) for k in mine
            ]
            twin = dict(zip(mine, theirs, strict=True))
            assert {(twin[b], twin[a]) for a, b in internal if a in twin} == {
                (a, b) for a, b in internal if a in set(theirs)
            }


class TestWorkCount:
    @pytest.mark.parametrize(
        "quiver", [brauer_line_quiver(5), brauer_cycle_quiver(5)], ids=["line5", "cycle5"]
    )
    def test_one_table_per_orientation_word(self, quiver, monkeypatch):
        # one table per path length, for the alternating word that puts -1 at
        # the path's start, and one view per labelled path whatever its signs
        built, viewed = [], []

        class Counted(repa.RigidityTable):
            def __init__(self, word):
                built.append(tuple(word))
                super().__init__(word)

        original = glue.ComponentView.__init__

        def counted(view, table, path):
            viewed.append(tuple(path))
            original(view, table, path)

        monkeypatch.setattr(glue, "RigidityTable", Counted)
        monkeypatch.setattr(glue.ComponentView, "__init__", counted)
        glued_hasse(quiver)
        labelled = set()
        for signs in enumerate_signs(quiver.n):
            slice_quiver = sign_slice_path_quiver(quiver, signs)
            labelled |= {(path, path_word(path, slice_quiver.arrows))
                         for path in slice_quiver.paths}
        paths = {path for path, _ in labelled}
        lengths = sorted({len(path) for path in paths})
        assert sorted(built, key=len) == [
            tuple(p % 2 == 0 for p in range(size - 1)) for size in lengths
        ]
        assert len(built) < len({word for _, word in labelled})
        assert sorted(viewed) == sorted(paths)
        assert len(viewed) < len(labelled)


class TestCorpus:
    """Every small quiver, both signs of every view: `glued_hasse` raises
    UnsupportedComponentError at the first row of the slice engine with a
    component not of type A, and otherwise keeps the structural invariants
    and passes the g-vector fan check."""

    def test_hasse_relation(self):
        corpus = small_corpus()
        built = 0
        for quiver in corpus:
            unsupported = first_non_a_row(quiver)
            try:
                hasse = glued_hasse(quiver)
            except UnsupportedComponentError as exc:
                assert format_signs(exc.signs) == unsupported
                continue
            assert unsupported is None
            check_invariants(quiver, hasse)
            g_fan_check(cli.hasse_json(hasse))
            built += 1
        assert (len(corpus), built) == (1 + 15 + 2675 + 218, 103)


class TestUnsupported:
    def test_d4_slice_is_reported(self):
        with pytest.raises(UnsupportedComponentError) as err:
            glued_hasse(STAR_D4)
        assert err.value.signs == (1, 1, 1, -1)
        assert err.value.component == (1, 2, 3, 4)
        assert "+++-" in str(err.value)
        assert "component [1, 2, 3, 4] is D4" in str(err.value)

    def test_no_node_is_built_before_the_unsupported_slice(self, monkeypatch):
        # the first slices of the D4 star beside a Brauer line are type A; the
        # star's D4 slice comes later in mask order, and every slice is typed first
        built = []

        class Counted(glue.HasseNode):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(glue, "HasseNode", Counted)
        quiver = disjoint_union(STAR_D4, brauer_line_quiver(3))
        with pytest.raises(UnsupportedComponentError) as err:
            glued_hasse(quiver)
        assert format_signs(err.value.signs) == first_non_a_row(quiver) == "+++-+++"
        assert built == []
        glued_hasse(brauer_line_quiver(3))
        assert built  # the count sees every node of a supported quiver

    def test_slice_quiver_is_opposite(self):
        p = sign_slice_path_quiver(THREE_CYCLE, (1, -1, 1))
        assert p.arrows == ((2, 1),)
        assert p.vertices == (1, 2, 3)


def slice_readings(quiver):
    """Per sign vector, the paths and words of the views read off the slice
    engine, up to the first unsupported slice, and that slice's error.  A
    path is its component's `breadth_first` order, which the view's
    dimension pieces follow, and its word is `signs[v] == -1` along it."""
    tables, views, out = {}, {}, []
    try:
        for signs, parts in SliceEngine(quiver).walk():
            readings = []
            for (graph, _, _), view in zip(parts, component_views(signs, parts, tables, views)):
                neighbours = neighbour_lists(graph.vertices, graph.edges)
                path = tuple(breadth_first(neighbours, graph.vertices))
                assert all(tuple(v for v, _ in dims) == path for dims in view.dims)
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


def hasse_or_none(quiver):
    try:
        return glued_hasse(quiver)
    except UnsupportedComponentError:
        return None


DUALITY_QUIVERS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: random_quiver(random.Random(seed), max_n=5)),
    st.integers(0, 2**32 - 1).map(lambda seed: random_type_a(random.Random(seed), max_n=4)),
)


class TestDuality:
    """Q and its opposite: A^op = kQ^op/rad^2, and g -> -g is an order-reversing
    bijection from sτ-tilt A to sτ-tilt A^op (Adachi-Iyama-Reiten 2014, Theorem
    2.14).  The slice of Q at e is that of Q^op at -e with every arrow reversed."""

    def check(self, quiver):
        dual = opposite(quiver)
        assert count_support_tilting(quiver) == count_support_tilting(dual)
        assert (finiteness_witness(quiver) is None) == (finiteness_witness(dual) is None)
        # mask m of Q against the complement mask of Q^op: the rows run in reverse
        rows = [(parts, two_term) for _, parts, two_term in SliceEngine(quiver).rows()]
        dual_rows = [(parts, two_term) for _, parts, two_term in SliceEngine(dual).rows()]
        assert rows == dual_rows[::-1]
        hasse, dual_hasse = hasse_or_none(quiver), hasse_or_none(dual)
        assert (hasse is None) == (dual_hasse is None)
        if hasse is not None:
            index = {node.g: j for j, node in enumerate(dual_hasse.nodes)}
            image = [index[tuple([-x for x in node.g])] for node in hasse.nodes]
            assert sorted(image) == list(range(len(dual_hasse.nodes)))
            reversed_arrows = [(image[b], image[a], kind) for a, b, kind in hasse.arrows]
            assert sorted(reversed_arrows) == sorted(dual_hasse.arrows)

    @settings(max_examples=40, deadline=None)
    @given(DUALITY_QUIVERS)
    @example(ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)),)))  # Q^op: 2 -> 1 valued (2, 1)
    @example(ValuedQuiver(4, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 4))))  # a one-way path
    def test_random_quivers(self, quiver):
        self.check(quiver)

    def test_small_corpus_share(self):
        for quiver in small_corpus()[::13]:  # 224 of 2,909 members
            self.check(quiver)


@st.composite
def mirrored_quivers(draw, max_vertices=6, valued=True):
    """Two-way paths, with loops at their ends, and two-way cycles, valued
    where `valued` allows, side by side with up to two lone vertices.  Each arrow's reverse has
    its valuation, transposed or not, so every link reads `out == into`: the
    quiver is mirrored.  A valued edge or an even cycle exits 3."""
    lone = draw(st.integers(0, 2))
    quiver = None
    while quiver is None or quiver.n + lone < max_vertices and draw(st.booleans()):
        size = draw(st.integers(1, max_vertices - lone - (quiver.n if quiver else 0)))
        cycle = size >= 3 and draw(st.booleans())
        vals = st.sampled_from((UNIT, UNIT, UNIT, Valuation(1, 2), Valuation(2, 2)) if valued
                               else (UNIT,))
        arrows = [Arrow(u, u % size + 1, draw(vals)) for u in range(1, size + cycle)]
        arrows += [Arrow(a.tgt, a.src, draw(st.sampled_from((transposed(a.val), a.val))))
                   for a in arrows]
        arrows += [Arrow(v, v) for v in sorted({1, size}) if not cycle and draw(st.booleans())]
        part = ValuedQuiver(size, arrows)
        quiver = part if quiver is None else disjoint_union(quiver, part)
    return disjoint_union(quiver, ValuedQuiver(lone)) if lone else quiver


def perfbench_random_path():
    """The random path of perfbench's seed-0 `hasse` workload, relabelled as there."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"), run_name="workloads")
    inputs = workloads["inputs_of"](workloads["build"]("hasse", 0))
    return parse_quiver(inputs["random-path5"].text())


TWO_WAY_D4 = ValuedQuiver(4, STAR_D4.arrows + opposite(STAR_D4).arrows)
# mirrored, with the slice BC2 at +- and at -+
TWO_WAY_BC2 = ValuedQuiver(2, (Arrow(1, 2, Valuation(1, 2)), Arrow(2, 1, Valuation(2, 1))))


@st.composite
def partly_mirrored_quivers(draw):
    """A `mirrored_quivers` draw with one two-way link made one-way, or with
    its reverse given another unordered valuation, beside a `random_type_a`
    piece or not: some complement masks keep one slice tuple, others do not."""
    quiver = draw(mirrored_quivers(max_vertices=5, valued=draw(st.booleans())).filter(
        lambda q: any(a.src < a.tgt for a in q.arrows)))
    arrows = list(quiver.arrows)
    there = draw(st.sampled_from([a for a in arrows if a.src < a.tgt]))
    back = next(a for a in arrows if (a.src, a.tgt) == (there.tgt, there.src))
    others = [val for val in (UNIT, Valuation(1, 2), Valuation(2, 2))
              if val.unordered() != there.val.unordered()]
    val = draw(st.sampled_from([None, *others]))
    if val is None:
        arrows.remove(draw(st.sampled_from((there, back))))
    else:
        arrows[arrows.index(back)] = Arrow(back.src, back.tgt, val)
    quiver = ValuedQuiver(quiver.n, arrows)
    if draw(st.booleans()):
        quiver = disjoint_union(quiver, random_type_a(draw(st.randoms()), max_n=2))
    return quiver


class TestMirroredCopy:
    """A mask copies its complement's slice when the complement comes first
    and the engine gave both one slice tuple; against the scan, which builds
    every slice.  A mirrored quiver copies every mask with -1 at vertex 1."""

    def check(self, quiver, rng):
        images = list(range(1, quiver.n + 1))
        rng.shuffle(images)
        for q in (quiver, relabelled(quiver, images)):
            unsupported = first_non_a_row(q)
            if unsupported is not None:
                with pytest.raises(UnsupportedComponentError) as err:
                    glued_hasse(q)
                assert format_signs(err.value.signs) == unsupported
                continue
            hasse, want = glued_hasse(q), glued_hasse_scan(q)
            assert hasse.nodes == want.nodes
            assert hasse.arrows == want.arrows

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(mirrored_quivers(), st.randoms(use_true_random=False))
    @example(TWO_WAY_D4, random.Random(0))
    @example(TWO_WAY_BC2, random.Random(0))
    def test_against_the_scan(self, quiver, rng):
        self.check(quiver, rng)

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(partly_mirrored_quivers(), st.randoms(use_true_random=False))
    @example(perfbench_random_path(), random.Random(0))
    @example(THREE_CYCLE, random.Random(0))
    def test_partly_mirrored_against_the_scan(self, quiver, rng):
        self.check(quiver, rng)

    def test_unsupported_slice_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bc2.q"
        path.write_text(quiver_file_text(TWO_WAY_BC2), encoding="utf-8")
        assert cli.main(["hasse", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unsupported component type: sign vector +-: component [1, 2] is BC2, "
            "not type A\n"
        )

    def test_copied_g_left_unnegated_is_an_internal_bug(self, tmp_path, capsys, monkeypatch):
        # the slice -++ of Brauer line 3 is copied from +--; keeping the copied
        # g's sign gives each of its nodes the g of the node it copies
        class Unnegated(glue.HasseNode):
            __slots__ = ()

            def __init__(self, signs, supports, g):
                if signs == (-1, 1, 1):
                    g = tuple([-x for x in g])
                super().__init__(signs, supports, g)

        monkeypatch.setattr(glue, "HasseNode", Unnegated)
        with pytest.raises(ArithmeticError, match="node g-vectors collide: internal bug"):
            glued_hasse(brauer_line_quiver(3))
        path = tmp_path / "line3.q"
        path.write_text(quiver_file_text(brauer_line_quiver(3)), encoding="utf-8")
        assert cli.main(["hasse", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: node g-vectors collide: internal bug\n"

    def test_copied_g_of_the_three_cycle_left_unnegated_is_an_internal_bug(
            self, tmp_path, capsys, monkeypatch):
        # the three-cycle is not mirrored, but its slice --- keeps no edge, as
        # +++ does, so --- is copied from +++; keeping the copied g's sign
        # gives its node the g of the node it copies
        class Unnegated(glue.HasseNode):
            __slots__ = ()

            def __init__(self, signs, supports, g):
                if signs == (-1, -1, -1):
                    g = tuple([-x for x in g])
                super().__init__(signs, supports, g)

        monkeypatch.setattr(glue, "HasseNode", Unnegated)
        with pytest.raises(ArithmeticError, match="node g-vectors collide: internal bug"):
            glued_hasse(THREE_CYCLE)
        path = tmp_path / "three-cycle.q"
        path.write_text(quiver_file_text(THREE_CYCLE), encoding="utf-8")
        assert cli.main(["hasse", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: node g-vectors collide: internal bug\n"


class TestMirroredWork:
    @pytest.mark.parametrize(
        "quiver, copied",
        [(brauer_line_quiver(5), range(16, 32)), (brauer_cycle_quiver(5), range(16, 32)),
         (ZIGZAG, [31]), (THREE_CYCLE, [7]), (perfbench_random_path(), range(24, 32))],
        ids=["line5", "cycle5", "zigzag5", "three-cycle", "random-path5"],
    )
    def test_views_are_read_for_built_slices_only(self, quiver, copied, monkeypatch):
        # a mask after its complement with one slice tuple reads no view: a
        # mirrored quiver's masks with -1 at vertex 1, the zigzag's ----- and
        # the three-cycle's --- (no edge kept, as at the all +1 mask), and the
        # random path's --***, where its one one-way arrow 2 -> 1 is kept at
        # neither mask and every other link runs both ways
        seen = []
        original = glue.component_views

        def counted(signs, *args):
            seen.append(signs)
            return original(signs, *args)

        monkeypatch.setattr(glue, "component_views", counted)
        glued_hasse(quiver)
        masks = list(enumerate_signs(quiver.n))
        assert seen == [signs for mask, signs in enumerate(masks) if mask not in copied]
