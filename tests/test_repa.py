from __future__ import annotations

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IntervalModule,
    LabelledTable,
    PathQuiver,
    TiltingModule,
    all_orientations,
    bits,
    bongartz_complete_scan,
    brute_maximal_rigid,
    delete_vertex,
    ext_dim_linear,
    euler_form,
    fac_contains,
    fac_contains_scan,
    hom_dim_linear,
    indicator,
    interval,
    interval_module,
    intervals,
    path_quiver,
    path_with_orientation,
    path_word,
    span_euler_form,
    tilting_hasse,
    tilting_hasse_pairs,
    tilting_modules,
    tilting_modules_scan,
    total_dim_vector,
)
from taudec import repa
from taudec.dynkin import catalan
from taudec.glue import UnsupportedComponentError
from taudec.quiver import Arrow, Valuation, ValuedQuiver
from taudec.repa import RigidityTable

# path 2 -> 1 together with an isolated vertex 3
A2_DOWN = PathQuiver((1, 2), ((2, 1),))
A2_PLUS_POINT = PathQuiver((1, 2, 3), ((2, 1),))


def iv(*support):
    return IntervalModule(frozenset(support))


def table_entries(quiver, table, path):
    """Each ordered pair of the table's intervals on the labelled path, with
    the linear-system Hom next to the table's Ext^1 bit."""
    modules = [interval_module(path, span) for span in table.spans]
    for i, a in enumerate(modules):
        for j, b in enumerate(modules):
            yield a, b, hom_dim_linear(quiver, a, b), table.ext_out[i] >> j & 1


def ext(quiver, m, n):
    """The Ext^1 bit between two intervals of a one-path quiver, from the
    table of its orientation word."""
    (path,) = quiver.paths
    table = RigidityTable(path_word(path, quiver.arrows))
    index = {interval_module(path, span): i for i, span in enumerate(table.spans)}
    return table.ext_out[index[m]] >> index[n] & 1


def span(path, m):
    """An interval's positions [start, stop) on a labelled path."""
    places = sorted(path.index(v) for v in m.support)
    return places[0], places[-1] + 1


def euler(quiver, m, n):
    """`repa._euler_matrix` on two intervals of a one-path quiver."""
    (path,) = quiver.paths
    spans = [span(path, m), span(path, n)]
    return repa._euler_matrix(path_word(path, quiver.arrows), spans)[0][1]


class TestPathQuiver:
    def test_from_valued_quiver(self):
        q = ValuedQuiver(3, (Arrow(2, 1),))
        p = path_quiver(q)
        assert p.vertices == (1, 2, 3)
        assert p.paths == ((1, 2), (3,))

    def test_path_order_starts_at_smaller_endpoint(self):
        p = PathQuiver((1, 2, 3), ((3, 1), (1, 2)))
        assert p.paths == ((2, 1, 3),)

    def test_rejects_valued_arrow(self):
        with pytest.raises(UnsupportedComponentError):
            path_quiver(ValuedQuiver(2, (Arrow(1, 2, Valuation(2, 2)),)))

    def test_rejects_loop(self):
        with pytest.raises(UnsupportedComponentError):
            path_quiver(ValuedQuiver(1, (Arrow(1, 1),)))

    def test_rejects_two_cycle(self):
        with pytest.raises(UnsupportedComponentError):
            PathQuiver((1, 2), ((1, 2), (2, 1)))

    def test_rejects_branch_vertex(self):
        with pytest.raises(UnsupportedComponentError) as err:
            PathQuiver((1, 2, 3, 4), ((1, 4), (2, 4), (3, 4)))
        assert err.value.component == (1, 2, 3, 4)

    def test_rejects_cycle_component(self):
        with pytest.raises(UnsupportedComponentError):
            PathQuiver((1, 2, 3), ((1, 2), (2, 3), (1, 3)))

    def test_delete_vertex(self):
        p = PathQuiver((1, 2, 3), ((1, 2), (2, 3)))
        assert delete_vertex(p, 2) == PathQuiver((1, 3), ())
        assert delete_vertex(p, 1) == PathQuiver((2, 3), ((2, 3),))

    def test_empty_quiver_allowed(self):
        p = PathQuiver((), ())
        assert p.paths == ()
        assert tilting_modules(p) == (TiltingModule(()),)


class TestIntervals:
    def test_counts(self):
        assert len(intervals(PathQuiver((1,), ()))) == 1
        assert len(intervals(A2_DOWN)) == 3
        assert len(intervals(PathQuiver((1, 2, 3), ((1, 2), (2, 3))))) == 6
        assert len(intervals(A2_PLUS_POINT)) == 4

    def test_factory_validates_contiguity(self):
        p = PathQuiver((1, 2, 3), ((1, 2), (2, 3)))
        assert interval(p, (1, 2)) == iv(1, 2)
        with pytest.raises(ValueError):
            interval(p, (1, 3))
        with pytest.raises(ValueError):
            interval(A2_PLUS_POINT, (2, 3))

    def test_order_by_min_then_size(self):
        got = [tuple(sorted(m.support)) for m in intervals(A2_PLUS_POINT)]
        assert got == [(1,), (1, 2), (2,), (3,)]


class TestEulerForm:
    """`repa._euler_matrix` on position spans is the Euler form of the labels."""

    def test_unit_vectors(self):
        assert euler(A2_DOWN, iv(1), iv(1)) == 1

    def test_crossing_arrow(self):
        assert euler(A2_DOWN, iv(2), iv(1)) == -1
        assert euler(A2_DOWN, iv(1), iv(2)) == 0

    def test_agrees_with_the_labelled_form_up_to_five_vertices(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                for a in intervals(quiver):
                    for b in intervals(quiver):
                        assert euler(quiver, a, b) == euler_form(
                            quiver, indicator(quiver, a.support), indicator(quiver, b.support)
                        )


def every_word(max_vertices=8):
    """Every orientation word of a path on 1 to `max_vertices` vertices, with
    the spans of its table: 255 words up to eight vertices."""
    for size in range(1, max_vertices + 1):
        spans = [(start, stop) for start in range(size) for stop in range(start + 1, size + 1)]
        for word in product((False, True), repeat=size - 1):
            yield word, spans


# SHA-256 prefixes of repr((spans, ext_out, rigid, tilting, dims, arrows, ends)),
# fed word by word in `every_word` order, per vertex count, as the tables of
# the pairwise Euler form, mask backtracking and `_bits` scans computed them.
PAIRWISE_TABLE_DIGESTS = {
    1: "0f3e57b6add5e485", 2: "6ca1785f13af4ba9", 3: "17313ca6497f0fe9",
    4: "11d5c0d29e9db860", 5: "d5abafd3bf27175e", 6: "0503449b0810af51",
    7: "6848ca43fe3ce9f1", 8: "d6446b5dcd182b98",
}


class TestEulerMatrix:
    """The bit-count Euler matrix against the pairwise form it replaced."""

    def test_equals_the_pairwise_form_up_to_eight_vertices(self):
        for word, spans in every_word():
            assert repa._euler_matrix(word, spans) == [
                [span_euler_form(word, x, y) for y in spans] for x in spans
            ], word

    def test_tables_equal_the_pairwise_tables_up_to_eight_vertices(self, rigidity_tables):
        digests = {size: hashlib.sha256() for size in PAIRWISE_TABLE_DIGESTS}
        for word, spans in every_word():
            table = rigidity_tables[word]
            euler = [[span_euler_form(word, x, y) for y in spans] for x in spans]
            assert table.spans == tuple(spans)
            assert table.ext_out == tuple(
                sum((form < 0) << j for j, form in enumerate(row)) for row in euler
            )
            assert table.rigid == tuple(
                sum((min(form, euler[j][i]) >= 0) << j for j, form in enumerate(row))
                for i, row in enumerate(euler)
            )
            assert table.members == tuple(tuple(bits(mask)) for mask in table.tilting)
            digests[table.size].update(repr((
                table.spans, table.ext_out, table.rigid, table.tilting, table.dims,
                table.arrows, table.ends,
            )).encode())
        assert {size: h.hexdigest()[:16] for size, h in digests.items()} == PAIRWISE_TABLE_DIGESTS


class TestDuality:
    """D = Hom_k(-, k) keeps dimension vectors and turns Ext^1 around, so the
    table of the complementary word, every arrow reversed, is the table with
    its mutation arrows reversed."""

    def test_complementary_word_table_up_to_eight_vertices(self, rigidity_tables):
        for word, table in rigidity_tables.items():
            dual = rigidity_tables[tuple(not forward for forward in word)]
            for name in ("spans", "full", "rigid", "tilting", "members", "dims", "ends"):
                assert getattr(dual, name) == getattr(table, name), (word, name)
            assert dual.arrows == tuple((i, j, not forward) for i, j, forward in table.arrows)
            count = len(table.spans)
            assert dual.ext_out == tuple(
                sum((table.ext_out[j] >> i & 1) << j for j in range(count)) for i in range(count)
            ), word


class TestHomDim:
    def test_projective_onto_top(self):
        assert hom_dim_linear(A2_DOWN, iv(1, 2), iv(2)) == 1

    def test_identity(self):
        for m in intervals(A2_DOWN):
            assert hom_dim_linear(A2_DOWN, m, m) == 1

    def test_disjoint_supports(self):
        assert hom_dim_linear(A2_DOWN, iv(2), iv(1)) == 0

    def test_socle_inclusion(self):
        assert hom_dim_linear(A2_DOWN, iv(1), iv(1, 2)) == 1
        assert hom_dim_linear(A2_DOWN, iv(2), iv(1, 2)) == 0

    def test_agrees_with_linear_system_up_to_five_vertices(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                (path,) = quiver.paths
                table = RigidityTable(path_word(path, quiver.arrows))
                for a, b, hom_dim, ext_bit in table_entries(quiver, table, path):
                    assert ext_bit == ext_dim_linear(quiver, a, b)
                    assert not (hom_dim and ext_bit)

    def test_agrees_on_disconnected_quivers(self):
        # intervals of different paths have neither Hom nor Ext^1, so each
        # path's table on its own decides every pair
        quiver = PathQuiver((1, 2, 3, 4, 5), ((2, 1), (4, 5)))
        checked = set()
        for path in quiver.paths:
            table = RigidityTable(path_word(path, quiver.arrows))
            for a, b, hom_dim, ext_bit in table_entries(quiver, table, path):
                assert ext_bit == ext_dim_linear(quiver, a, b)
                assert not (hom_dim and ext_bit)
                checked.add((a, b))
        for a in intervals(quiver):
            for b in intervals(quiver):
                if (a, b) not in checked:
                    assert hom_dim_linear(quiver, a, b) == ext_dim_linear(quiver, a, b) == 0


class TestExtDim:
    def test_extension_between_simples(self):
        assert ext(A2_DOWN, iv(2), iv(1)) == 1

    def test_projectives_have_no_ext(self):
        # over 2 -> 1 the projectives are {1} and {1,2}
        for proj in (iv(1), iv(1, 2)):
            for n in intervals(A2_DOWN):
                assert ext(A2_DOWN, proj, n) == 0

    def test_self_ext_vanishes(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                for a in intervals(quiver):
                    assert ext(quiver, a, a) == 0


class TestTiltingModules:
    def test_a2(self):
        mods = tilting_modules(A2_DOWN)
        assert {t.supports() for t in mods} == {((1,), (1, 2)), ((1, 2), (2,))}

    def test_a1(self):
        assert tilting_modules(PathQuiver((1,), ())) == (TiltingModule((iv(1),)),)

    def test_a4_has_fourteen(self):
        for quiver in all_orientations(4):
            assert len(tilting_modules(quiver)) == 14

    def test_catalan_counts_any_orientation(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                assert len(tilting_modules(quiver)) == catalan(m)

    def test_catalan_counts_up_to_eight_vertices(self, rigidity_tables):
        for m in (6, 7, 8):
            for quiver in all_orientations(m):
                (path,) = quiver.paths
                table = rigidity_tables[path_word(path, quiver.arrows)]
                tables = {(path, quiver.arrows): LabelledTable(path, quiver.arrows, table)}
                assert len(tilting_modules(quiver, tables)) == catalan(m)

    def test_product_over_components(self):
        quiver = PathQuiver((1, 2, 3, 4, 5), ((1, 2), (4, 5)))
        assert len(tilting_modules(quiver)) == catalan(2) * catalan(1) * catalan(2)

    def test_maximal_rigid_sets_all_have_full_size(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                for clique in brute_maximal_rigid(quiver):
                    assert len(clique) == m

    def test_enumeration_matches_brute_force(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                backtracked = {frozenset(t.summands) for t in tilting_modules(quiver)}
                assert backtracked == set(brute_maximal_rigid(quiver))


class TestFacContains:
    def test_full_projective_generates_everything(self):
        projectives = TiltingModule((iv(1), iv(1, 2)))
        for x in intervals(A2_DOWN):
            assert fac_contains(A2_DOWN, projectives, x)

    def test_summands_always_contained(self):
        for t in tilting_modules(A2_DOWN):
            for x in t.summands:
                assert fac_contains(A2_DOWN, t, x)

    def test_negative_example(self):
        t = TiltingModule((iv(1, 2), iv(2)))
        assert not fac_contains(A2_DOWN, t, iv(1))


class TestTiltingHasse:
    def test_a2_direction(self):
        mods = tilting_modules(A2_DOWN)
        edges, _ = tilting_hasse(A2_DOWN, mods)
        assert len(edges) == 1
        src, dst = edges[0]
        assert mods[src].supports() == ((1,), (1, 2))
        assert mods[dst].supports() == ((1, 2), (2,))

    def test_a1_has_no_arrows(self):
        assert tilting_hasse(PathQuiver((1,), ())) == ((), ((0, iv(1)),))

    def test_open_ends_of_a2(self):
        # dropping {1,2} leaves {1} or {2}, which misses a vertex; dropping {1} or {2} mutates
        mods = tilting_modules(A2_DOWN)
        assert tilting_hasse(A2_DOWN, mods)[1] == ((0, iv(1, 2)), (1, iv(1, 2)))

    def test_unique_source_is_the_projective_module(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                mods = tilting_modules(quiver)
                edges, _ = tilting_hasse(quiver, mods)
                with_incoming = {dst for _, dst in edges}
                sources = [k for k in range(len(mods)) if k not in with_incoming]
                assert len(sources) == 1
                source = mods[sources[0]]
                for x in intervals(quiver):
                    assert fac_contains(quiver, source, x)

    def test_linear_orientation_is_connected_with_catalan_nodes(self):
        quiver = path_with_orientation(5, 0)
        mods = tilting_modules(quiver)
        edges, _ = tilting_hasse(quiver, mods)
        assert len(mods) == catalan(5)
        parent = list(range(len(mods)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        assert len({find(k) for k in range(len(mods))}) == 1


class TestBongartzComplete:
    """Worked completions by the scanning oracle, the gluing reference's building block."""

    def test_paper_shape_first_slice(self):
        quiver = PathQuiver((1, 2, 3), ((2, 1),))
        done = bongartz_complete_scan(quiver, (iv(2), iv(3)), 1)
        assert done.supports() == ((1, 2), (2,), (3,))

    def test_paper_shape_second_slice(self):
        quiver = PathQuiver((1, 2, 3), ((1, 3),))
        done = bongartz_complete_scan(quiver, (iv(2), iv(3)), 1)
        assert done.supports() == ((1, 3), (2,), (3,))

    def test_edgeless(self):
        quiver = PathQuiver((1, 2), ())
        done = bongartz_complete_scan(quiver, (iv(2),), 1)
        assert done.supports() == ((1,), (2,))


@st.composite
def path_quivers(draw, max_vertices=7):
    """Disjoint unions of 1-3 type-A paths, randomly labelled and oriented."""
    total = draw(st.integers(1, max_vertices))
    parts = draw(st.integers(1, min(3, total)))
    cuts = sorted(draw(st.sets(
        st.integers(1, max(1, total - 1)), min_size=parts - 1, max_size=parts - 1
    )))
    labels = draw(st.permutations(range(1, 3 * max_vertices + 1)))[:total]
    flips = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    arrows = []
    for start, stop in zip([0] + cuts, cuts + [total]):
        for k in range(start, stop - 1):
            u, v = labels[k], labels[k + 1]
            arrows.append((v, u) if flips[k] else (u, v))
    return PathQuiver(tuple(labels), tuple(arrows))


def check_table_mutation_graph(word):
    """The table of `word` against direct scans of the word's own path, labelled
    by position, which holds the table's order: its tilting modules, its arrows
    against `tilting_hasse_pairs`, its open ends by Happel-Unger and its
    dimension vectors."""
    table = RigidityTable(word)
    positions = tuple(range(table.size))
    component = PathQuiver(positions, tuple(
        (p, p + 1) if ahead else (p + 1, p) for p, ahead in enumerate(table.word)
    ))
    spans = [interval_module(positions, span) for span in table.spans]
    mods = [TiltingModule(tuple(spans[i] for i in bits(t))) for t in table.tilting]
    assert tuple(mods) == tilting_modules_scan(component)
    arrows = tuple((i, j) if ahead else (j, i) for i, j, ahead in table.arrows)
    assert arrows == tilting_hasse_pairs(component, mods)
    # Happel-Unger: a rest has one complement exactly when it misses a vertex
    assert {(i, spans[x], p) for i, x, p in table.ends} == {
        (i, x, p)
        for i, tilt in enumerate(mods)
        for x in tilt.summands
        for p in x.support.difference(*(m.support for m in tilt.summands if m != x))
    }
    assert table.dims == tuple(
        tuple(sum(p in m.support for m in tilt.summands) for p in positions)
        for tilt in mods
    )


class TestAgainstDirectScans:
    """The rigidity-table fast paths against their direct ext_dim forms."""

    @settings(max_examples=40, deadline=None)
    @given(path_quivers())
    def test_tilting_modules_and_hasse(self, quiver):
        mods = tilting_modules(quiver)
        assert mods == tilting_modules_scan(quiver)
        for order in (mods, mods[::-1]):
            arrows, ends = tilting_hasse(quiver, order)
            assert arrows == tilting_hasse_pairs(quiver, order)
            # Happel-Unger: a rest has one complement exactly when it is not sincere
            assert set(ends) == {
                (i, x)
                for i, tilt in enumerate(order)
                for x in tilt.summands
                if set().union(*(m.support for m in tilt.summands if m != x))
                != set(quiver.vertices)
            }

    @settings(max_examples=40, deadline=None)
    @given(path_quivers())
    def test_table_mutation_graph(self, quiver):
        for path in quiver.paths:
            check_table_mutation_graph(path_word(path, quiver.arrows))

    @pytest.mark.parametrize("vertices", range(1, 7))
    def test_table_mutation_graph_on_every_word(self, vertices):
        for word in product((False, True), repeat=vertices - 1):
            check_table_mutation_graph(word)

    @settings(max_examples=25, deadline=None)
    @given(path_quivers())
    def test_fac_contains(self, quiver):
        tables = {}
        for tilt in tilting_modules(quiver, tables):
            for x in intervals(quiver):
                got = fac_contains(quiver, tilt, x, tables)
                assert got == fac_contains_scan(quiver, tilt, x)


def test_total_dim_vector():
    t = TiltingModule((iv(1), iv(1, 2), iv(3)))
    quiver = PathQuiver((1, 2, 3), ((2, 1),))
    assert total_dim_vector(quiver, t) == (2, 1, 1)
    assert indicator(quiver, frozenset((1, 3))) == (1, 0, 1)
