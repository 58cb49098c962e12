from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_orientations,
    bongartz_complete_scan,
    brute_maximal_rigid,
    fac_contains_scan,
    hom_dim_linear,
    path_with_orientation,
    tilting_hasse_pairs,
    tilting_modules_scan,
)
from taudec.dynkin import catalan
from taudec.quiver import Arrow, Valuation, ValuedQuiver
from taudec.repa import (
    IntervalModule,
    PathQuiver,
    TiltingModule,
    UnsupportedComponentError,
    bongartz_complete,
    delete_vertex,
    euler_form,
    ext_dim,
    fac_contains,
    hom_dim,
    indicator,
    interval,
    intervals,
    path_quiver,
    tilting_hasse,
    tilting_modules,
    total_dim_vector,
)

# path 2 -> 1 together with an isolated vertex 3
A2_DOWN = PathQuiver((1, 2), ((2, 1),))
A2_PLUS_POINT = PathQuiver((1, 2, 3), ((2, 1),))


def iv(*support):
    return IntervalModule(frozenset(support))


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
    def test_unit_vectors(self):
        assert euler_form(A2_DOWN, (1, 0), (1, 0)) == 1

    def test_crossing_arrow(self):
        assert euler_form(A2_DOWN, (0, 1), (1, 0)) == -1
        assert euler_form(A2_DOWN, (1, 0), (0, 1)) == 0

    def test_length_checked(self):
        with pytest.raises(ValueError):
            euler_form(A2_DOWN, (1, 0, 0), (0, 1))


class TestHomDim:
    def test_projective_onto_top(self):
        assert hom_dim(A2_DOWN, iv(1, 2), iv(2)) == 1

    def test_identity(self):
        for m in intervals(A2_DOWN):
            assert hom_dim(A2_DOWN, m, m) == 1

    def test_disjoint_supports(self):
        assert hom_dim(A2_DOWN, iv(2), iv(1)) == 0

    def test_socle_inclusion(self):
        assert hom_dim(A2_DOWN, iv(1), iv(1, 2)) == 1
        assert hom_dim(A2_DOWN, iv(2), iv(1, 2)) == 0

    def test_modules_must_live_on_the_quiver(self):
        with pytest.raises(ValueError):
            hom_dim(A2_DOWN, iv(1), iv(3))

    def test_agrees_with_linear_system_up_to_five_vertices(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                ivs = intervals(quiver)
                for a in ivs:
                    for b in ivs:
                        assert hom_dim(quiver, a, b) == hom_dim_linear(quiver, a, b)

    def test_agrees_on_disconnected_quivers(self):
        quiver = PathQuiver((1, 2, 3, 4, 5), ((2, 1), (4, 5)))
        ivs = intervals(quiver)
        for a in ivs:
            for b in ivs:
                assert hom_dim(quiver, a, b) == hom_dim_linear(quiver, a, b)


class TestExtDim:
    def test_extension_between_simples(self):
        assert ext_dim(A2_DOWN, iv(2), iv(1)) == 1

    def test_projectives_have_no_ext(self):
        # over 2 -> 1 the projectives are {1} and {1,2}
        for proj in (iv(1), iv(1, 2)):
            for n in intervals(A2_DOWN):
                assert ext_dim(A2_DOWN, proj, n) == 0

    def test_self_ext_vanishes(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                for a in intervals(quiver):
                    assert ext_dim(quiver, a, a) == 0


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

    def test_catalan_counts_up_to_eight_vertices(self):
        for m in (6, 7, 8):
            for quiver in all_orientations(m):
                assert len(tilting_modules(quiver)) == catalan(m)

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
        edges = tilting_hasse(A2_DOWN, mods)
        assert len(edges) == 1
        src, dst = edges[0]
        assert mods[src].supports() == ((1,), (1, 2))
        assert mods[dst].supports() == ((1, 2), (2,))

    def test_a1_has_no_arrows(self):
        assert tilting_hasse(PathQuiver((1,), ())) == ()

    def test_unique_source_is_the_projective_module(self):
        for m in range(1, 6):
            for quiver in all_orientations(m):
                mods = tilting_modules(quiver)
                edges = tilting_hasse(quiver, mods)
                with_incoming = {dst for _, dst in edges}
                sources = [k for k in range(len(mods)) if k not in with_incoming]
                assert len(sources) == 1
                source = mods[sources[0]]
                for x in intervals(quiver):
                    assert fac_contains(quiver, source, x)

    def test_linear_orientation_is_connected_with_catalan_nodes(self):
        quiver = path_with_orientation(5, 0)
        mods = tilting_modules(quiver)
        edges = tilting_hasse(quiver, mods)
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
    def test_paper_shape_first_slice(self):
        quiver = PathQuiver((1, 2, 3), ((2, 1),))
        done = bongartz_complete(quiver, (iv(2), iv(3)), 1)
        assert done.supports() == ((1, 2), (2,), (3,))

    def test_paper_shape_second_slice(self):
        quiver = PathQuiver((1, 2, 3), ((1, 3),))
        done = bongartz_complete(quiver, (iv(2), iv(3)), 1)
        assert done.supports() == ((1, 3), (2,), (3,))

    def test_edgeless(self):
        quiver = PathQuiver((1, 2), ())
        done = bongartz_complete(quiver, (iv(2),), 1)
        assert done.supports() == ((1,), (2,))

    def test_validates_size(self):
        quiver = PathQuiver((1, 2, 3), ((2, 1),))
        with pytest.raises(ValueError):
            bongartz_complete(quiver, (iv(2),), 1)

    def test_validates_missing_vertex(self):
        quiver = PathQuiver((1, 2, 3), ((2, 1),))
        with pytest.raises(ValueError):
            bongartz_complete(quiver, (iv(1, 2), iv(3)), 1)

    def test_validates_rigidity(self):
        quiver = PathQuiver((1, 2, 3), ((3, 2),))
        with pytest.raises(ValueError):
            bongartz_complete(quiver, (iv(3), iv(2)), 1)


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


class TestAgainstDirectScans:
    """The rigidity-table fast paths against their direct ext_dim forms."""

    @settings(max_examples=40, deadline=None)
    @given(path_quivers())
    def test_tilting_modules_and_hasse(self, quiver):
        mods = tilting_modules(quiver)
        assert mods == tilting_modules_scan(quiver)
        assert tilting_hasse(quiver) == tilting_hasse_pairs(quiver, mods)
        assert tilting_hasse(quiver, mods[::-1]) == tilting_hasse_pairs(quiver, mods[::-1])

    @settings(max_examples=25, deadline=None)
    @given(path_quivers())
    def test_fac_contains(self, quiver):
        tables = {}
        for tilt in tilting_modules(quiver, tables):
            for x in intervals(quiver):
                got = fac_contains(quiver, tilt, x, tables)
                assert got == fac_contains_scan(quiver, tilt, x)

    @settings(max_examples=25, deadline=None)
    @given(path_quivers())
    def test_bongartz_complete(self, quiver):
        tables = {}
        for v in quiver.vertices:
            for shared in tilting_modules(delete_vertex(quiver, v), tables):
                got = bongartz_complete(quiver, shared.summands, v, tables)
                assert got == bongartz_complete_scan(quiver, shared.summands, v)


def test_total_dim_vector():
    t = TiltingModule((iv(1), iv(1, 2), iv(3)))
    quiver = PathQuiver((1, 2, 3), ((2, 1),))
    assert total_dim_vector(quiver, t) == (2, 1, 1)
    assert indicator(quiver, frozenset((1, 3))) == (1, 0, 1)
