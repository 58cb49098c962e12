from __future__ import annotations

import random

import pytest

from oracles import (
    cartan_matrix,
    g_from_dim_vector,
    identity_matrix,
    mat_mul,
    mat_vec,
    random_bipartite,
    reflect_at,
    sign_diagonal,
    sink_reflection_matrix,
)
from taudec.quiver import Arrow, QuiverError, Valuation, ValuedQuiver

SINGLE = ValuedQuiver(2, (Arrow(1, 2),))


class TestCartan:
    def test_single_arrow(self):
        assert cartan_matrix(SINGLE) == ((1, 0), (1, 1))

    def test_edgeless(self):
        assert cartan_matrix(ValuedQuiver(3)) == identity_matrix(3)

    def test_valued_arrow(self):
        q = ValuedQuiver(2, (Arrow(1, 2, Valuation(2, 1)),))
        assert cartan_matrix(q) == ((1, 0), (2, 1))

    def test_loop_rejected(self):
        with pytest.raises(QuiverError):
            cartan_matrix(ValuedQuiver(1, (Arrow(1, 1),)))

    def test_cycle_rejected(self):
        with pytest.raises(QuiverError):
            cartan_matrix(ValuedQuiver(2, (Arrow(1, 2), Arrow(2, 1))))
        with pytest.raises(QuiverError):
            cartan_matrix(ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1))))


class TestSignDiagonal:
    def test_examples(self):
        assert sign_diagonal((1, -1)) == ((1, 0), (0, -1))
        assert sign_diagonal((1, 1, 1)) == identity_matrix(3)

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            signs = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 6)))
            b = sign_diagonal(signs)
            assert mat_mul(b, b) == identity_matrix(len(signs))


class TestReflectAt:
    def test_inflow(self):
        assert reflect_at(SINGLE, 2, (1, 0)) == (1, 1)

    def test_edgeless_negates(self):
        assert reflect_at(ValuedQuiver(2), 1, (1, 0)) == (-1, 0)

    def test_involution(self):
        for x in ((1, 0), (0, 1), (3, -2)):
            assert reflect_at(SINGLE, 2, reflect_at(SINGLE, 2, x)) == x

    def test_requires_sink(self):
        with pytest.raises(QuiverError):
            reflect_at(SINGLE, 1, (1, 0))


class TestReflectionMatrix:
    def test_single_arrow(self):
        assert sink_reflection_matrix(SINGLE, (1, -1)) == ((1, 0), (1, -1))

    def test_edgeless_is_diagonal(self):
        assert sink_reflection_matrix(ValuedQuiver(2), (1, -1)) == sign_diagonal((1, -1))

    def test_signs_must_orient_source_to_sink(self):
        with pytest.raises(QuiverError):
            sink_reflection_matrix(SINGLE, (-1, 1))
        with pytest.raises(QuiverError):
            sink_reflection_matrix(SINGLE, (1, 1))


def reflections_composed(quiver, signs):
    """Matrix of the composite of reflect_at over all -1 vertices."""
    columns = []
    for j in range(quiver.n):
        x = tuple(1 if k == j else 0 for k in range(quiver.n))
        for a, s in enumerate(signs, start=1):
            if s == -1:
                x = reflect_at(quiver, a, x)
        columns.append(x)
    return tuple(tuple(columns[j][i] for j in range(quiver.n)) for i in range(quiver.n))


class TestMatrixIdentities:
    def test_on_200_random_bipartite_quivers(self):
        rng = random.Random(20240901)
        for _ in range(200):
            quiver, signs = random_bipartite(rng, max_n=8, max_val=3)
            n = quiver.n
            c = cartan_matrix(quiver)
            b = sign_diagonal(signs)
            s = sink_reflection_matrix(quiver, signs)
            assert s == mat_mul(c, b)
            assert mat_mul(s, s) == identity_matrix(n)
            assert mat_mul(b, b) == identity_matrix(n)
            two_i = tuple(
                tuple(2 * (i == j) - c[i][j] for j in range(n)) for i in range(n)
            )
            assert two_i == mat_mul(b, mat_mul(c, b))

    def test_reflections_compose_to_the_matrix(self):
        rng = random.Random(99)
        for _ in range(60):
            quiver, signs = random_bipartite(rng, max_n=6, max_val=3)
            s = sink_reflection_matrix(quiver, signs)
            assert reflections_composed(quiver, signs) == s
            x = tuple(rng.randint(-4, 4) for _ in range(quiver.n))
            y = x
            for a, sign in enumerate(signs, start=1):
                if sign == -1:
                    y = reflect_at(quiver, a, y)
            assert mat_vec(s, x) == y

    def test_reflections_commute(self):
        rng = random.Random(5)
        for _ in range(40):
            quiver, signs = random_bipartite(rng, max_n=6, max_val=3)
            sinks = [a for a, s in enumerate(signs, start=1) if s == -1]
            shuffled = sinks[:]
            rng.shuffle(shuffled)
            x = tuple(rng.randint(-3, 3) for _ in range(quiver.n))
            y1, y2 = x, x
            for a in sinks:
                y1 = reflect_at(quiver, a, y1)
            for a in shuffled:
                y2 = reflect_at(quiver, a, y2)
            assert y1 == y2


class TestGFromDimVector:
    def test_example(self):
        assert g_from_dim_vector((1, -1, 1), (2, 1, 1)) == (2, -1, 1)

    def test_all_plus_is_identity(self):
        assert g_from_dim_vector((1, 1, 1), (4, 5, 6)) == (4, 5, 6)

    def test_involution(self):
        signs = (1, -1, -1, 1)
        c = (3, 1, 4, 1)
        assert g_from_dim_vector(signs, g_from_dim_vector(signs, c)) == c

    def test_length_mismatch(self):
        with pytest.raises(QuiverError):
            g_from_dim_vector((1, -1), (1, 2, 3))
