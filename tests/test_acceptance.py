"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one `criterion N (...): PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them all.
"""

from __future__ import annotations

import math
import random

from oracles import (
    all_orientations,
    arrows_of_kind,
    cartan_matrix,
    euler_form,
    ext_dim_linear,
    hom_dim_linear,
    identity_matrix,
    indicator,
    interval_module,
    mat_mul,
    path_word,
    random_bipartite,
    reflect_at,
    sign_diagonal,
    sink_reflection_matrix,
    tilting_modules,
)
from taudec import cli
from taudec.brauer import (
    brauer_cycle_quiver,
    brauer_line_quiver,
    catalan_checks,
    verify_identities,
)
from taudec.dynkin import DynkinType, catalan, tilting_count
from taudec.glue import GLUING, INTERNAL, glued_hasse
from taudec.quiver import Arrow, ValuedQuiver
from taudec.repa import RigidityTable
from taudec.signdec import INFINITE, count_support_tilting

THREE_CYCLE = ValuedQuiver(3, (Arrow(1, 2), Arrow(2, 3), Arrow(3, 1)))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def test_criterion_1_brauer_line_counts():
    expected = [2, 6, 20, 70, 252, 924, 3432, 12870]
    got = [count_support_tilting(brauer_line_quiver(n)) for n in range(1, 9)]
    report(1, "brauer line counts", got == expected, f"got {got}")


def test_criterion_2_brauer_odd_cycle_counts():
    odd_ok = all(
        count_support_tilting(brauer_cycle_quiver(n)) == want
        for n, want in ((1, 2), (3, 32), (5, 512), (7, 8192))
    )
    even_ok = all(
        count_support_tilting(brauer_cycle_quiver(n)) is INFINITE for n in (2, 4, 6)
    )
    report(2, "brauer odd-cycle counts", odd_ok and even_ok)


def test_criterion_3_worked_example(tmp_path, capsys):
    path = tmp_path / "three_cycle.txt"
    path.write_text("n 3\na 1 2\na 2 3\na 3 1\n", encoding="utf-8")
    code = cli.main(["count", str(path)])
    printed = capsys.readouterr().out
    ok = code == 0 and printed == "14\n"

    hasse = glued_hasse(THREE_CYCLE)
    ok = ok and len(hasse.nodes) == 14 and len(hasse.arrows) == 21
    ok = ok and len(arrows_of_kind(hasse, INTERNAL)) == 6
    ok = ok and len(arrows_of_kind(hasse, GLUING)) == 15

    marked = [
        node
        for node in hasse.nodes
        if node.signs == (1, -1, 1)
        and set(node.supports) == {(1, 2), (1,), (3,)}
    ]
    ok = ok and len(marked) == 1 and marked[0].g == (2, -1, 1)

    def index_of(signs, supports):
        for k, node in enumerate(hasse.nodes):
            if node.signs == signs and set(node.supports) == supports:
                return k
        return None

    top = index_of((1, -1, 1), {(1, 2), (2,), (3,)})
    bottom = index_of((-1, -1, 1), {(1, 3), (2,), (3,)})
    ok = ok and top is not None and bottom is not None
    ok = ok and (top, bottom) in arrows_of_kind(hasse, GLUING)
    report(3, "three-cycle worked example", ok)


def test_criterion_4_dynkin_table():
    ok = all(tilting_count(DynkinType("A", n)) == catalan(n) for n in range(1, 9))
    ok = ok and all(
        tilting_count(DynkinType("BC", n)) == math.comb(2 * n - 1, n - 1)
        for n in range(2, 9)
    )
    d_expected = {4: 20, 5: 77, 6: 294}
    ok = ok and all(tilting_count(DynkinType("D", n)) == v for n, v in d_expected.items())
    ok = ok and all(
        tilting_count(DynkinType("D", n)) * (2 * n - 2)
        == (3 * n - 4) * math.comb(2 * n - 2, n - 2)
        for n in range(3, 11)
    )
    ok = ok and tilting_count(DynkinType("E", 6)) == 418
    ok = ok and tilting_count(DynkinType("E", 7)) == 2431
    ok = ok and tilting_count(DynkinType("E", 8)) == 17342
    ok = ok and tilting_count(DynkinType("F", 4)) == 66
    ok = ok and tilting_count(DynkinType("G", 2)) == 5
    ok = ok and tilting_count(DynkinType("D", 3)) == catalan(3)
    report(4, "dynkin tilting table", ok)


def test_criterion_5_enumerator_vs_table():
    ok = True
    for m in range(1, 7):
        for quiver in all_orientations(m):
            ok = ok and len(tilting_modules(quiver)) == catalan(m)
    report(5, "type-A enumerator matches Catalan", ok)


def test_criterion_6_combinatorial_lemmas():
    checks = verify_identities(12) + catalan_checks(12)
    report(6, "combinatorial identities", all(c.passed for c in checks))


def test_criterion_7_matrix_identities():
    rng = random.Random(271828)
    ok = True
    for _ in range(200):
        quiver, signs = random_bipartite(rng, max_n=8, max_val=3)
        n = quiver.n
        c = cartan_matrix(quiver)
        b = sign_diagonal(signs)
        s = sink_reflection_matrix(quiver, signs)
        composed = []
        for j in range(n):
            x = tuple(1 if k == j else 0 for k in range(n))
            for a, sign in enumerate(signs, start=1):
                if sign == -1:
                    x = reflect_at(quiver, a, x)
            composed.append(x)
        s_by_reflections = tuple(
            tuple(composed[j][i] for j in range(n)) for i in range(n)
        )
        two_i_minus_c = tuple(
            tuple(2 * (i == j) - c[i][j] for j in range(n)) for i in range(n)
        )
        ok = ok and s == mat_mul(c, b) == s_by_reflections
        ok = ok and mat_mul(s, s) == identity_matrix(n)
        ok = ok and mat_mul(b, b) == identity_matrix(n)
        ok = ok and two_i_minus_c == mat_mul(b, mat_mul(c, b))
    report(7, "matrix identities on 200 random bipartite quivers", ok)


def _invariants_hold(quiver: ValuedQuiver) -> bool:
    hasse = glued_hasse(quiver)
    n = quiver.n
    if len(hasse.nodes) != count_support_tilting(quiver):
        return False
    indegree = {k: 0 for k in range(len(hasse.nodes))}
    outdegree = {k: 0 for k in range(len(hasse.nodes))}
    successors: dict[int, list[int]] = {k: [] for k in range(len(hasse.nodes))}
    for a, b, _ in hasse.arrows:
        outdegree[a] += 1
        indegree[b] += 1
        successors[a].append(b)
    if any(indegree[k] + outdegree[k] != n for k in indegree):
        return False
    sources = [k for k, d in indegree.items() if d == 0]
    sinks = [k for k, d in outdegree.items() if d == 0]
    if len(sources) != 1 or hasse.nodes[sources[0]].signs != (1,) * n:
        return False
    if len(sinks) != 1 or hasse.nodes[sinks[0]].signs != (-1,) * n:
        return False
    gs = [node.g for node in hasse.nodes]
    if len(set(gs)) != len(gs):
        return False
    if any(
        gi * si <= 0 for node in hasse.nodes for gi, si in zip(node.g, node.signs)
    ):
        return False
    remaining = dict(indegree)
    queue = [k for k, d in remaining.items() if d == 0]
    removed = 0
    while queue:
        v = queue.pop()
        removed += 1
        for w in successors[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    return removed == len(hasse.nodes)


def test_criterion_8_structural_invariants():
    # the doubled 4-cycle is tau-tilting-infinite, so no restricted
    # Hasse output is attempted for it; the finite targets are checked
    targets = [THREE_CYCLE] + [brauer_line_quiver(n) for n in range(1, 5)]
    report(8, "glued Hasse structural invariants", all(map(_invariants_hold, targets)))


def test_criterion_9_hom_engine_soundness():
    # the rigidity table decides rigidity: its Ext^1 bit on every ordered
    # pair, the diagonal included, against the linear system, which also
    # checks the rule the table uses, Ext^1 != 0 exactly when the Euler form
    # is negative, and its premise, never both Hom and Ext^1
    ok = True
    for m in range(1, 6):
        for quiver in all_orientations(m):
            (path,) = quiver.paths
            table = RigidityTable(path_word(path, quiver.arrows))
            modules = [interval_module(path, span) for span in table.spans]
            for i, a in enumerate(modules):
                for j, b in enumerate(modules):
                    ext = table.ext_out[i] >> j & 1
                    ext_dim = ext_dim_linear(quiver, a, b)
                    form = euler_form(
                        quiver, indicator(quiver, a.support), indicator(quiver, b.support)
                    )
                    ok = ok and ext == ext_dim
                    ok = ok and bool(ext_dim) == (form < 0)
                    ok = ok and not (hom_dim_linear(quiver, a, b) and ext_dim)
                    ok = ok and not (i == j and ext)
    report(9, "Ext^1 table agrees with the linear system", ok)
