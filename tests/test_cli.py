from __future__ import annotations

import json
import math
import random
import sys
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    count_support_tilting_scan,
    disjoint_union,
    finiteness_witness_scan,
    random_quiver,
    random_type_a,
)
from taudec import cli, dynkin, glue, repa, signdec
from taudec.brauer import IdentityCheck, brauer_cycle_quiver, brauer_line_quiver
from taudec.glue import GluedHasse, glued_hasse
from taudec.quiver import format_signs, quiver_file_text
from taudec.signdec import INFINITE, count_support_tilting

THREE_CYCLE_FILE = "n 3\na 1 2\na 2 3\na 3 1\n"
STAR_D4_FILE = "n 4\na 1 4\na 2 4\na 3 4\n"
# too many vertices to index their sign vectors
OVERFLOW_FILE = "n 99999999999999999999\n"


@pytest.fixture
def quiver_file(tmp_path):
    def write(text, name="quiver.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFinite:
    def test_line_three(self, quiver_file, capsys, tmp_path):
        code, out, _ = run(capsys, "brauer", "line", "3", "--emit-quiver")
        path = tmp_path / "line3.txt"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "finite", str(path))
        assert code == 0
        assert out == "finite\n"

    def test_even_cycle_witness(self, quiver_file, capsys):
        path = quiver_file("n 2\na 1 2\na 1 2\na 2 1\na 2 1\n")
        code, out, _ = run(capsys, "finite", path)
        assert code == 0
        assert out.splitlines() == [
            "infinite",
            "witness: signs=+- component={1,2}",
        ]

    def test_sweep_witness_without_a_non_dynkin_component_exits_four(
        self, quiver_file, capsys, monkeypatch
    ):
        # mask 1 puts -1 on vertex 4 alone: its slice is the path 3 - 4 - 1
        monkeypatch.setattr(signdec, "transfer_count", lambda links, group, memo, witness: 1)
        path = quiver_file(quiver_file_text(brauer_cycle_quiver(4)))
        code, out, err = run(capsys, "finite", path)
        assert (code, out) == (4, "")
        assert err == "error: internal: witness +++- is Dynkin on (1, 2, 3, 4): internal bug\n"

    def test_malformed_file(self, quiver_file, capsys):
        code, _, err = run(capsys, "finite", quiver_file("n 2\na 9 9\n"))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "finite", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_edgeless_forty(self, quiver_file, capsys):
        code, out, _ = run(capsys, "finite", quiver_file("n 40\n"))
        assert (code, out) == (0, "finite\n")

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"n 2\n# caf\xe9\n")
        code, out, err = run(capsys, "finite", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestCount:
    def test_three_cycle(self, quiver_file, capsys):
        code, out, _ = run(capsys, "count", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (0, "14\n")

    def test_edgeless(self, quiver_file, capsys):
        code, out, _ = run(capsys, "count", quiver_file("n 3\n"))
        assert (code, out) == (0, "8\n")

    def test_infinite(self, quiver_file, capsys):
        code, out, _ = run(capsys, "count", quiver_file("n 2\na 1 2 2 2\n"))
        assert (code, out) == (0, "infinite\n")

    def test_edgeless_forty(self, quiver_file, capsys):
        code, out, _ = run(capsys, "count", quiver_file("n 40\n"))
        assert (code, out) == (0, "1099511627776\n")

    def test_union_of_brauer_lines(self, quiver_file, capsys):
        union = disjoint_union(brauer_line_quiver(5), brauer_line_quiver(6))
        code, out, _ = run(capsys, "count", quiver_file(quiver_file_text(union)))
        assert (code, out) == (0, f"{math.comb(10, 5) * math.comb(12, 6)}\n")

    def test_inexact_catalan_exits_four(self, quiver_file, capsys, monkeypatch):
        monkeypatch.setattr(dynkin, "math", types.SimpleNamespace(comb=lambda n, k: 1))
        code, out, err = run(capsys, "count", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: binom(")
        assert err.rstrip().endswith("internal bug")

    def test_count_past_the_int_digit_limit(self, quiver_file, capsys):
        # 2^15000 has 4,516 digits, more than str() gives by default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(2**15000)
        finally:
            sys.set_int_max_str_digits(limit)
        code, out, err = run(capsys, "count", quiver_file("n 15000\n"))
        assert (code, out, err) == (0, want + "\n", "")
        assert sys.get_int_max_str_digits() == limit


def scan_count_text(quiver) -> str:
    count = count_support_tilting_scan(quiver)
    return "infinite\n" if count is INFINITE else f"{count}\n"


def scan_finite_text(quiver) -> str:
    witness = finiteness_witness_scan(quiver)
    if witness is None:
        return "finite\n"
    signs, component = witness
    verts = ",".join(str(v) for v in component.vertices)
    return f"infinite\nwitness: signs={format_signs(signs)} component={{{verts}}}\n"


def test_count_and_finite_stdout_match_the_scan(quiver_file, capsys):
    rng = random.Random(1803)
    for k in range(201):
        max_val = rng.choice((1, 2, 3))
        if k % 3:
            quiver = random_quiver(rng, max_n=7, max_val=max_val)
        else:
            first = random_quiver(rng, max_n=4, max_val=max_val)
            quiver = disjoint_union(first, random_quiver(rng, max_n=4, max_val=max_val))
        path = quiver_file(quiver_file_text(quiver))
        assert run(capsys, "count", path) == (0, scan_count_text(quiver), "")
        assert run(capsys, "finite", path) == (0, scan_finite_text(quiver), "")


class TestSigndec:
    def test_three_cycle_rows(self, quiver_file, capsys):
        code, out, _ = run(
            capsys, "signdec", quiver_file(THREE_CYCLE_FILE), "--per-epsilon"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        rows = lines[1:]
        assert len(rows) == 8
        assert rows[0] == "+++  A1{1},A1{2},A1{3}  1  true"
        assert "+-+  A2{1,2},A1{3}  2  false" in rows

    def test_row_count_is_two_to_the_n(self, quiver_file, capsys):
        code, out, _ = run(capsys, "signdec", quiver_file("n 4\n"))
        assert code == 0
        assert len(out.splitlines()) == 1 + 16

    def test_infinite_slice_row(self, quiver_file, capsys):
        code, out, _ = run(capsys, "signdec", quiver_file("n 2\na 1 2 2 2\n"))
        assert code == 0
        assert "+-  non-Dynkin{1,2}  infinite  true" in out.splitlines()

    def test_overflowing_vertex_count_is_input_error(self, quiver_file, capsys):
        code, _, err = run(capsys, "signdec", quiver_file(OVERFLOW_FILE))
        assert code == 2
        assert err.startswith("error: quiver too large: ")


def standard_json(hasse: GluedHasse) -> str:
    payload = {
        "nodes": [
            {
                "id": k,
                "eps": list(node.signs),
                "summand_supports": [list(s) for s in node.supports],
                "g": list(node.g),
            }
            for k, node in enumerate(hasse.nodes)
        ],
        "arrows": [{"from": a, "to": b, "kind": kind} for a, b, kind in hasse.arrows],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestHasse:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_json_is_the_standard_encoding(self, seed):
        quiver = random_type_a(random.Random(seed), max_n=3)
        assume(count_support_tilting(quiver) is not INFINITE)
        hasse = glued_hasse(quiver)
        assert cli.hasse_json(hasse) == standard_json(hasse)

    def test_json_of_empty_lists(self):
        empty = GluedHasse((), ())
        assert cli.hasse_json(empty) == standard_json(empty) == '{\n  "nodes": [],\n  "arrows": []\n}\n'

    def test_json_three_cycle(self, quiver_file, capsys):
        code, out, _ = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 14
        assert len(payload["arrows"]) == 21
        kinds = [a["kind"] for a in payload["arrows"]]
        assert kinds.count("internal") == 6
        assert kinds.count("gluing") == 15
        node = payload["nodes"][0]
        assert set(node) == {"id", "eps", "summand_supports", "g"}
        assert node["eps"] == [1, 1, 1]
        assert node["g"] == [1, 1, 1]
        arrow = payload["arrows"][0]
        assert set(arrow) == {"from", "to", "kind"}

    def test_count_agrees_with_node_count(self, quiver_file, capsys):
        path = quiver_file(THREE_CYCLE_FILE)
        _, count_out, _ = run(capsys, "count", path)
        _, hasse_out, _ = run(capsys, "hasse", path)
        assert int(count_out) == len(json.loads(hasse_out)["nodes"])

    def test_deterministic_bytes(self, quiver_file, capsys):
        path = quiver_file(THREE_CYCLE_FILE)
        _, first, _ = run(capsys, "hasse", path, "--format", "dot")
        _, second, _ = run(capsys, "hasse", path, "--format", "dot")
        assert first == second

    def test_dot_output(self, quiver_file, capsys):
        code, out, _ = run(capsys, "hasse", quiver_file("n 1\n"), "--format", "dot")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph glued_hasse {"
        assert '  n0 [label="+ g=(1)"];' in lines
        assert '  n1 [label="- g=(-1)"];' in lines
        assert "  n0 -> n1 [style=dashed];" in lines
        assert lines[-1] == "}"

    def test_unsupported_slice_exits_three(self, quiver_file, capsys):
        code, _, err = run(capsys, "hasse", quiver_file(STAR_D4_FILE))
        assert code == 3
        assert "+++-" in err

    def test_overflowing_vertex_count_is_input_error(self, quiver_file, capsys):
        code, out, err = run(capsys, "hasse", quiver_file(OVERFLOW_FILE))
        assert code == 2
        assert out == ""
        assert err.startswith("error: quiver too large: ")

    def test_failed_self_check_exits_four(self, quiver_file, capsys, monkeypatch):
        # an all-zero g-vector breaks the sign law that glued_hasse checks
        original = glue.ComponentView.__init__

        def zero_g(view, table, path, signs):
            original(view, table, path, signs)
            view.g = tuple(tuple((v, 0) for v, _ in g) for g in view.g)

        monkeypatch.setattr(glue.ComponentView, "__init__", zero_g)
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: ")
        assert "internal bug" in err

    def test_negative_ext_exits_four(self, quiver_file, capsys, monkeypatch):
        # with no Hom anywhere, Ext^1(S, S) = 0 - <S, S> = -1 in the first table built
        monkeypatch.setattr(repa, "_hom", lambda word, x, y: 0)
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: negative Ext dimension between ")
        assert err.rstrip().endswith("internal bug")


class TestBrauer:
    def test_line_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "line", "3", "--verify")
        assert (code, out) == (0, "OK 20\n")

    def test_cycle_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "cycle", "3", "--verify")
        assert (code, out) == (0, "OK 32\n")

    def test_line_sixty_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "line", "60", "--verify")
        assert (code, out) == (0, f"OK {math.comb(120, 60)}\n")

    def test_cycle_thirty_one_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "cycle", "31", "--verify")
        assert (code, out) == (0, f"OK {2**61}\n")

    def test_even_cycle_notice(self, capsys):
        code, out, _ = run(capsys, "brauer", "cycle", "4", "--verify")
        assert (code, out) == (0, "infinite (expected: not tau-tilting-finite)\n")

    def test_emit_quiver_round_trips(self, capsys):
        from taudec.brauer import brauer_cycle_quiver
        from taudec.quiver import parse_quiver

        code, out, _ = run(capsys, "brauer", "cycle", "2", "--emit-quiver")
        assert code == 0
        assert parse_quiver(out) == brauer_cycle_quiver(2)

    def test_bad_n_is_input_error(self, capsys):
        code, _, err = run(capsys, "brauer", "line", "0", "--verify")
        assert code == 2


class TestIdentities:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--max-n", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines
        assert all(line.endswith(": pass") for line in lines)

    def test_sabotaged_table_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "verify_identities", lambda n: [IdentityCheck("total-sum", 1, 0, 1)]
        )
        code, out, _ = run(capsys, "identities", "--max-n", "1")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_non_positive_max_n_is_input_error(self, capsys, max_n):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["identities", "--max-n", max_n])
        assert exit_info.value.code == 2
        assert "error: argument --max-n" in capsys.readouterr().err
