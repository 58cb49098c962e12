from __future__ import annotations

import json

import pytest

from taudec import cli
from taudec.brauer import IdentityCheck

THREE_CYCLE_FILE = "n 3\na 1 2\na 2 3\na 3 1\n"
STAR_D4_FILE = "n 4\na 1 4\na 2 4\na 3 4\n"


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

    def test_malformed_file(self, quiver_file, capsys):
        code, _, err = run(capsys, "finite", quiver_file("n 2\na 9 9\n"))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "finite", str(tmp_path / "nope.txt"))
        assert code == 2

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


class TestHasse:
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


class TestBrauer:
    def test_line_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "line", "3", "--verify")
        assert (code, out) == (0, "OK 20\n")

    def test_cycle_verify(self, capsys):
        code, out, _ = run(capsys, "brauer", "cycle", "3", "--verify")
        assert (code, out) == (0, "OK 32\n")

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
