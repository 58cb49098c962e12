from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import random
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    count_support_tilting_scan,
    disjoint_union,
    first_non_a_row,
    finiteness_witness_scan,
    random_quiver,
    random_type_a,
    relabelled,
    small_corpus,
)
import taudec
from taudec import brauer, cli, dynkin, glue, repa, signdec
from taudec.brauer import IdentityCheck, brauer_cycle_quiver, brauer_line_quiver
from taudec.glue import GluedHasse, glued_hasse
from taudec.quiver import QuiverError, Valuation, format_signs, parse_quiver, quiver_file_text
from taudec.signdec import INFINITE, count_support_tilting, finiteness_witness

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
        monkeypatch.setattr(signdec, "transfer_count", lambda quiver, witness=False: 1)
        path = quiver_file(quiver_file_text(brauer_cycle_quiver(4)))
        code, out, err = run(capsys, "finite", path)
        assert (code, out) == (4, "")
        assert err == "error: internal: witness +++- is Dynkin on (1, 2, 3, 4): internal bug\n"

    def test_lone_vertex_witness_exits_four(self, quiver_file, capsys, monkeypatch):
        # the sweep never visits a lone vertex, yet the self-check still names it
        monkeypatch.setattr(signdec, "transfer_count", lambda quiver, witness=False: 1)
        code, out, err = run(capsys, "finite", quiver_file("n 2\n"))
        assert (code, out) == (4, "")
        assert err == "error: internal: witness +- is Dynkin on (2,): internal bug\n"

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


def test_corpus_members_through_main(quiver_file, capsys):
    """Every 248th member of `small_corpus` (12 of 2,909) through
    `cli.main`: `count`, `finite` and `hasse --format json` print what the
    library gives, and `hasse` exits 3 naming the signs of the engine's
    first row with a component not of type A."""
    seen = set()
    for quiver in small_corpus()[::248]:
        path = quiver_file(quiver_file_text(quiver))
        count = count_support_tilting(quiver)
        count_text = "infinite\n" if count is INFINITE else f"{count}\n"
        assert run(capsys, "count", path) == (0, count_text, "")
        witness = finiteness_witness(quiver)
        finite = "finite\n"
        if witness is not None:
            signs, component = witness
            verts = ",".join(map(str, component.vertices))
            finite = f"infinite\nwitness: signs={format_signs(signs)} component={{{verts}}}\n"
        assert run(capsys, "finite", path) == (0, finite, "")
        unsupported = first_non_a_row(quiver)
        code, out, err = run(capsys, "hasse", path, "--format", "json")
        if unsupported is None:
            assert (code, out, err) == (0, cli.hasse_json(glued_hasse(quiver)), "")
        else:
            assert (code, out) == (3, "")
            assert err.startswith(f"error: unsupported component type: sign vector {unsupported}:")
        valued = any(arrow.val != Valuation(1, 1) for arrow in quiver.arrows)
        seen.add((code, valued, count is INFINITE))
    # the rule draws exit-0 and exit-3, valued and unit, finite and infinite members
    assert {code for code, _, _ in seen} == {0, 3}
    assert {valued for _, valued, _ in seen} == {True, False}
    assert {infinite for _, _, infinite in seen} == {True, False}


def relabelled_file(text: str):
    """A builder of the quiver file `text`, relabelled by a permutation drawn from the rng."""
    def build(rng: random.Random):
        quiver = parse_quiver(text)
        return relabelled(quiver, rng.sample(range(1, quiver.n + 1), quiver.n))

    return build


# name: (seed, builder); `hasse` exits 3 on every input with a slice that is
# not type A, the D4 star and the valued ones
PIN_INPUTS = {
    "three-cycle": (1, relabelled_file(THREE_CYCLE_FILE)),
    "brauer-cycle-5": (2, relabelled_file(quiver_file_text(brauer_cycle_quiver(5)))),
    "brauer-line-4": (3, relabelled_file(quiver_file_text(brauer_line_quiver(4)))),
    "loops-on-a-zigzag": (
        4, relabelled_file("n 5\na 1 1\na 2 1\na 2 3\na 3 3 2 3\na 4 3\na 4 5\na 5 4\n")
    ),
    "isolated-vertices": (5, relabelled_file("n 6\na 2 4\na 4 5\na 5 4\na 6 6\n")),
    "valued-path": (6, relabelled_file("n 4\na 1 2 1 2\na 3 2\na 3 4\n")),
    "valued-two-way-edge": (7, relabelled_file("n 3\na 1 2 2 2\na 2 3\n")),
    "even-cycle-with-tail": (
        8, relabelled_file("n 5\na 1 2\na 3 2\na 3 4\na 1 4\na 4 5\na 5 5\n")
    ),
    "edgeless": (9, relabelled_file("n 4\n")),
    "random-type-a": (24, lambda rng: random_type_a(rng, max_n=4)),
    "random-valued": (10, lambda rng: random_quiver(rng, max_n=6, max_val=2)),
    "star-d4": (12, relabelled_file(STAR_D4_FILE)),
}
PIN_COMMANDS = {
    "count": ("count",),
    "finite": ("finite",),
    "signdec": ("signdec",),
    "hasse json": ("hasse", "--format", "json"),
    "hasse dot": ("hasse", "--format", "dot"),
}


def pin_input(name: str) -> str:
    seed, build = PIN_INPUTS[name]
    return quiver_file_text(build(random.Random(seed)))


def pinned_outputs(path: str, capsys) -> dict[str, tuple[int, str]]:
    """Exit code and SHA-256 of stdout for each pinned command on one file."""
    out = {}
    for command, argv in PIN_COMMANDS.items():
        code, stdout, _ = run(capsys, argv[0], path, *argv[1:])
        out[command] = (code, hashlib.sha256(stdout.encode()).hexdigest())
    return out


# exit code and SHA-256 of stdout per input and command, recorded before the
# slice layer's graph walks moved into `quiver`; any change of output fails here
STDOUT_PINS: dict[str, dict[str, tuple[int, str]]] = {
    "brauer-cycle-5": {
        "count": (0, "240269e94afb4bbc4c643851e366bf4f0d870ff0753d250b854f748cf3516285"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "f8247a43da69dbd8c30ace3c1712189f7d168109a36e914819403aa5a23acccf"),
        "hasse json": (0, "1ee1874a68e0ec140419b27962cc41c448365ab280e29b2631f0644c964b8535"),
        "hasse dot": (0, "f30c3d39a03503ab58772118006c1dcebb33056123aaa6e595a0f7cbbb6a4f45"),
    },
    "brauer-line-4": {
        "count": (0, "6442bc26a7c562f5afe6467dab36365c709909f6a81afcecfc0c25cff0f1bab0"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "8334ade5e3f9547bef3772dc2bf2d65879e8eff3f1f94991254de19d35b72563"),
        "hasse json": (0, "556cb158f7bfcf9de094c9ed22d6516bd8926d3a9385ad3bac679bbea09d3686"),
        "hasse dot": (0, "d2e33ca7f3ed61f2d319bb85ac63fca439b267643c1a059ee251af2a4db606d6"),
    },
    "edgeless": {
        "count": (0, "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "ba7956d8a04961878ea41d3b10981499041741d75f21809745422eb8f43e0786"),
        "hasse json": (0, "f9c75dfb140ae770c71ba8ba52542f190e6509add8d9887164b67604ac9bbe29"),
        "hasse dot": (0, "6a07cf6917d57be1dc70c5f31789029d0defb5c868d04b20018604659e088433"),
    },
    "even-cycle-with-tail": {
        "count": (0, "5f5495f2b3545b6c8657ed8540c5d44c522b31c3507b94338a6bf45b5fdc6f34"),
        "finite": (0, "c929c52f21b6e6244006b93093b83a823379dcae2e64f111d3d3e7ac44e32808"),
        "signdec": (0, "87fd134075962d0e42e3f6f79ae364b2ea9c2c39de0fe8cdb0b173a356bf8850"),
        "hasse json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "hasse dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "isolated-vertices": {
        "count": (0, "56292515f7d3a7110811eb8de26b3f75f82a0766aa5a1fd66ebcfcb84fe6d5ff"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "07165415c389480d786daa2dcfadac27a8a28b6b767335ba92e3a4892e1ad01d"),
        "hasse json": (0, "ce04855f3c8ca5d20fd4cca7126d05ff5867f7826ab4c591a31d7f3350b48d8c"),
        "hasse dot": (0, "73bafd22a1d29a514bd3eedc07110095837ab9e2f6ab395d9515054906a910fe"),
    },
    "loops-on-a-zigzag": {
        "count": (0, "4c005f84cfaf4ccea894c12b193c1fba0207ffd615da6f61f1f8c130d2a0c9f1"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "a48ce332f3af4ce596ec5b97c5114cca44740f75bd019a779afd78dbb7dc662f"),
        "hasse json": (0, "3ea4f5fec55d8abc9b5b279759f658212cf4af1a4b1590848076c72bdb5724d9"),
        "hasse dot": (0, "f0cbaaeb3fd3ece89ae093553c2e714d2ed126c409c109fe453695a14e74e0fb"),
    },
    "random-type-a": {
        "count": (0, "30f3032e967a0509e2dbd5b0d3bd5878d1aca70a86c468c88f28e9220298423c"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "18af76ca0064436c0465f0febca18146f9413e83aaa79823b30666ab75429d27"),
        "hasse json": (0, "0580ce77f30c1763405cfde71f6154074524ad0fe1e4d340096abe40d917b87b"),
        "hasse dot": (0, "a9431cb35eb5be9a92593451c61f49a63020de137afe79d8306cb3c73ec09f1c"),
    },
    "random-valued": {
        "count": (0, "5f5495f2b3545b6c8657ed8540c5d44c522b31c3507b94338a6bf45b5fdc6f34"),
        "finite": (0, "9948fc532617b77c256e7a5fb81bdf9ae15e3c0a087ec280994a805239a881ef"),
        "signdec": (0, "67075583a3e50acc9ae02c8dfa51eb05dc8811c7ce8de445f86671451c3ac8e4"),
        "hasse json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "hasse dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "star-d4": {
        "count": (0, "7ea9844ae84eccbf55e8330640865e36c43521e45a1baec24233327aab7e6595"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "5fbd17621c05e20f81d5e495a7cac8b9a5f25c09bc5c820ba6c0c37500d8afa0"),
        "hasse json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "hasse dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "three-cycle": {
        "count": (0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "d990ceb1782faa1f7e16e6b70ad56b62fd39d4e89d1ad7750779cd840855589b"),
        "hasse json": (0, "6fa1f324c55d19aeaeb5d0d6403892f0aca9088921e0bb71a2818210e552a0cb"),
        "hasse dot": (0, "62eb5a9fba804e5a0a10d01f9552e9c4b2a5a4a9ecfff60686c830acc7424b95"),
    },
    "valued-path": {
        "count": (0, "6442bc26a7c562f5afe6467dab36365c709909f6a81afcecfc0c25cff0f1bab0"),
        "finite": (0, "82de77371fd3c2f3b9e104f6881e50336bfbd8902a2fe8ce8b44508ad58643f0"),
        "signdec": (0, "69f27c82beb701d7c20e89acf31e58ac857f8a72058589b80d53e4f2fb2ba9bd"),
        "hasse json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "hasse dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "valued-two-way-edge": {
        "count": (0, "5f5495f2b3545b6c8657ed8540c5d44c522b31c3507b94338a6bf45b5fdc6f34"),
        "finite": (0, "d0a5111b6b37edc605458833ce49173931fde6d1b35accee26d9b2407bd556f8"),
        "signdec": (0, "dcfcb27e6aba493bf4d2e8b8124b2d1ec745bd307a1a9f56f27b50cb33bc01e8"),
        "hasse json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "hasse dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}


@pytest.mark.parametrize("name", sorted(PIN_INPUTS))
def test_stdout_is_pinned(name, quiver_file, capsys):
    assert pinned_outputs(quiver_file(pin_input(name)), capsys) == STDOUT_PINS[name]


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
        code, out, err = run(capsys, "signdec", quiver_file(OVERFLOW_FILE))
        assert (code, out) == (2, "")
        assert err.startswith("error: quiver too large: ")

    @pytest.mark.parametrize(
        "error", [ValueError("graph is disconnected"), QuiverError("bad edge (2, 3)")],
        ids=["value-error", "quiver-error"],
    )
    def test_slice_classification_fault_exits_four(
        self, quiver_file, capsys, monkeypatch, error
    ):
        # the three-cycle's first slice component with an edge is the unit path {2, 3},
        # at signs ++-, typed by `shape_type` without `classify`
        original = signdec.shape_type

        def faulty(shape):
            if shape != (1, ()):  # two or more vertices
                raise error
            return original(shape)

        monkeypatch.setattr(signdec, "shape_type", faulty)
        code, out, err = run(capsys, "signdec", quiver_file(THREE_CYCLE_FILE))
        assert code == 4
        assert out.splitlines()[1:] == ["+++  A1{1},A1{2},A1{3}  1  true"]
        assert err == (
            "error: internal: slice of signs ++- on vertices (1, 2, 3), "
            f"component (2, 3): {error}: internal bug\n"
        )

    @pytest.mark.parametrize(
        "error", [ValueError("graph is disconnected"), QuiverError("bad edge (1, 2)")],
        ids=["value-error", "quiver-error"],
    )
    def test_valued_slice_classification_fault_exits_four(
        self, quiver_file, capsys, monkeypatch, error
    ):
        # the first slice component with an edge is BC2 {1, 2}, at signs +-, typed by `classify`
        def faulty(graph):
            raise error

        monkeypatch.setattr(signdec, "classify", faulty)
        code, out, err = run(capsys, "signdec", quiver_file("n 2\na 1 2 1 2\na 2 1 1 3\n"))
        assert code == 4
        assert out.splitlines()[1:] == ["++  A1{1},A1{2}  1  true"]
        assert err == (
            "error: internal: slice of signs +- on vertices (1, 2), "
            f"component (1, 2): {error}: internal bug\n"
        )


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
        # an all-zero dimension vector breaks the sign law that glued_hasse checks
        original = glue.ComponentView.__init__

        def zero_g(view, table, path):
            original(view, table, path)
            view.dims = tuple(tuple((v, 0) for v, _ in piece) for piece in view.dims)

        monkeypatch.setattr(glue.ComponentView, "__init__", zero_g)
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: ")
        assert "internal bug" in err

    def test_unpaired_open_end_exits_four(self, quiver_file, capsys, monkeypatch):
        original = repa.RigidityTable.__init__

        def drop_last_end(table, word):
            original(table, word)
            table.ends = table.ends[:-1]

        monkeypatch.setattr(repa.RigidityTable, "__init__", drop_last_end)
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (4, "")
        # the open-end keys are checked in gluing order, mask first
        assert err == (
            "error: internal: open mutation ends below +++ at vertex 2 do not pair up: "
            "internal bug\n"
        )

    def test_undirected_euler_form_exits_four(self, quiver_file, capsys, monkeypatch):
        # a zero Euler matrix gives <S, S> = 0 for the simple S of the first table built
        monkeypatch.setattr(repa, "_euler_matrix", lambda word, spans: [
            [0] * len(spans) for _ in spans
        ])
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (4, "")
        assert err == (
            "error: internal: Euler form <(0, 1), (0, 1)> = 0 breaks directedness: internal bug\n"
        )

    def test_euler_form_negative_both_ways_exits_four(self, quiver_file, capsys, monkeypatch):
        # -1 off the diagonal is negative both ways on the first pair of the
        # first table with two intervals
        monkeypatch.setattr(repa, "_euler_matrix", lambda word, spans: [
            [1 if x == y else -1 for y in spans] for x in spans
        ])
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (4, "")
        assert err == (
            "error: internal: Euler form <(0, 1), (0, 2)> = -1 breaks directedness: "
            "internal bug\n"
        )

    def test_third_completion_exits_four(self, quiver_file, capsys, monkeypatch):
        # with every mask rigid, each rest of the star's three-vertex slice has four
        # completions, in the first table with more than two vertices
        original = repa.RigidityTable._tilting

        def all_rigid(table):
            table.rigid = (table.full,) * len(table.spans)
            return original(table)

        monkeypatch.setattr(repa.RigidityTable, "_tilting", all_rigid)
        code, out, err = run(capsys, "hasse", quiver_file("n 3\na 1 3\na 2 3\n"))
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: almost complete tilting module ")
        assert err.rstrip().endswith("has 4 completions: internal bug")

    def test_zeroed_piece_of_a_later_view_exits_four(self, quiver_file, capsys, monkeypatch):
        # every slice of the edgeless two-vertex quiver has two views, and the one
        # on vertex 2 comes second; the sign law is checked once per view
        original = glue.ComponentView.__init__

        def zero_later_view(view, table, path):
            original(view, table, path)
            if 1 not in path:
                view.dims = tuple(tuple((v, 0) for v, _ in piece) for piece in view.dims)

        monkeypatch.setattr(glue.ComponentView, "__init__", zero_later_view)
        code, out, err = run(capsys, "hasse", quiver_file("n 2\n"))
        assert (code, out) == (4, "")
        assert err == (
            "error: internal: g piece ((2, 0),) violates the sign law at ++: internal bug\n"
        )

    def test_unsigned_node_g_exits_four(self, quiver_file, capsys, monkeypatch):
        # a node's g-vector is its signs applied to its dimension vector; without
        # them the all-+1 and all-(-1) slices of the three-cycle give the same g
        monkeypatch.setattr(glue, "mul", lambda sign, dim: dim)
        code, out, err = run(capsys, "hasse", quiver_file(THREE_CYCLE_FILE))
        assert (code, out) == (4, "")
        assert err == "error: internal: node g-vectors collide: internal bug\n"

    def test_piece_missing_a_vertex_exits_four(self, quiver_file, capsys, monkeypatch):
        # the last module of each view of more than one vertex loses its last
        # vertex; the first such view is the path 2 - 3 at ++- of Brauer line 3
        original = glue.ComponentView.__init__

        def drop_vertex(view, table, path):
            original(view, table, path)
            if len(path) > 1:
                view.dims = view.dims[:-1] + (view.dims[-1][:-1],)

        monkeypatch.setattr(glue.ComponentView, "__init__", drop_vertex)
        code, out, err = run(capsys, "hasse", quiver_file(quiver_file_text(brauer_line_quiver(3))))
        assert (code, out) == (4, "")
        assert err == (
            "error: internal: g piece ((2, 1),) violates the sign law at ++-: internal bug\n"
        )

    def test_uncovered_vertex_exits_four(self, quiver_file, capsys, monkeypatch):
        # without its last view a slice leaves a vertex unset in every g-vector
        original = glue.component_views
        monkeypatch.setattr(glue, "component_views", lambda *args: original(*args)[:-1])
        code, out, err = run(capsys, "hasse", quiver_file("n 2\n"))
        assert (code, out) == (4, "")
        assert err == "error: internal: slice ++ misses or repeats a vertex: internal bug\n"


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

    @pytest.mark.parametrize(
        "kind, edges, line",
        [("cycle", "4", "MISMATCH 7 infinite\n"), ("line", "3", "MISMATCH 7 20\n")],
    )
    def test_wrong_count_fails_verification(self, kind, edges, line, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_support_tilting", lambda quiver: 7)
        code, out, _ = run(capsys, "brauer", kind, edges, "--verify")
        assert (code, out) == (1, line)

    def test_emit_quiver_round_trips(self, capsys):
        from taudec.brauer import brauer_cycle_quiver
        from taudec.quiver import parse_quiver

        code, out, _ = run(capsys, "brauer", "cycle", "2", "--emit-quiver")
        assert code == 0
        assert parse_quiver(out) == brauer_cycle_quiver(2)

    def test_bad_n_is_input_error(self, capsys):
        code, _, err = run(capsys, "brauer", "line", "0", "--verify")
        assert code == 2


@pytest.mark.filterwarnings("ignore:'taudec.cli' found in sys.modules:RuntimeWarning")
def test_module_runs_as_a_script(quiver_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["taudec", "count", quiver_file("n 2\n")])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("taudec.cli", run_name="__main__")
    assert (stop.value.code, capsys.readouterr().out) == (0, "4\n")


# Run in a new interpreter, since this test process has loaded every module.
FRESH_PROCESS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[2])
import taudec.cli, taudec.quiver

def loaded():
    return sorted(m for m in sys.modules if m == "taudec" or m.startswith("taudec."))

def unneeded():
    # standard-library modules that no command needs, each costly to import
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = taudec.cli.main(list(argv))
    return code, out.getvalue()

path = sys.argv[1]
report = {"import": loaded(), "dir": dir(taudec), "unneeded": [unneeded()]}
report["codes"] = [run(command, path)[0] for command in ("count", "finite", "signdec")]
report["count"] = loaded()
report["unneeded"].append(unneeded())
report["hasse"] = run("hasse", path)
report["after_hasse"] = loaded()
report["unneeded"].append(unneeded())
report["brauer"] = run("brauer", "line", "3", "--verify")
report["after_brauer"] = loaded()
report["unneeded"].append(unneeded())
namespace = {}
exec("from taudec import *", namespace)
report["star"] = sorted(name for name in namespace if name != "__builtins__")
print(json.dumps(report))
"""


def test_commands_load_only_the_modules_they_run(quiver_file, capsys):
    path = quiver_file(THREE_CYCLE_FILE)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS, path, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    eager = ["taudec", "taudec.cli", "taudec.dynkin", "taudec.quiver", "taudec.signdec"]
    assert report["import"] == eager
    assert set(taudec.__all__) <= set(report["dir"])
    assert report["codes"] == [0, 0, 0]
    assert report["count"] == eager
    assert report["hasse"] == list(run(capsys, "hasse", path)[:2])
    assert report["after_hasse"] == sorted(eager + ["taudec.glue", "taudec.repa"])
    assert report["brauer"] == [0, "OK 20\n"]
    assert report["after_brauer"] == sorted(eager + ["taudec.brauer", "taudec.glue", "taudec.repa"])
    assert report["unneeded"] == [[], [], [], []]  # after the import and each command
    assert report["star"] == sorted(taudec.__all__)


def test_import_loads_no_typing_dataclasses_or_inspect_without_site():
    # with no `site`, nothing else imports `typing` first: the package never does
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import sys, taudec, taudec.cli; "
              "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "command, text, out",
    [("count", OVERFLOW_FILE, ""), ("finite", OVERFLOW_FILE, "finite\n"),
     # 2 ** (10**10) is 1.25 GB
     ("count", "n 10000000000\n", ""), ("finite", "n 10000000000\n", "finite\n"),
     # the engine's vertex bits 2 ** (n - v) take n * n / 16 bytes; the engine and its
     # first row come before the header, so nothing is written
     ("signdec", "n 3000000\n", ""), ("signdec", OVERFLOW_FILE, ""),
     # 2 * 10**8 arrows, built before any check or output; no quiver file
     ("brauer cycle 100000000 --verify", None, ""),
     ("brauer line 100000000 --emit-quiver", None, "")],
    ids=["count", "finite", "count-shift", "finite-shift", "signdec-bits", "signdec",
         "brauer-cycle-verify", "brauer-line-emit"],
)
def test_oversized_edgeless_quiver_under_a_memory_cap(quiver_file, command, text, out):
    # lone vertices are a shift in the sweep, so nothing is kept per vertex; the
    # 512 MB address-space cap applies to the child alone
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 29 if hard == resource.RLIM_INFINITY else min(hard, 1 << 29)
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = command.split() + ([quiver_file(text)] if text else [])
    done = subprocess.run(
        [sys.executable, "-m", "taudec.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))
    assert done.stdout == out
    if command == "finite":
        assert (done.returncode, done.stderr) == (0, "")
    elif text == OVERFLOW_FILE:  # 2 ** (10**20) has too many digits for an int
        assert done.returncode == 2
        assert done.stderr.startswith("error: quiver too large: ")
        assert done.stderr.count("\n") == 1
    else:  # a MemoryError, which has no text
        assert (done.returncode, done.stderr) == (2, "error: quiver too large: out of memory\n")


class TestIdentities:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--max-n", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines
        assert all(line.endswith(": pass") for line in lines)

    def test_sabotaged_table_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            brauer, "verify_identities", lambda n: [IdentityCheck("total-sum", 1, 0, 1)]
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


QUIVER = "QUIVER"  # stands for a quiver file in an argv shape
# a valid argument list per command
VALID = {
    "finite": [QUIVER],
    "count": [QUIVER],
    "signdec": [QUIVER],
    "hasse": [QUIVER],
    "brauer": ["line", "3", "--verify"],
    "identities": ["--max-n", "3"],
}
ARGV_SHAPES = [
    [command, *rest]
    for command, valid in VALID.items()
    for rest in (
        ["-h"], ["--help"], [], valid, [*valid, "extra"], ["--bogus", *valid],
        [*valid, "--bogus"], ["--", *valid], ["-"],
    )
] + [
    ["hasse", QUIVER, "--format", "xml"], ["brauer", "ring", "3", "--verify"],
    ["brauer", "line", "x", "--verify"], ["identities", "--max-n", "x"],
    ["identities", "--max-n", "0"], ["signdec", QUIVER, "--per"],
    ["signdec", QUIVER, "--per-epsilon"], ["hasse", QUIVER, "--form", "dot"],
    ["brauer", "line", "3", "--ver"], ["identities", "--max", "3"],
    ["brauer", "line", "3"], ["brauer", "line", "3", "--verify", "--emit-quiver"],
    [], ["-h"], ["bogus"], ["-h", "count"], ["count", "a", "b"], ["--", "count", QUIVER],
]


def shape_id(shape):
    return " ".join(shape) or "no-arguments"


def outcome(capsys, argv):
    """Exit code, stdout and stderr of `cli.main(argv)`, an argparse exit included."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_only(patch):
    """Make `cli.main` parse every argv with the full parser."""
    patch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))


class TestParserDispatch:
    """`cli.main` parses with one command's parser where it can; it must behave
    as when the full parser takes every argv."""

    @pytest.fixture(autouse=True)
    def help_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("shape", ARGV_SHAPES, ids=shape_id)
    def test_same_as_the_full_parser(self, shape, quiver_file, capsys, monkeypatch):
        argv = [quiver_file(THREE_CYCLE_FILE) if arg == QUIVER else arg for arg in shape]
        got = outcome(capsys, argv)
        full_parser_only(monkeypatch)
        assert outcome(capsys, argv) == got

    @pytest.mark.parametrize(
        "shape", [[], ["count", QUIVER], ["count", QUIVER, "extra"], ["signdec", "-h"]],
        ids=shape_id,
    )
    def test_argv_from_sys_argv(self, shape, quiver_file, capsys, monkeypatch):
        argv = [quiver_file(THREE_CYCLE_FILE) if arg == QUIVER else arg for arg in shape]
        monkeypatch.setattr(sys, "argv", ["taudec", *argv])
        got = outcome(capsys, None)
        full_parser_only(monkeypatch)
        assert outcome(capsys, None) == got

    def test_commands_build_no_full_parser(self, quiver_file, capsys, monkeypatch):
        path = quiver_file(THREE_CYCLE_FILE)
        runs = [
            ["count", path], ["finite", path], ["signdec", path], ["signdec", path, "--per"],
            ["hasse", path, "--format", "dot"], ["hasse", path, "--format", "json"],
            ["brauer", "cycle", "9", "--verify"], ["identities", "--max-n", "3"],
        ]
        with monkeypatch.context() as patch:
            full_parser_only(patch)
            want = [outcome(capsys, argv) for argv in runs]
        assert [code for code, _, _ in want] == [0] * len(runs)

        class FullParserBuilt(Exception):
            pass

        def refuse():
            raise FullParserBuilt

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert [outcome(capsys, argv) for argv in runs] == want
        with pytest.raises(FullParserBuilt):
            cli.main(["count", "a", "b"])


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchDigests:
    """The seed-0 commands of every benchmark workload, run through `cli.main`,
    against the stdout digests pinned in perfbench/digests.json."""

    def test_seed_zero_stdout_matches_the_pins(self, tmp_path, capsys, monkeypatch):
        # load the workload builder by path, writing no bytecode next to it
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        pins = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
        assert set(pins) == set(workloads.WORKLOADS)
        for name in workloads.WORKLOADS:
            commands = workloads.build(name, 0)
            paths = {}
            for inp in workloads.inputs_of(commands).values():
                paths[inp.name] = tmp_path / f"{inp.name}.q"
                paths[inp.name].write_text(inp.text(), encoding="utf-8")
            digests = {}
            for command in commands:
                code, out, _ = run(capsys, *command.argv(
                    str(paths[command.input.name]) if command.input else None))
                assert code == 0, command.label
                digests[command.label] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digests == pins[name], name
