"""The mutant table of `tests/mutants.py` still applies to the tree; no mutant is run."""

from __future__ import annotations

from mutants import MUTANTS, ROOT, occurrences


def test_every_old_text_occurs_once_and_every_killer_exists():
    for name, path, old, new, killers in MUTANTS:
        assert occurrences(path, old) == 1, name
        assert old != new, name
        for killer in killers:
            file, *_, test = killer.split("[")[0].split("::")
            assert f"def {test}(" in (ROOT / file).read_text(encoding="utf-8"), killer
