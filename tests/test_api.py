from __future__ import annotations

import re
from pathlib import Path

import taudec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_exists():
    assert sorted(set(taudec.__all__)) == sorted(taudec.__all__)
    for name in taudec.__all__:
        assert hasattr(taudec, name), name


def test_every_export_is_documented_in_readme():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    documented = set(re.findall(r"`(\w+)`", library))
    missing = [name for name in taudec.__all__ if name not in documented]
    assert not missing, f"exported but not listed in README's Library section: {missing}"
