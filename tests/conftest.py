"""Builds shared by several tests, made once per test session."""

from __future__ import annotations

from itertools import product

import pytest

from taudec.repa import RigidityTable


@pytest.fixture(scope="session")
def rigidity_tables() -> dict[tuple[bool, ...], RigidityTable]:
    """The table of every orientation word of a path on 1 to 8 vertices."""
    return {
        word: RigidityTable(word)
        for size in range(1, 9)
        for word in product((False, True), repeat=size - 1)
    }
