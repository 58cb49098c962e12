"""Builds shared by several tests, made once per test session, and the
hypothesis profiles."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import settings

from taudec.repa import RigidityTable

# Every run draws the same examples: each test's generator is seeded from the
# test function, and each test's own `max_examples` still applies.  Run with
# `--hypothesis-profile random` to draw fresh examples instead.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def rigidity_tables() -> dict[tuple[bool, ...], RigidityTable]:
    """The table of every orientation word of a path on 1 to 8 vertices."""
    return {
        word: RigidityTable(word)
        for size in range(1, 9)
        for word in product((False, True), repeat=size - 1)
    }
