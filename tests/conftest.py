"""Builds shared by several tests, made once per test session, the
hypothesis profiles, and the sweep's work budget per test."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import settings

from taudec import signdec
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


# Ten times the most `signdec._join` calls that one test makes (54,147, by
# `TestSweepWithoutWalk::test_two_way_d_n`): a fault that stops the sweep's
# states merging fails the test that meets it instead of running unbounded.
JOIN_BUDGET = 10 * 54_147
joins = [0]  # calls in the running test


def pytest_runtest_setup(item):
    joins[0] = 0


@pytest.fixture(scope="session", autouse=True)
def join_budget():
    """One counting wrapper on `signdec._join` for the session (hypothesis
    rejects function-scoped fixtures on `@given` tests)."""
    original = signdec._join

    def counted(*args):
        joins[0] += 1
        if joins[0] > JOIN_BUDGET:
            pytest.fail(f"the sweep passed its budget of {JOIN_BUDGET} _join calls in one test")
        return original(*args)

    signdec._join = counted
    yield
    signdec._join = original
