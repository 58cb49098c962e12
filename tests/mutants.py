"""Named mutants of the package and the tests that must kill them: a kill table.

    python3 tests/mutants.py [NAME ...]

A mutant is one exact text patch to one file under `src/`, with the ids of
the tests that must fail on it.  For each mutant (all of them, or those
named), the script copies `src/`, `tests/`, `perfbench/`, `pyproject.toml`
and `README.md` to a fresh temporary directory, applies the patch there
and runs pytest on the expected killers alone.  A mutant can make work
grow without bound (one that stops the sweep's states merging does, on a
large input), so that run has a time limit and, where `resource` exists,
an address-space cap.  It prints one row per mutant: its name, whether
every expected killer failed, the expected killers and the tests that
failed.  The exit status is 1 when some mutant's old text does not occur
exactly once or some expected killer passed.  It never writes inside the
repository.  Pytest does not collect this file; `test_mutants.py` checks
the old texts and the killers' names without running any mutant.  Stdlib
only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
SIGNDEC = "src/taudec/signdec.py"
MIRRORED = "tests/test_signdec.py::TestMirroredHalving"
WORK_PIN = f"{MIRRORED}::test_work_on_brauer_cycles"
CORPUS = "tests/test_signdec.py::TestCorpus::test_count_and_finite_against_the_rows"
SWEEP = "tests/test_signdec.py::TestSweepWithoutWalk"
SPLIT = "tests/test_signdec.py::TestCountsHeldByTheEngine::test_one_split_per_distinct_slice"
SECONDS = 600  # per mutant
MEMORY = 2 << 30  # bytes of address space per mutant's pytest

# (name, file, old text, new text, ids of the tests that must fail)
MUTANTS = (
    ("sweep-key-without-frontier", SIGNDEC,
     "mask = (signs | own) & frontier",
     "mask = signs | own",
     (WORK_PIN,)),
    ("sweep-departed-end-kept", SIGNDEC,
     "a *= frontier >> n - a & 1",
     "a *= 1",
     (WORK_PIN, f"{SWEEP}::test_brauer_lines", f"{SWEEP}::test_zigzag_is_catalan",
      f"{SWEEP}::test_random_trees_against_the_scan")),
    ("sweep-touched-sign-inverted", SIGNDEC,
     "signs >> n - u & 1 == (not own)",
     "signs >> n - u & 1 != (not own)",
     (WORK_PIN, f"{SWEEP}::test_odd_brauer_cycles", f"{SWEEP}::test_random_trees_against_the_scan",
      "tests/test_cli.py::TestBenchDigests::test_seed_zero_stdout_matches_the_pins")),
    ("sweep-star-open-after-last-arm", SIGNDEC,
     "if star[-1][0]:",
     "if star[-1][0] >= 0:",
     (f"{SWEEP}::test_d4_star_is_counted_by_the_sweep", f"{SWEEP}::test_two_way_e",
      f"{SWEEP}::test_random_trees_against_the_scan",
      "tests/test_cli.py::test_stdout_is_pinned[star-d4]")),
    ("class-key-on-every-component", SIGNDEC,
     "if mirrored and mask ^ frontier < mask:",
     "if mask ^ frontier < mask:",
     (f"{CORPUS}[valued-on-at-most-3]", f"{CORPUS}[digraphs-on-4]",
      f"{SWEEP}::test_zigzag_is_catalan", f"{SWEEP}::test_witness_without_the_walk",
      f"{MIRRORED}::test_against_the_scans")),
    ("witness-slots-not-swapped", SIGNDEC,
     "out = out[::-1] if witness else out",
     "out = out",
     ("tests/test_signdec.py::TestPastAMachineWord::test_witness_slice_of_808_vertices",
      f"{MIRRORED}::test_against_the_scans")),
    ("sweep-leave-without-own-step", SIGNDEC,
     "[u, *links[u]]",
     "links[u]",
     ("tests/test_signdec.py::TestCountSupportTilting::test_three_cycle", WORK_PIN)),
    ("sweep-start-by-label", SIGNDEC,
     "sorted(links, key=lambda v: (len(links[v]), v))",
     "links",
     (WORK_PIN, "tests/test_signdec.py::TestSweep::test_vertex_order_against_the_component_split")),
    ("engine-path-valued", SIGNDEC,
     "if edges & ~self._unit or edges.bit_count()",
     "if edges.bit_count()",
     (f"{SPLIT}[beyond-f4]", f"{SPLIT}[bc4-terminal]", f"{SPLIT}[f4]", f"{SPLIT}[bc2-g2]")),
    ("engine-path-branch", SIGNDEC,
     "if twice & b:",
     "if False:",
     (f"{SPLIT}[star-d4]", f"{CORPUS}[digraphs-on-4]",
      "tests/test_cli.py::test_stdout_is_pinned[star-d4]")),
)


def occurrences(path: str, old: str, root: Path = ROOT) -> int:
    """How often a mutant's old text occurs in its file."""
    return (root / path).read_text(encoding="utf-8").count(old)


def _capped() -> None:
    """Cap the child's address space, where the platform has `resource`."""
    try:
        import resource
    except ImportError:
        return
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY if hard == resource.RLIM_INFINITY
                                             else min(MEMORY, hard), hard))


def failed_tests(workdir: Path, tests: tuple[str, ...]) -> set[str] | None:
    """Ids of the given tests that fail in a copied tree; None if the run timed out."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=SECONDS,
            preexec_fn=_capped if os.name == "posix" else None)
    except subprocess.TimeoutExpired:
        return None
    return {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}


def run(name: str, path: str, old: str, new: str, killers: tuple[str, ...]) -> bool:
    """Apply one mutant to a copy of the tree and print its row; True if every killer failed."""
    if occurrences(path, old) != 1:
        print(f"{name}: old text occurs {occurrences(path, old)} times in {path}")
        return False
    with tempfile.TemporaryDirectory(prefix="taudec-mutant-") as tmp:
        workdir = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, workdir / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, workdir / part)
        target = workdir / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        failed = failed_tests(workdir, killers)
    killed = failed is not None and all(
        any(test == killer or test.startswith(killer + "[") for test in failed)
        for killer in killers)
    print(f"{name}: {'killed' if killed else 'timed out' if failed is None else 'SURVIVED'}")
    print("  expected: " + ", ".join(killers))
    print("  failed:   " + (", ".join(sorted(failed or ())) or "none"))
    return killed


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant[0] for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    results = [run(*mutant) for mutant in MUTANTS if not names or mutant[0] in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
