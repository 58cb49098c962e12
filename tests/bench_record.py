"""Record BENCH_<label>.json files from repeated runs of perfbench/run.py.

    python3 tests/bench_record.py LABEL[=ROOT] [LABEL=ROOT ...]

Each ROOT is a checkout of this repository (by default the one holding this
script).  For every workload of BENCHMARK.json, each checkout runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 30 --trace 0

RUNS = 10 times from its own root.  RUNS and SECONDS are constants, so every
BENCH file follows one protocol; ten pairs are enough to show a claimed gain
as a win in at least 9 of 10 pairs.  With several checkouts the runs
alternate between them, and the side that runs first alternates from one
round to the next, so a slow phase of a shared host falls on both sides
alike.  BENCH_<label>.json, written at the root of the repository holding
this script, stores each run's last JSON line, the median and quartiles of
`wall_s`, `setup_s` and `peak_rss_mb` per workload, and the interpreter, CPU
count, git commit (and whether `src/` differed from it), a sha256 of the
checkout's `src/` files, the line count of each `src/taudec/*.py` and their
total, and the sha256 of `perfbench/digests.json`.  With two checkouts,
run k of one and run k of the other make a pair, and each side's file also
stores, per workload and metric, in how many pairs that side read lower
(`"lower_in": {"setup_s": "10/10", ...}`); the first side's counts are
printed.  Each side's file also stores `in_process`: uncalibrated seconds,
best of 3, of `count_support_tilting` and `finiteness_witness` on Brauer
line 200, cycle 51 and cycle 50, of `glued_hasse` on Brauer line 8 and
cycle 7, and of a full `SliceEngine(...).rows()` walk of Brauer line 14 and
cycle 13, inputs larger than perfbench's, timed by `perf_counter` in a fresh
interpreter that imports the checkout's `src/`, each with a sha256 of the
result's text (for `glued_hasse`, of its `hasse_json`; for a walk, of each
row's sign text, count and two-term flag).  Every run starts
as a fresh checkout does: each root's `src/taudec/__pycache__` is removed
first and no run writes bytecode, since a cache that is stale in one
checkout alone recompiles a module in each of its runs and moves its
`wall_s` and `peak_rss_mb`.  Pytest does not collect this file.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
RUNS = 10
SECONDS = 30
COMMAND = f"python3 perfbench/run.py --workload W --seed 0 --seconds {SECONDS} --trace 0"
# run from a checkout's root with PYTHONPATH=src; prints one JSON object
IN_PROCESS = """
import hashlib, json, time
from taudec.brauer import brauer_cycle_quiver, brauer_line_quiver
from taudec.cli import hasse_json
from taudec.glue import glued_hasse
from taudec.signdec import SliceEngine, count_support_tilting, finiteness_witness, slice_count
def engine_rows(quiver):
    return [(text, slice_count(parts), flag) for text, parts, flag in SliceEngine(quiver).rows()]
timed = [(f"{call.__name__} {name}", call, quiver, str)
         for name, quiver in (("line 200", brauer_line_quiver(200)),
                              ("cycle 51", brauer_cycle_quiver(51)),
                              ("cycle 50", brauer_cycle_quiver(50)))
         for call in (count_support_tilting, finiteness_witness)]
timed += [(f"glued_hasse {name}", glued_hasse, quiver, hasse_json)
          for name, quiver in (("line 8", brauer_line_quiver(8)), ("cycle 7", brauer_cycle_quiver(7)))]
timed += [(f"SliceEngine.rows {name}", engine_rows, quiver, str)
          for name, quiver in (("line 14", brauer_line_quiver(14)), ("cycle 13", brauer_cycle_quiver(13)))]
seconds, results = {}, {}
for key, call, quiver, text in timed:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = call(quiver)
        times.append(time.perf_counter() - start)
    seconds[key] = min(times)
    results[key] = hashlib.sha256(text(result).encode()).hexdigest()
print(json.dumps({"uncalibrated": True, "best_of": 3, "seconds": seconds, "results_sha256": results}))
"""


def git(root: Path, *argv: str) -> str:
    return subprocess.run(["git", "-C", str(root), *argv], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_sha256(root: Path) -> str:
    """One digest over the relative paths and bytes of the checkout's src/*.py files."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_lines(root: Path) -> dict:
    """Lines per `src/taudec/*.py` file, by file name, and their total."""
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((root / "src" / "taudec").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def one_run(root: Path, workload: str) -> dict:
    """The last stdout line of one perfbench run, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def in_process(root: Path) -> dict:
    """The IN_PROCESS figures of the checkout, from a fresh interpreter."""
    env = {**ENV, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, "-c", IN_PROCESS], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def lower_in(mine: list[dict], theirs: list[dict]) -> dict:
    """Per metric, how many of the paired runs read lower on this side, as "k/RUNS"."""
    counts = {}
    for m in METRICS:
        lower = sum(a["metrics"][m]["value"] < b["metrics"][m]["value"] for a, b in zip(mine, theirs))
        counts[m] = f"{lower}/{len(mine)}"
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL[=ROOT]")
    args = parser.parse_args()
    sides = []
    for side in args.sides:
        label, _, root = side.partition("=")
        sides.append((label, Path(root).resolve() if root else HERE))
    workloads = [w["name"] for w in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    for _, root in sides:
        shutil.rmtree(root / "src" / "taudec" / "__pycache__", ignore_errors=True)

    runs = {label: {w: [] for w in workloads} for label, _ in sides}
    for workload in workloads:
        for k in range(RUNS):
            for label, root in sides if k % 2 == 0 else sides[::-1]:
                result = one_run(root, workload)
                runs[label][workload].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{label} {workload} run {k + 1}: wall_s {wall:.4f} "
                      f"correct {result['correct']} failed {result['failed']}", flush=True)

    figures = {label: in_process(root) for label, root in sides}
    for label, root in sides:
        record = {
            "label": label,
            "command": COMMAND,
            "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
            "cpus": os.cpu_count(),
            "commit": git(root, "rev-parse", "HEAD"),
            "src_differs_from_commit": bool(git(root, "status", "--porcelain", "--", "src")),
            "src_sha256": src_sha256(root),
            "src_lines": src_lines(root),
            "digests_sha256": hashlib.sha256(
                (root / "perfbench" / "digests.json").read_bytes()).hexdigest(),
            "alternated_with": [other for other, _ in sides if other != label],
            "in_process": figures[label],
            "workloads": {},
        }
        for workload, results in runs[label].items():
            record["workloads"][workload] = {
                "correct": all(r["correct"] for r in results),
                "failed": sum(r["failed"] for r in results),
                **{m: spread([r["metrics"][m]["value"] for r in results]) for m in METRICS},
                "runs": results,
            }
            if len(sides) == 2:
                other = record["alternated_with"][0]
                wins = lower_in(results, runs[other][workload])
                record["workloads"][workload]["lower_in"] = wins
                if label == sides[0][0]:
                    print(f"{workload}: {label} lower than {other} in "
                          + ", ".join(f"{m} {k}" for m, k in wins.items()), flush=True)
        out = HERE / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
