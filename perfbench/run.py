"""Outside-in benchmark of the taudec CLI.

    python3 perfbench/run.py [--workload count|signdec|hasse|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root.  BENCHMARK.json's runner calls it once per
workload, with all four options; without --workload it runs every workload
in turn, and --seconds defaults to BENCHMARK.json's run_seconds.  A workload runs in a fresh single-threaded
child process (child.py), driven one pass at a time; a wall-clock cap kills a
hung child, and the commands it cuts off count as failed.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of the outside-in tracer.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 2 without
a result when the taudec sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15  # fresh processes timed for setup_s, the measuring child included
TRACED_PASSES = 2  # fixed, so traced call counts repeat exactly between runs
RUN_LIMIT_S = 170  # one workload, all its children included, ends before this
INCLUSIVE_SHOWN = 6  # functions listed by inclusive time in the traced report
TIMED = {"wall_s": None, "count_s": ("count",), "finite_s": ("finite",)}  # metric: kinds


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class Child:
    """One child.py process, driven one pass at a time over its stdin."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        argv = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
                "--workdir", str(workdir), "--workload", workload, "--seed", str(seed)]
        # Hash randomization off: with a random string-hash layout per process,
        # attribute-cache collisions alone move a command's time by up to 40%.
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"))

    def read(self) -> dict | None:
        """The next record, or None once the process has ended."""
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def send(self, word: str) -> bool:
        try:
            self.proc.stdin.write(word + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            return False
        return True

    def run_pass(self, word: str) -> tuple[list[dict], bool]:
        """Records of one pass, and whether the pass finished."""
        records: list[dict] = []
        if self.send(word):
            while (record := self.read()) is not None:
                if "end" in record:
                    return records, True
                records.append(record)
        return records, False

    def close(self) -> tuple[dict | None, str]:
        """Ends the process; returns its {"done"} record (None if it died) and stderr."""
        done = self.read() if self.send("done") else None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        _, err = self.proc.communicate()
        return done, err


def write_inputs(commands: list[workloads.Command], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for inp in workloads.inputs_of(commands).values():
        (workdir / f"{inp.name}.q").write_text(inp.text(), encoding="utf-8")


def drive(name: str, seed: int, seconds: float, trace: int, workdir: Path,
          n_commands: int, cap: float) -> dict:
    """Run passes in a fresh child for `seconds`; returns every record.

    Set-up is timed in that child and, one after each untraced pass, in
    further fresh children, so that the samples spread over the run."""
    children: list[Child] = []
    killed = threading.Event()

    def kill_all() -> None:
        killed.set()
        for c in children:
            c.proc.kill()

    out = {"setups": [], "raw_setups": [], "runs": [], "unfinished": 0, "why": None,
           "figures": None}

    def set_up() -> Child:
        children.append(Child(name, seed, workdir))
        record = children[-1].read()
        if record is None or "setup_s" not in record:
            _, err = children[-1].close()
            raise SystemExit(f"{name}: child failed before set-up finished\n{err[-2000:]}")
        out["setups"].append(record["setup_s"])
        out["raw_setups"].append(record["raw_s"])
        return children[-1]

    def one_pass(child: Child, word: str, index: int) -> bool:
        records, finished = child.run_pass(word)
        out["runs"] += [r | {"pass": index} for r in records]
        if not finished:
            _, err = child.close()
            out["unfinished"] = n_commands - len(records)
            out["why"] = ("child hit the wall-clock cap" if killed.is_set()
                          else f"child died: {err[-500:]!r}")
        return finished

    timer = threading.Timer(cap, kill_all)
    timer.start()
    try:
        child = set_up()
        # Untraced passes fill the run (half of it when tracing); another pass
        # starts only while one more of the last one's length still fits.
        budget = seconds / 2 if trace else seconds
        begin = time.monotonic()
        index = 0
        while True:
            start = time.monotonic()
            if not one_pass(child, "pass", index):
                return out
            index += 1
            if not trace and len(out["setups"]) < SETUP_SAMPLES:
                set_up().close()
            now = time.monotonic()
            if now - begin + (now - start) > budget:
                break
        for _ in range(TRACED_PASSES if trace else 0):
            if not one_pass(child, "trace", index):
                return out
            index += 1
        done, err = child.close()
        if done is None:
            raise SystemExit(f"{name}: child failed at exit\n{err[-2000:]}")
        out["figures"] = done["trace"]
        return out
    finally:
        timer.cancel()
        for c in children:
            if c.proc.poll() is None:
                c.proc.kill()
                c.proc.communicate()


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count, plus the highest of p75/p90/p95/p99
    that has at least ten samples beyond it (None when no run is that long)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    tail = None
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            tail = (pct, statistics.quantiles(values, n=100)[pct - 1])
            break
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "tail": tail}


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 deadline: float) -> dict:
    commands = workloads.build(name, seed)
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        write_inputs(commands, workdir)
        cap = min(2 * seconds + 60, deadline - time.monotonic())
        out = drive(name, seed, seconds, trace, workdir, len(commands), cap)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs, unfinished = out["runs"], out["unfinished"]
    errors = [(commands[r["cmd"]].label, r["error"]) for r in runs if not r["ok"]]
    if out["why"]:
        errors.append((f"{unfinished} unfinished commands", out["why"]))
    result = {
        "workload": name,
        "attempted": len(runs) + unfinished,
        "failed": sum(not r["ok"] for r in runs) + unfinished,
        "errors": errors,
    }
    passes: dict[tuple[bool, int], list[dict]] = {}
    for r in runs:
        passes.setdefault((r["traced"], r["pass"]), []).append(r)
    complete = {key: rs for key, rs in passes.items() if len(rs) == len(commands)}

    if not trace:
        # A cut-short pass still gives lower bounds when no pass completed.
        untraced = [rs for (traced, _), rs in (complete or passes).items() if not traced]
        # count_s and finite_s exist only where such commands run: on `count`.
        metrics = {}
        for key, kinds in TIMED.items():
            chosen = [[r for r in rs if kinds is None or commands[r["cmd"]].kind in kinds]
                      for rs in untraced]
            if any(chosen):
                metrics[key] = summary([sum(r["t"] for r in rs) for rs in chosen]) | {
                    "raw": statistics.median(sum(r["raw_s"] for r in rs) for rs in chosen),
                    "unit": "s"}
        if "wall_s" not in metrics:  # killed inside its first command: the cap bounds it
            metrics["wall_s"] = summary([cap]) | {"raw": cap, "unit": "s"}
        metrics["setup_s"] = summary(out["setups"]) | {
            "raw": statistics.median(out["raw_setups"]), "unit": "s"}
        rss = max((r["rss_mb"] for r in runs), default=0.0)
        metrics["peak_rss_mb"] = summary([rss]) | {"unit": "MB"}
        result["metrics"] = metrics
        return result

    figures = dict(out["figures"] or {})
    walls = {t: [sum(r["t"] for r in rs) for (traced, _), rs in complete.items() if traced == t]
             for t in (False, True)}
    if walls[True] and walls[False]:
        figures["cli.stdout_bytes"] = statistics.median(
            sum(r["bytes"] for r in rs) for (traced, _), rs in complete.items() if traced)
        figures["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]))
    result["metrics"] = {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"],
                                     "absent": m["name"] not in figures}
                         for m in spec["per_layer"]}
    result["split"] = {k: v for k, v in figures.items()
                       if k.count(".") == 1 and k.endswith(".self_s")}
    # inclusive time of the functions below cli, as a share of the time in cli.main
    main_s = figures.get("cli.main.total_s") or 1.0
    result["inclusive"] = sorted(
        ((k[:-len(".total_s")], v / main_s) for k, v in figures.items()
         if k.endswith(".total_s") and not k.startswith("cli.") and v > 0),
        key=lambda kv: -kv[1])[:INCLUSIVE_SHOWN]
    return result


def report(result: dict, trace: int) -> None:
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.4g}")
    for label, error in result["errors"][:10]:
        print(f"  FAIL {label}: {error}")
    for metric, m in result["metrics"].items():
        if trace:
            note = "  (absent: function not found)" if m["absent"] else ""
            print(f"  {name:8} {metric:40} {m['value']:>14.6g} {m['unit']}{note}")
            continue
        tail = f"  p{m['tail'][0]} {m['tail'][1]:.6g}" if m["tail"] else ""
        raw = f"  (uncalibrated median {m['raw']:.6g})" if m["unit"] == "s" else ""
        print(f"  {name:8} {metric:12} {m['unit']:3} median {m['median']:.6g}  "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}{tail}{raw}")
    if trace and result.get("split"):
        total = sum(result["split"].values()) or 1.0
        split = ", ".join(f"{k.split('.')[0]} {v / total:.1%}"
                          for k, v in sorted(result["split"].items(), key=lambda kv: -kv[1]))
        print(f"  {name:8} self-time split: {split}")
    if trace and result.get("inclusive"):
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["inclusive"])
        print(f"  {name:8} inclusive share of cli.main: {shares}")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "taudec" / "cli.py").is_file():
        print(f"error: no taudec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = [run_workload(n, args.seed, args.seconds, args.trace, spec, deadline)
               for n in names]
    print(f"# {platform.python_implementation()} {platform.python_version()}, "
          f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
          f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    for result in results:
        report(result, args.trace)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric in declared:
            m = result["metrics"][metric]
            metrics[prefix + metric] = {"value": m["value" if args.trace else "median"],
                                        "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
