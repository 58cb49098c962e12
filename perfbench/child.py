"""One workload in one fresh, single-threaded process; started by run.py.

    python3 perfbench/child.py --root ROOT --workdir DIR --workload W --seed N

Imports taudec from ROOT/src and times set-up (import plus parsing every
input file).  Then, for each line "pass" or "trace" on stdin, runs one pass:
the workload's commands through taudec.cli.main, one at a time, stdout and
stderr in in-memory buffers.  "trace" installs the outside-in tracer first.
The first pass is checked by the independent gate in workloads.py (and, on
seed 0, against the pinned digests); later passes must repeat it byte for
byte.

Writes one JSON object per line to its own stdout: {"setup_s"}, one record
per command, {"end"} after each pass, and {"done"} (with the traced figures
per traced pass) after "done" or end of input.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

PIN_FILE = Path(__file__).resolve().parent / "digests.json"


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


# Calibration.  The host is shared, and its slow phases last from seconds to
# minutes: they move raw times by up to 80%.  Each command is therefore timed
# between two runs of a fixed pure-Python reference loop, and its time is
# divided by theirs and multiplied by REF_S, the loop's nominal time.  The
# result is in seconds at the speed where the loop takes REF_S.
REF_S = 0.002
REF_ITERS = 4000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def reference_time() -> float:
    """Time of the reference loop: small objects, tuples and dict stores, like taudec's own work.

    The cyclic garbage collector is off during the loop, so that a collection
    over the program's heap cannot fall inside it: the divisor then does not
    grow with the memory that the program keeps."""
    gc.disable()
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(REF_ITERS):
        p = _Point(i, i + 1)
        key = (p.x, p.y, i % 7)
        table[key] = total
        total += len(key) + p.x % 3
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds / ((before + after) / 2) * REF_S


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    commands = workloads.build(args.workload, args.seed)
    workdir = Path(args.workdir)
    paths = {name: str(workdir / f"{name}.q") for name in workloads.inputs_of(commands)}
    src = str(Path(args.root) / "src")

    ref_before = reference_time()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import taudec.cli
    import taudec.quiver

    for path in paths.values():
        with open(path, encoding="utf-8") as handle:
            taudec.quiver.parse_quiver(handle.read())
    setup_s = time.perf_counter() - start
    if not Path(taudec.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported taudec from {taudec.__file__}, not from {src}")
    emit({"setup_s": calibrated(setup_s, ref_before, reference_time()),
          "raw_s": setup_s, "rss_mb": rss_mb()})

    # seed 0 is pinned byte for byte; relabelling changes the text on other seeds
    pins = None
    if args.seed == 0:
        pins = json.loads(PIN_FILE.read_text(encoding="utf-8")).get(args.workload, {})
    argvs = [c.argv(paths[c.input.name] if c.input else None) for c in commands]
    first_digest: list[str | None] = [None] * len(commands)
    first_ok = [False] * len(commands)
    tracer: Tracer | None = None

    def run_pass() -> None:
        gc.collect()
        for i, (command, argv) in enumerate(zip(commands, argvs)):
            if tracer is not None:
                tracer.begin_command(command.kind, command.n)
            out, err = io.StringIO(), io.StringIO()
            ref_before = reference_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = taudec.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is a failed command, not a crash
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            ref_after = reference_time()
            text = out.getvalue().encode("utf-8")
            digest = hashlib.sha256(text).hexdigest()
            if code != 0:
                error = f"exit {code}: {err.getvalue()[-300:]!r}"
            elif first_digest[i] is None:
                error = workloads.check(command, text.decode("utf-8"))
                if error is None and pins is not None and pins.get(command.label) != digest:
                    error = "stdout differs from the pinned digest"
                first_ok[i] = error is None
            elif digest != first_digest[i]:
                error = "stdout differs from the first pass"
            else:
                error = None if first_ok[i] else "same stdout as a failed first pass"
            if first_digest[i] is None:
                first_digest[i] = digest
            emit({
                "cmd": i, "t": calibrated(elapsed, ref_before, ref_after),
                "raw_s": elapsed, "ok": error is None,
                "error": error, "bytes": len(text), "traced": tracer is not None,
                "rss_mb": rss_mb(),
            })

    # One pass per line on stdin: "pass" runs one, "trace" installs the
    # tracer (once) and runs a traced one, "done" or EOF ends the child.
    traced = 0
    for line in sys.stdin:
        word = line.strip()
        if word == "done":
            break
        if word == "trace" and tracer is None:
            tracer = Tracer()
            tracer.install()
        run_pass()
        traced += tracer is not None
        emit({"end": True})
    emit({"done": True, "digests": dict(zip((c.label for c in commands), first_digest)),
          "trace": tracer.metrics(traced) if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
