"""Record the stdout digests that seed 0 is checked against.

    python3 perfbench/pin.py

Runs one pass of every workload on seed 0; every command must pass the
independent gate (a stale pin is the only error it tolerates).  Writes
perfbench/digests.json.  Re-pin only when a change of stdout is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from child import PIN_FILE
from run import ROOT, Child, write_inputs

STALE = "stdout differs from the pinned digest"


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        commands = workloads.build(name, 0)
        workdir = ROOT / ".perfbench_work" / f"pin-{name}"
        try:
            write_inputs(commands, workdir)
            child = Child(name, 0, workdir)
            setup = child.read()
            records, finished = child.run_pass("pass")
            done, err = child.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [r for r in records if not r["ok"] and r["error"] != STALE]
        if setup is None or not finished or bad or done is None:
            print(f"{name}: not pinned: {bad or err[-2000:]}", file=sys.stderr)
            return 1
        pins[name] = done["digests"]
    PIN_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, pins.values()))} commands in {PIN_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
