"""Record the output fingerprints of every workload instance into refs.json.

    python3 perfbench/record_refs.py

The references pin the program's outputs at the commit that records
them; the benchmark counts an op whose outputs differ as failed. Record
again only when a change is meant to alter outputs, and say so where the
change is described. Prints each instance's op time, so the spread of
cost across a workload's instances can be checked.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from child import REFS, WORK, Runner, workloads


def main() -> int:
    refs = {}
    base = os.path.join(WORK, f"record-{os.getpid()}")
    indir = os.path.join(base, "in")
    try:
        for name, wl in workloads.WORKLOADS.items():
            shutil.rmtree(base, ignore_errors=True)
            os.makedirs(indir)
            runner = Runner(wl, indir, os.path.join(base, "out"), refs={})
            table = {}
            for inst in workloads.instances(wl):
                wl.make_input(inst, indir)
                dt, err = runner.run(inst)
                if err is not None:
                    print(f"{name} {inst}: {err}", file=sys.stderr)
                    return 1
                table[str(inst)] = runner.fingerprint(inst)
                print(f"{name} {inst} {dt:.3f} s", flush=True)
            refs[name] = table
    finally:
        shutil.rmtree(base, ignore_errors=True)
    with open(REFS, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
