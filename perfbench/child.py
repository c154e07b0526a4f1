"""One workload child process: set-up, warm-up, then timed ops.

Started by run.py:

    python3 perfbench/child.py --workload W --seed N --seconds S \
        --mode setup|run|trace --result FILE

Modes:
- setup: build the inputs, run the warm-up op, note when the first timed
  op would start, and exit (run.py repeats set-up to take a median);
- run: set-up, then untraced timed ops for about S seconds, each
  followed by one timing of the reference kernel, then, on
  diagram-distance, the one 64x64 probe;
- trace: set-up with the generators traced, then ops for about S
  seconds, each instance untraced and then traced, then one op with
  allocation tracing.

The child writes its raw figures as JSON to FILE; run.py turns them into
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
REFS = os.path.join(ROOT, "perfbench", "refs.json")

# The program under test is the one in this checkout's src/.
sys.path.insert(0, SRC)
import numpy  # noqa: E402
import phom  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


_KERNEL_POINTS = numpy.random.default_rng(0).random((150, 2))


def reference_s() -> float:
    """Seconds for one run of a fixed reference kernel.

    The kernel does the two kinds of work phom's ops do, interpreted
    loops over dicts and big-int bit columns and numpy array passes,
    and nothing of phom, so a change to phom leaves it alone. Timed next
    to the ops, it tracks how fast the machine runs at the time: on a
    shared machine that speed can change by half from one minute to
    the next, for every process alike.
    """
    t0 = time.perf_counter()
    table, col = {}, 0
    for i in range(40_000):
        key = (i * 2654435761) & 0xFF
        col ^= 1 << key
        if key in table:
            col ^= table.pop(key)
        else:
            table[key] = col
    for _ in range(12):
        diff = _KERNEL_POINTS[:, None, :] - _KERNEL_POINTS[None, :, :]
        numpy.argsort(numpy.sqrt((diff ** 2).sum(-1)), axis=None)
    return time.perf_counter() - t0


class Runner:
    """Runs and checks the ops of one workload in fixed directories."""

    def __init__(self, wl, indir: str, out: str, refs: dict):
        self.wl = wl
        self.indir = indir
        self.out = out
        self.refs = refs

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def run(self, inst: int) -> tuple[float, str | None]:
        """Run the calls of one op on one input instance into a fresh
        output directory: (seconds, error or None)."""
        self.fresh_out()
        calls = self.wl.calls(inst, self.indir, self.out)
        t0 = time.perf_counter()
        err = workloads.run_calls(calls)
        return time.perf_counter() - t0, err

    def fingerprint(self, inst: int) -> dict:
        """The fingerprint of the outputs of the last op run."""
        return self.wl.fingerprint(inst, self.indir, self.out)

    def op(self, inst: int) -> tuple[float, str | None]:
        """One timed and checked op: (seconds, error or None)."""
        dt, err = self.run(inst)
        if err is None:
            try:
                got = self.fingerprint(inst)
            except Exception as exc:  # a missing or malformed output file
                err = f"unreadable output: {type(exc).__name__}: {exc}"
            else:
                if not workloads.matches(got, self.refs[str(inst)]):
                    err = "output differs from reference"
        return dt, err

    def probe(self, seed: int) -> dict:
        """The diagram-distance probe, outside the timed ops."""
        self.wl.make_probe(seed, self.indir)
        self.fresh_out()
        t0 = time.perf_counter()
        err = workloads.run_calls(self.wl.probe_calls(self.indir, self.out))
        dt = time.perf_counter() - t0
        if err is None:
            try:
                if not self.wl.probe_ok(self.indir, self.out):
                    err = "probe distance disagrees with its matching"
            except Exception as exc:  # a missing or malformed report
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        return {"seconds": dt, "ok": err is None, "error": err}


def per_layer(tr: tracer.Tracer, op: int) -> dict[str, float]:
    """The per-layer figures of one traced op."""
    c = tr.counts[op]
    columns = c["persistence.columns"]
    return {
        "simplicial.rips_s": tr.inclusive(op, "simplicial.rips"),
        "simplicial.distances_s": tr.inclusive(op, "simplicial.distances"),
        "simplicial.cells": c["simplicial.cells"],
        "simplicial.triangles": c["simplicial.triangles"],
        "persistence.reduce_s": tr.inclusive(op, "persistence.reduce"),
        "persistence.columns": columns,
        "persistence.pairs": c["persistence.pairs"],
        "persistence.points": c["persistence.points"],
        "persistence.useful_points": c["persistence.useful_points"],
        "persistence.useful_ratio":
            c["persistence.useful_points"] / columns if columns else 0.0,
        "cubical.self_s": tr.self_time(op, "cubical"),
        "cubical.cells": c["cubical.cells"],
        "distances.bottleneck_s": tr.inclusive(op, "distances.bottleneck"),
        "distances.wasserstein_s": tr.inclusive(op, "distances.wasserstein"),
        "distances.points": c["distances.points"],
        "distances.calls": c["distances.calls"],
        "vectorize.image_s": tr.inclusive(op, "vectorize.image"),
        "vectorize.points": c["vectorize.points"],
        "io.read_s": tr.inclusive(op, "io.read_"),
        "io.write_s": tr.inclusive(op, "io.write_"),
        "io.files_written": c["io.files_written"],
        "io.bytes_written": c["io.bytes_written"],
        "cli.self_s": tr.self_time(op, "cli"),
    }


def run(mode: str, seconds: float, wl, seed: int, base: str,
        refs: dict) -> dict:
    indir = os.path.join(base, "in")
    os.makedirs(indir)
    tr = tracer.Tracer() if mode == "trace" else None
    if tr is not None:
        tr.install(tracer.setup_targets())
    insts = workloads.instances_for(wl, seed)
    for inst in insts:
        wl.make_input(inst, indir)
    if tr is not None:
        tr.uninstall()
    runner = Runner(wl, indir, os.path.join(base, "out"), refs)
    # The warm-up and the allocation pass use instance 0 whatever the
    # seed, so that set-up does the same work on every seed.
    _, warm_err = runner.op(0)
    result = {"t_first": time.monotonic(), "instances": insts,
              "warmup_error": warm_err}
    if mode == "setup":
        return result

    # A round runs every instance of the run once (in trace mode the
    # first half, each untraced and then traced), so each weighs the same
    # in the medians. Whole rounds run, as many as come nearest to
    # `seconds`.
    if tr is None:
        plan = [(inst, False) for inst in insts]
    else:
        plan = [(inst, traced) for inst in insts[:len(insts) // 2]
                for traced in (False, True)]
    ops = []
    kernel_s = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for inst, traced in plan:
            if traced:
                tr.op = len(ops)
                tr.install(tracer.op_targets())
            try:
                dt, err = runner.op(inst)
            finally:
                if traced:
                    tr.uninstall()
            ops.append({"instance": inst, "seconds": dt, "ok": err is None,
                        "error": err, "traced": traced})
            if tr is None:
                kernel_s.append(reference_s())
        rounds += 1
        per_round = (time.perf_counter() - start) / rounds
        if rounds >= max(1, round(seconds / per_round)):
            break
    result["ops"] = ops
    result["kernel_s"] = kernel_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tr is None:
        if isinstance(wl, workloads.DiagramDistance):
            result["probe"] = runner.probe(seed)
        return result

    traced_ops = [k for k, o in enumerate(ops) if o["traced"]]
    layers = [per_layer(tr, k) for k in traced_ops]
    med = {name: statistics.median(m[name] for m in layers)
           for name in layers[0]}
    runner.fresh_out()
    med.update(tr.alloc_peaks(
        lambda: workloads.run_calls(wl.calls(0, indir, runner.out))))
    med["datagen.gen_s"] = tr.inclusive("setup", "datagen.")
    # Each traced op directly follows the untraced op of its instance.
    med["trace.overhead_frac"] = statistics.median(
        ops[k]["seconds"] / ops[k - 1]["seconds"] for k in traced_ops) - 1.0
    result["per_layer"] = med
    tr.write(os.path.join(WORK, f"spans-{wl.name}-{seed}.jsonl"))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"],
                    required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    if not os.path.abspath(phom.__file__).startswith(SRC + os.sep):
        print(f"phom was imported from {phom.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    with open(REFS, encoding="ascii") as fh:
        refs = json.load(fh)[wl.name]

    base = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        result = run(args.mode, args.seconds, wl, abs(args.seed), base, refs)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "phom": phom.__version__}
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
