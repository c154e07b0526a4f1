"""phom benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json in child processes (child.py), one
at a time, and prints as its last line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
The line before it is a JSON object `{"info": ...}` with the seed, the
instances in op order, the tail percentile and sample counts, the probe
outcome, the uncalibrated op times and the machine: nproc, CPU model,
Python, numpy and scipy versions, and the line count of src/
(information only).

Op times are calibrated: the child times a fixed reference kernel
(child.reference_s) after each op, and the median op time is divided by
the kernel's median over the nominal kernel time KERNEL_NOMINAL_S. On a
shared machine whose speed drifts, this keeps the figures of runs made
minutes apart comparable; a change to phom does not touch the kernel.

`--trace 0` spawns SETUP_RUNS children in turn. All but the last stop
after set-up; the last one also runs the timed ops. setup_s is the
median over them of the time from spawn to the first timed op.

Exits non-zero without a result line when the checkout has no src/phom,
when a child fails or when the run would pass the time limit.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
# Median time of child.reference_s on the machine the benchmark was tuned
# on (2-CPU Intel Xeon VM, Python 3.11, numpy 2.4) when it ran at full
# speed. Calibrated times are wall times scaled to that speed.
KERNEL_NOMINAL_S = 0.040


def spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one child to completion: (monotonic spawn time, its result)."""
    result_path = os.path.join(WORK, f"result-{os.getpid()}-{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--result", result_path]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} child passed the {TIME_LIMIT_S:.0f} s "
                         "limit") from None
    if proc.returncode != 0:
        raise SystemExit(f"{mode} child exited with {proc.returncode}")
    with open(result_path, encoding="ascii") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return t_spawn, result


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least 10 samples beyond it: the (n-10)-th smallest of n samples.
    Falls back to the maximum (percentile 100) below 11 samples."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100
    return s[n - 11], (100 * (n - 10)) // n


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    ops = res["ops"]
    ok_times = [o["seconds"] for o in ops if o["ok"]]
    probe = res.get("probe")
    # The probe weighs as much as one op on each instance, however many
    # rounds of ops fit in the run.
    ok_frac = len(ok_times) / len(ops)
    if probe is not None:
        n = len(res["instances"])
        ok_frac = (n * ok_frac + probe["ok"]) / (n + 1)
    if not ok_times:
        raise SystemExit("every timed op failed")
    tail_s, tail_pct = tail(ok_times)
    op_p50_s = statistics.median(ok_times)
    ops_per_s = len(ok_times) / sum(o["seconds"] for o in ops)
    # The kernel ran once after each op, so both medians cover the same
    # minutes, and the machine's speed over them divides out.
    kernel_p50_s = statistics.median(res["kernel_s"])
    speed = kernel_p50_s / KERNEL_NOMINAL_S
    metrics = {
        "op_p50_cal_s": op_p50_s / speed,
        "ops_per_cal_s": ops_per_s * speed,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": ok_frac,
        "setup_s": statistics.median(setups),
    }
    info = {"op_p50_s": {"value": op_p50_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "kernel_p50_s": {"value": kernel_p50_s, "unit": "s",
                             "nominal": KERNEL_NOMINAL_S},
            "op_tail_s": {"value": tail_s, "unit": "s",
                          "percentile": tail_pct, "samples": len(ok_times)},
            "failed_frac": 1.0 - ok_frac,
            "setup_samples_s": setups, "probe": probe,
            "errors": sorted({o["error"] for o in ops if o["error"]})}
    return metrics, info


def per_layer(res: dict) -> tuple[dict, dict]:
    layers = dict(res["per_layer"])
    useful = layers.pop("persistence.useful_points")
    info = {"persistence.useful_ratio_base":
            f"{useful:g} dim>=1 diagram points of "
            f"{layers['persistence.columns']:g} reduced columns",
            "traced_ops": sum(o["traced"] for o in res["ops"]),
            "untraced_ops": sum(not o["traced"] for o in res["ops"])}
    return layers, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "phom", "__init__.py")):
        print(f"error: no phom sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.trace:
        _, res = spawn(args, "trace", deadline)
        values, info = per_layer(res)
    else:
        setups = []
        for k in range(SETUP_RUNS):
            mode = "run" if k == SETUP_RUNS - 1 else "setup"
            t_spawn, res = spawn(args, mode, deadline)
            setups.append(res["t_first"] - t_spawn)
        values, info = end_to_end(setups, res)

    ops = res["ops"]
    failed = sum(not o["ok"] for o in ops)
    correct = failed == 0 and res["warmup_error"] is None
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if not math.isfinite(value):
            raise SystemExit(f"{m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    info.update(workload=args.workload, seed=args.seed,
                instances=res["instances"], warmup_error=res["warmup_error"],
                machine={**machine(), **res["versions"]},
                src_lines=src_lines())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
