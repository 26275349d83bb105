"""Benchmark of primpair: scans, classification and single-field queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a primpair checkout. Workloads: scan_band,
scan_faithful, classify, queries (see README.md in this directory).

The workload runs in its own process (perfbench/workloads.py). Set-up time
is also measured on five further processes, three before it and two after,
that stop just before the first timed operation. Every time is scaled to
the reference speed of the calibration kernel (perfbench/calibrate.py),
timed beside it. Every output is then checked against the reference
arithmetic in perfbench/reference.py, which imports nothing from primpair.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("scan_band", "scan_faithful", "classify", "queries")
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
CHILD_TIMEOUT_S = 150

PER_LAYER = (
    ("bounds.sieve_pass_prefix.calls", "count"),
    ("bounds.sieve_pass_prefix.s", "s"),
    ("bounds.sieve_pass_prefix.calls_per_q", "calls/q"),
    ("search.run_scan.self_s", "s"),
    ("ffcore.sieve_primes.s", "s"),
    ("io.csv_bytes", "bytes"),
    ("io.checkpoint_writes", "count"),
    ("search.q_in_Q.calls", "count"),
    ("search.q_in_Q.self_s", "s"),
    ("ffcore.FieldCtx.add_vec.calls", "count"),
    ("ffcore.FieldCtx.add_vec.s", "s"),
    ("ffcore.FieldCtx.mul_vec.calls", "count"),
    ("ffcore.FieldCtx.mul_vec.s", "s"),
    ("ffcore.field_make.calls", "count"),
    ("ffcore.field_make.s", "s"),
    ("search.pair_exists.calls", "count"),
    ("search.pair_exists.s", "s"),
    ("search.pair_exists.examined", "count"),
    ("search.exception_scan.s", "s"),
    ("ffcore.factorize.calls", "count"),
    ("ffcore.factorize.s", "s"),
    ("bounds.best_sieve.calls", "count"),
    ("bounds.best_sieve.s", "s"),
    ("polyrat.enumerate_family.items", "count"),
    ("polyrat.enumerate_family.s", "s"),
    ("polyrat.is_exceptional.calls", "count"),
    ("polyrat.is_exceptional.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    pass


def _child(args: list[str], timeout: float) -> tuple[float, float]:
    """Run one workload process; return its set-up time and the mean time
    of the calibration kernel right after it."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--src", SRC] + args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    said = dict(line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line)
    if "ready" not in said or "calibration" not in said:
        raise BenchError("workload process never reported ready")
    return float(said["ready"]) - t_spawn, float(said["calibration"])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _scaled(walls, latencies, calibrations) -> tuple[list[float], list[float]]:
    """Operation latencies (ms) and round times (s) at the calibration
    kernel's reference speed.

    The kernel ran right after every operation, so each operation is
    scaled by REFERENCE_S over the mean of the kernel's times just before
    and just after it, which catches the host's flips between a fast and a
    slow state that last longer than an operation. A round's time is scaled
    by the time-weighted mean of its operations' scales.
    """
    lat_ms, scaled_walls = [], []
    for wall, lat, cal in zip(walls, latencies, calibrations):
        if len(cal) != len(lat):
            raise BenchError("calibration times do not pair with the operations")
        before = cal[:1] + cal[:-1]
        scale = [2.0 * REFERENCE_S / (b + a) for b, a in zip(before, cal)]
        lat_ms += [x * k * 1000.0 for x, k in zip(lat, scale)]
        scaled_walls.append(wall * sum(x * k for x, k in zip(lat, scale)) / sum(lat))
    return lat_ms, scaled_walls


def _check(workload: str, inputs: dict, output) -> tuple[list[str], int, int]:
    """(problems, failed operations per round, prime powers scanned per round)."""
    import checks
    import reference as ref
    if workload == "scan_band":
        survivors, scanned = ref.scan_survivors(inputs["lo"], inputs["hi"])
        problems, failed = checks.check_scan_band(output, survivors)
    elif workload == "scan_faithful":
        survivors, scanned = ref.scan_survivors(3, inputs["hi"])
        problems, failed = checks.check_scan_faithful(output, survivors)
    elif workload == "classify":
        by_qmax, scanned = {}, 0
        for job in inputs["jobs"]:
            by_qmax[job["qmax"]], n = ref.scan_survivors(3, job["qmax"])
            scanned += n
        problems, failed = checks.check_classify(output, by_qmax)
    else:
        scanned = 0
        problems, failed = checks.check_queries(output, inputs["stream"])
    return problems, failed, scanned


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "primpair", "__init__.py")):
        raise BenchError(f"no primpair sources under {SRC}; run from a primpair checkout")
    from inputs import make_inputs

    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = make_inputs(workload, seed)
    inputs_path = os.path.join(OUT_DIR, f"{workload}.inputs.json")
    out_path = os.path.join(OUT_DIR, f"{workload}.result.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)
    if os.path.exists(out_path):
        os.remove(out_path)

    # Set-up samples before and after the workload process, so that they
    # span the run as the rounds do.
    def probe():
        return _child(["--inputs", inputs_path, "--setup-only"], 60)

    setups = [probe() for _ in range(SETUP_PROBES_BEFORE)]
    setups.append(_child(
        ["--inputs", inputs_path, "--out", out_path, "--seconds", str(seconds),
         "--trace", str(trace)], CHILD_TIMEOUT_S))
    setups += [probe() for _ in range(SETUP_PROBES_AFTER)]
    with open(out_path) as fh:
        res = json.load(fh)

    problems, failed_per_round, scanned = _check(workload, inputs, res["output"])
    if len(set(res["digests"])) != 1:
        problems.append("rounds gave different outputs")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}")

    if trace:
        layers = res["layers"]
        calls = layers.get("bounds.sieve_pass_prefix.calls", 0)
        layers["bounds.sieve_pass_prefix.calls_per_q"] = calls / scanned if scanned else 0.0
        layers["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                      - statistics.median(res["walls"]))
        if res["missing"]:
            print(f"trace: not found, reported as 0: {', '.join(res['missing'])}")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        lat_ms, walls = _scaled(res["walls"], res["latencies"], res["calibrations"])
        metrics = {
            "setup_s": {"value": statistics.median(t * REFERENCE_S / c for t, c in setups),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": _p90(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        raw_ms = [x * 1000.0 for lat in res["latencies"] for x in lat]
        kernel_ms = statistics.mean(c for cal in res["calibrations"] for c in cal) * 1000.0
        print(f"{workload}: as timed, before scaling: "
              f"setup_s {statistics.median(t for t, _ in setups):.4g}, "
              f"wall_s {statistics.median(res['walls']):.4g}, "
              f"op_p50_ms {statistics.median(raw_ms):.4g}, op_p90_ms {_p90(raw_ms):.4g}; "
              f"calibration kernel {kernel_ms:.4g} ms against {REFERENCE_S * 1000.0:.4g} ms")
    print(f"{workload}: seed {seed}, {res['rounds']} rounds, "
          f"{sum(map(len, res['latencies']))} timed operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": failed_per_round * res["rounds"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
