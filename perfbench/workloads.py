"""One benchmark workload, run in its own process.

    python3 perfbench/workloads.py --src SRC --inputs INPUTS.json --out OUT.json \
        --seconds S --trace 0|1 [--setup-only]

Prints ``ready <monotonic time>`` on stdout when its set-up ends, then
``calibration <seconds>``, the mean time of the calibration kernel
(calibrate.py) right after set-up; with --setup-only it stops there. Then
it repeats the workload's fixed job in whole rounds until S seconds have
passed and at least MIN_ROUNDS rounds have run, with tracing off; with
--trace 1 untraced and traced rounds alternate and at least one of each
runs. The first
round's outputs, a digest of every round's outputs, the round times, each
untraced round's operation latencies and calibration times, and the peak
resident memory go to OUT.json for the parent to check and summarize. The
calibration kernel runs right after every operation of an untraced round,
outside the timed operations and the round time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

import calibrate


# Two untraced rounds at least, so that every run pools 186 or more
# operations.
MIN_ROUNDS = 2
# Calls of the calibration kernel each process makes when its set-up ends.
SETUP_CALIBRATION_CALLS = 100


class _StopScan(Exception):
    """Raised from a progress callback to interrupt a scan."""


def _calibrate(cal: list[float], traced: bool) -> None:
    """Time the calibration kernel right after an operation, outside its
    timing; traced rounds skip it, so that it adds to no span."""
    if not traced:
        cal.append(calibrate.timed())


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class ScanBand:
    """Exact-mode scan of a band, with CSV and checkpoint, stopped from the
    progress callback at the middle of the band and resumed."""

    def __init__(self, inputs: dict, workdir: str):
        from primpair import search
        self.search = search
        self.lo, self.hi = inputs["lo"], inputs["hi"]
        self.segment = inputs["segment"]
        self.stop_at = inputs["stop_at"]
        self.csv = os.path.join(workdir, "scan_band.csv")
        self.checkpoint = os.path.join(workdir, "scan_band.ckpt.json")
        self.file_counts = {"io.csv_bytes": 0, "io.checkpoint_writes": 0}

    def _clean(self):
        for path in (self.csv, self.checkpoint):
            if os.path.exists(path):
                os.remove(path)

    def round(self, traced: bool):
        self._clean()
        lat: list[float] = []
        cal: list[float] = []
        mark = [0.0]
        writes = [0]

        def progress(seg_end, hi, emitted):
            lat.append(perf_counter() - mark[0])
            if traced:
                with open(self.checkpoint) as fh:
                    if json.load(fh)["next_q"] == seg_end:
                        writes[0] += 1
            _calibrate(cal, traced)
            if stopping and seg_end >= self.stop_at:
                raise _StopScan
            mark[0] = perf_counter()

        kwargs = dict(mode="exact", csv_path=self.csv, checkpoint_path=self.checkpoint,
                      segment_size=self.segment, progress=progress)
        t0 = perf_counter()
        stopping = True
        mark[0] = t0
        try:
            self.search.run_scan(self.lo, self.hi, 2, **kwargs)
        except _StopScan:
            pass
        stopping = False
        mark[0] = perf_counter()
        result, _ = self.search.run_scan(self.lo, self.hi, 2, resume=True, **kwargs)
        wall = perf_counter() - t0 - sum(cal)

        with open(self.csv) as fh:
            text = fh.read()
        if traced:
            self.file_counts = {"io.csv_bytes": len(text.encode()),
                                "io.checkpoint_writes": writes[0]}
        output = {"csv": text, "summary": {
            "num_candidates": result.num_candidates,
            "max_candidate": result.max_candidate,
            "records_emitted": result.records_emitted}}
        # the resumed summary counts as one more operation
        return wall, lat, cal, len(lat) + 1, output


class ScanFaithful:
    """Paper-faithful scan from q = 3, records kept in memory."""

    def __init__(self, inputs: dict, workdir: str):
        from primpair import search
        self.search = search
        self.hi = inputs["hi"]
        self.segment = inputs["segment"]

    def round(self, traced: bool):
        lat: list[float] = []
        cal: list[float] = []
        mark = [0.0]

        def progress(seg_end, hi, emitted):
            lat.append(perf_counter() - mark[0])
            _calibrate(cal, traced)
            mark[0] = perf_counter()

        t0 = perf_counter()
        mark[0] = t0
        result, records = self.search.run_scan(
            3, self.hi, 2, mode="faithful", segment_size=self.segment, progress=progress)
        wall = perf_counter() - t0 - sum(cal)
        output = {"csv": "".join(r.csv_line() + "\n" for r in records), "summary": {
            "num_candidates": result.num_candidates,
            "max_candidate": result.max_candidate,
            "records_emitted": result.records_emitted}}
        return wall, lat, cal, len(lat), output


class Classify:
    """True-exception classification of (1,1) and (2,0) at reduced qmax."""

    def __init__(self, inputs: dict, workdir: str):
        from primpair import search
        self.search = search
        self.jobs = [(tuple(job["family"]), job["qmax"]) for job in inputs["jobs"]]

    def round(self, traced: bool):
        lat: list[float] = []
        cal: list[float] = []
        mark = [0.0]
        seen: list[list] = []

        def progress(q, member):
            lat.append(perf_counter() - mark[0])
            seen.append([q, member])
            _calibrate(cal, traced)
            mark[0] = perf_counter()

        output = []
        wall = 0.0
        for family, qmax in self.jobs:
            seen = []
            spent = sum(cal)
            t0 = perf_counter()
            mark[0] = t0
            res = self.search.classify_true_exceptions(qmax, family, progress=progress)
            wall += perf_counter() - t0 - (sum(cal) - spent)
            output.append({
                "family": list(family), "qmax": qmax, "candidates": seen,
                "q_list": res.q_list, "complete": res.complete,
                "exceptions": [[e.q, e.p, e.k, list(e.failing_num), list(e.failing_den)]
                               for e in res.exceptions]})
        return wall, lat, cal, len(lat), output


class Queries:
    """A closed loop of in-process CLI calls, one at a time."""

    def __init__(self, inputs: dict, workdir: str):
        from primpair import cli
        self.cli = cli
        self.stream = [query["argv"] for query in inputs["stream"]]

    def round(self, traced: bool):
        lat: list[float] = []
        cal: list[float] = []
        output = []
        wall = 0.0
        for argv in self.stream:
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a crash is a failed operation, not a stop
                rc = None
                buf.write(f"{type(e).__name__}: {e}")
            dt = perf_counter() - t0
            wall += dt
            lat.append(dt)
            output.append([rc, buf.getvalue()])
            _calibrate(cal, traced)
        return wall, lat, cal, len(lat), output


WORKLOADS = {"scan_band": ScanBand, "scan_faithful": ScanFaithful,
             "classify": Classify, "queries": Queries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import primpair  # noqa: F401  (the set-up cost being measured)
    from primpair import bounds, cli, ffcore, polyrat, search  # noqa: F401
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    workload = WORKLOADS[inputs["workload"]](inputs, os.path.dirname(args.inputs))

    print(f"ready {time.monotonic()!r}", flush=True)
    setup_calibration = statistics.mean(
        calibrate.timed() for _ in range(SETUP_CALIBRATION_CALLS))
    print(f"calibration {setup_calibration!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    walls, traced_walls, latencies, calibrations, digests = [], [], [], [], []
    attempted = 0
    first_output = None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        gc.collect()  # start each round from the same heap
        if traced:
            tracer.install()
        try:
            wall, lat, cal, ops, output = workload.round(traced)
        finally:
            if traced:
                tracer.uninstall()
        attempted += ops
        (traced_walls if traced else walls).append(wall)
        if not traced:
            latencies.append(lat)
            calibrations.append(cal)
        if first_output is None:
            first_output = output
        digests.append(_digest(output))
        done = (perf_counter() - start >= args.seconds
                and len(walls) >= (MIN_ROUNDS if tracer is None else 1))
        if done and (tracer is None or len(traced_walls) == len(walls)):
            break

    result = {
        "walls": walls, "traced_walls": traced_walls, "latencies": latencies,
        "calibrations": calibrations, "setup_calibration": setup_calibration,
        "attempted": attempted, "rounds": len(walls) + len(traced_walls),
        "digests": digests, "output": first_output,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.summary()
        rounds = len(traced_walls)
        result["layers"] = {k: v / rounds for k, v in layers.items()}
        result["layers"].update(getattr(workload, "file_counts", {}))
        result["missing"] = tracer.missing
        tracer.write(os.path.join(os.path.dirname(args.out), inputs["workload"] + ".trace.npz"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
