"""Runs one workload's commands in-process, round by round, and times them.

Usage: python3 worker.py RUN_DIR LAUNCH_TIME

The parent writes ``plan.json`` into RUN_DIR and records LAUNCH_TIME
(``time.monotonic()``) just before it starts this process.  The worker
imports ``minconsist.cli`` first, so ``setup_s`` is one cold start:
interpreter launch plus the package import, nothing else.  It then runs
one warm-up round and timed rounds until the requested seconds have
passed, always whole rounds.  It imports nothing outside the standard
library and ``minconsist``, so its peak RSS is the program's.  The
result goes to ``worker_result.json`` in RUN_DIR.
"""

import sys
import time

import minconsist.cli

T_READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


CALIBRATION_ITERATIONS = 100_000


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


def calibration_loop():
    """A fixed pure-Python loop: its time says how fast this machine runs Python now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    run_dir, launch = sys.argv[1], float(sys.argv[2])
    os.chdir(run_dir)
    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]

    tracer = None
    if trace:
        import tracer as tracer_mod  # from this script's directory

        tracer = tracer_mod.Tracer()
        tracer.install()

    entry = minconsist.cli.main
    first = {}          # op name -> {"stdout": sha, "model": sha}
    mismatches = []
    failures = []
    rounds = []         # per timed round: {"train": s, "predict": s, "audit": s, "ops": {...}}
    layer_rounds = []   # per timed round, traced runs only
    spans = None

    def one_round(index):
        nonlocal spans
        totals = {"train": 0.0, "predict": 0.0, "audit": 0.0}
        per_op = {}
        stdout_bytes = 0
        if tracer is not None:
            tracer.reset(keep_spans=index == 1)
        calibration = []
        for op in ops:
            calibration.append(calibration_loop())
            code, elapsed, out, err = run_op(entry, op["argv"])
            if code != 0:
                failures.append({"op": op["name"], "round": index, "code": code,
                                 "stderr": err[-2000:]})
                continue
            totals[op["kind"]] += elapsed
            per_op[op["name"]] = elapsed
            data = out.encode("utf-8")
            stdout_bytes += len(data)
            record = {"stdout": hashlib.sha256(data).hexdigest()}
            if op["kind"] == "train":
                record["model"] = sha256_file(op["model"])
            if index == 0:
                first[op["name"]] = record
                with open(op["name"].replace(":", "_") + ".out", "w", encoding="utf-8") as fh:
                    fh.write(out)
            elif first.get(op["name"]) != record:
                mismatches.append({"op": op["name"], "round": index})
        if tracer is not None:
            layers = tracer.snapshot()
            layers["cli.stdout_bytes"] = stdout_bytes
            if index == 1:
                spans = tracer.spans
            return totals, per_op, calibration, layers
        return totals, per_op, calibration, None

    one_round(0)  # warm-up: fills caches, records the reference bytes
    start = time.perf_counter()
    index = 1
    while True:
        totals, per_op, calibration, layers = one_round(index)
        rounds.append({**totals, "ops": per_op, "calibration": calibration})
        if layers is not None:
            layer_rounds.append(layers)
        index += 1
        if time.perf_counter() - start >= seconds:
            break

    result = {
        "setup_s": T_READY - launch,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": index * len(ops),
        "failures": failures,
        "byte_mismatches": mismatches,
        "hashes": first,
        "rounds": rounds,
        "layer_rounds": layer_rounds,
        "minconsist_file": minconsist.cli.__file__,
    }
    with open("worker_result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if spans is not None:
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    main()
