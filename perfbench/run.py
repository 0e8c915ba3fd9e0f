"""The minconsist benchmark: train, predict and audit through the CLI's entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The
line before it lists the SHA-256 of every model file and every
``predict`` and ``audit`` output.  A record of the run, and with
``--trace 1`` its spans, are written under ``perfbench/_runs``.
``--smoke`` runs every workload at tiny sizes, traced and untraced,
with every check, and exits 0 only if all of them pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

WORKER_GRACE_S = 150  # beyond --seconds: warm-up round, last round, set-up
# The calibration loop's median time on the reference machine (2-vCPU Xeon VM,
# Python 3.11).  The end-to-end times are reported in seconds at that speed:
# raw seconds times CALIBRATION_REF_S over this run's median loop time.
CALIBRATION_REF_S = 0.0116


def child_env() -> dict:
    """A fixed environment for every process that runs the program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def import_times(env: dict, launches: int = 3) -> dict:
    """Cumulative import time of minconsist.cli and minconsist.oracle, median of launches."""
    found: dict[str, list[float]] = {"cli.import_s": [], "oracle.import_s": []}
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import minconsist.cli"],
            env=env, capture_output=True, text=True, timeout=60, cwd=str(ROOT),
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "minconsist.cli":
                found["cli.import_s"].append(int(parts[1]) / 1e6)
            elif name == "minconsist.oracle":
                found["oracle.import_s"].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in found.items() if v}


def run_worker(plan, run_dir: Path, seconds: float, trace: bool, env: dict) -> dict:
    doc = {
        "ops": [asdict(op) for op in plan.ops],
        "seconds": seconds,
        "trace": trace,
    }
    (run_dir / "plan.json").write_text(json.dumps(doc), encoding="utf-8")
    launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(run_dir), repr(launch)],
        env=env, cwd=str(run_dir), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads((run_dir / "worker_result.json").read_text(encoding="utf-8"))


def raw_seconds(result: dict) -> dict:
    """Median over timed rounds of the time each kind of command took."""
    rounds = result["rounds"]
    return {kind: statistics.median(r[kind] for r in rounds)
            for kind in ("train", "predict", "audit")}


def speed_factor(result: dict) -> float:
    """Reference calibration time over this run's median calibration time."""
    samples = [t for r in result["rounds"] for t in r["calibration"]]
    return CALIBRATION_REF_S / statistics.median(samples)


def end_to_end(result: dict, ratio: float) -> dict:
    factor = speed_factor(result)
    metrics = {"setup_s": (result["setup_s"] * factor, "s")}
    for kind, seconds in raw_seconds(result).items():
        metrics[f"{kind}_s"] = (seconds * factor, "s")
    metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024.0, "MiB")
    metrics["objective_ratio"] = (ratio, "ratio")
    return metrics


def per_layer(result: dict, imports: dict) -> tuple[dict, list[str]]:
    """Median over rounds of each layer figure; counts must repeat in every round."""
    rounds = result["layer_rounds"]
    metrics, errors = {}, []
    for name, value in imports.items():
        metrics[name] = (value, "s")
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
            continue
        if len(set(values)) != 1:
            errors.append(f"{name} differs between identical rounds: {values}")
        metrics[name] = (values[0], "B" if name.endswith("_bytes") else "count")
    return metrics, errors


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Generate inputs, run the worker, check every output; returns the run record."""
    from checks import Checker

    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    run_dir = RUNS / f"{tag}.{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    env = child_env()
    try:
        plan = workloads.build_plan(workload, seed, smoke, run_dir)
        # Import from bytecode, as an installed package would.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "minconsist")],
                       env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)
        result = run_worker(plan, run_dir, seconds, trace, env)

        errors = []
        if not Path(result["minconsist_file"]).resolve().is_relative_to(SRC.resolve()):
            errors.append(f"imported minconsist from {result['minconsist_file']}")
        errors += [f"{m['op']}: round {m['round']} bytes differ from round 0"
                   for m in result["byte_mismatches"]]
        checker = Checker(run_dir, plan)
        checker.run()
        errors += checker.errors
        ratio = statistics.geometric_mean(checker.ratios) if checker.ratios else 1.0

        if trace:
            metrics, layer_errors = per_layer(result, import_times(env))
            errors += layer_errors
            spans = run_dir / "spans.json"
            if spans.exists():
                shutil.copyfile(spans, RUNS / f"{tag}.spans.json")
        else:
            metrics = end_to_end(result, ratio)
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "sizes": plan.sizes, "errors": errors,
            "failures": result["failures"], "attempted": result["attempted"],
            "rounds": len(result["rounds"]), "round_times": result["rounds"],
            "raw_seconds": {"setup": result["setup_s"], **raw_seconds(result)},
            "speed_factor": speed_factor(result),
            "hashes": result["hashes"], "checks": checker.details,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "environment": {k: env[k] for k in ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS")},
        }
        (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def smoke() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_once(workload, workloads.DEFAULT_SEED, 0.0, trace, smoke=True)
            good = not record["errors"] and not record["failures"]
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={int(trace)} "
                  f"ops={record['attempted']}", flush=True)
            for message in record["errors"] + [str(f) for f in record["failures"]]:
                print(f"     {message}", flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes with every check")
    args = parser.parse_args(argv)
    if not (SRC / "minconsist" / "cli.py").is_file():
        print(f"error: no minconsist sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    for message in record["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"sha256": record["hashes"]}))
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
