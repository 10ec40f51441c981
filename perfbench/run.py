"""reachcert benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload hitting-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; nothing needs installing.  The script
pins the thread counts, times the set-up in several fresh interpreters,
runs the workload in one more (``perfbench/workloads.py``), and prints a
readable report followed by a last line holding
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
figures of a traced run.  The full record, with the environment and the
digest of the seeded results, is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
RECORDS = ROOT / ".perfbench"

WORKLOADS = ("hitting-long", "occupancy-wide", "certify-sweep")
# Seed for tuning and everyday runs, and a seed kept back for checking a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 90_210
SETUP_PROBES = 5
THREADS = 2
# Every child must end before this many seconds from the start of the run.
DEADLINE_S = 170


def child_env() -> dict:
    """Environment of every child: the checkout's sources, pinned threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REACHCERT_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]


def time_left(deadline: float) -> float:
    return max(deadline - time.monotonic(), 0.001)


def setup_seconds(args, env, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import reachcert and build the inputs.

    The first probe is not counted: it fills the bytecode cache, which
    users of an installed package do not pay on every call.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(worker_cmd(args, "--setup-only"), env=env, cwd=ROOT, check=True,
                       timeout=time_left(deadline), stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def end_to_end(args, result, setup) -> tuple[dict, list[str]]:
    ok = [seconds for _label, seconds, status in result["ops"] if status == "ok"]
    if not ok:
        raise SystemExit("error: no operation succeeded; nothing to measure")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_mean_s": (statistics.fmean(ok), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [f"setup_s is the median of {len(setup)} fresh interpreters"]
    if result["steps_per_op"]:
        steps = result["steps_per_op"] * len(ok) / sum(ok)
        notes.append(f"traj_steps_per_s {steps:.6g} 1/s (nominal trajectories x horizon, {len(ok)} ops)")
    tail = stats.tail_percentile(ok)
    prefix = "certify" if args.workload == "certify-sweep" else "op"
    notes.append(f"{prefix}_p50_s {statistics.median(ok):.6g} s over {len(ok)} succeeded ops")
    if tail is None:
        notes.append(f"{prefix}_tail_s not reported: {len(ok)} ops leave no percentile with 10 beyond it")
    else:
        p, value, beyond, n = tail
        notes.append(f"{prefix}_tail_s {value:.6g} s at p{p:g} ({beyond} of {n} ops beyond it)")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reachcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for gain claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reachcert" / "__init__.py").is_file():
        print(f"error: no reachcert sources under {ROOT / 'src'}; run from a reachcert checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    RECORDS.mkdir(exist_ok=True)
    try:
        setup = setup_seconds(args, env, deadline)
        proc = subprocess.run(
            worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            env=env, cwd=ROOT, check=True, timeout=time_left(deadline), stdout=subprocess.PIPE, text=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = len(result["ops"])
    failed = sum(1 for _l, _s, status in result["ops"] if status == "failed")
    defects = sum(1 for _l, _s, status in result["ops"] if status == "defect")
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["per_layer"].items()}
        notes = [f"per-layer figures are per cycle over the traced cycles; spans in {result['spans_file']}",
                 f"tracing overhead {metrics['trace.overhead_frac'][0]:+.3%} against untraced cycles of the same run"]
    else:
        metrics, notes = end_to_end(args, result, setup)

    env_block = result["environment"]
    print(f"reachcert benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_block.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ops_frac {(failed + defects) / attempted:.4f} ({failed} failed, {defects} known defects, "
          f"of {attempted} ops in {result['cycles']} cycles)")
    for problem in dict.fromkeys(result["problems"]):
        print(f"    {problem}")
    print(f"  digest {result['digest']}")

    record = dict(result, setup_s=setup, metrics=metrics, notes=notes)
    with open(RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
