"""Shot-pipeline benchmark launcher.

    python3 perfbench/run.py --workload hc6-local --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6
    python3 perfbench/run.py --self-check

Each workload runs in its own child process (``pipeline.py``) with BLAS
pinned to one thread and the checkout's ``src`` on the import path, so
``peak_rss_mb`` is that workload's alone.  The child's output is passed
through; its last line is the JSON result.  ``--self-check`` runs every
workload at a tiny size, traced and untraced, and confirms that every
printed metric name and unit is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hc6-local", "hc9-dist", "hc12-dist-sample")
CHILD_TIMEOUT_S = 170
ONE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """Run one workload in a child process; returns (exit code, stdout)."""
    if not (ROOT / "src" / "floqnet").is_dir():
        print(f"no floqnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2, ""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(ROOT / "src")}
    cmd = [
        sys.executable, str(HERE / "pipeline.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def self_check() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(name, seed=1, seconds=0.3, trace=trace, tiny=True)
            res = result_of(out) if code == 0 else {}
            if not res.get("correct"):
                problems.append(f"{name} trace={trace}: exit {code}, result {res}")
                continue
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            if printed != declared[trace]:
                problems.append(
                    f"{name} trace={trace}: printed {printed}, declared {declared[trace]}"
                )
            print(f"{name} trace={trace}: attempted {res['attempted']}, failed {res['failed']}")
    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description="shot-pipeline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload or --self-check is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code, out = run_workload(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0 or not result_of(out):
            return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
