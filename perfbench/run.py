"""Benchmark of ``haar_riesz``: one run of one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run starts SETUP_PROBES fresh
processes that only import the package and make the inputs, then one fresh
process (``worker.py``) that makes the inputs, runs whole rounds of the
workload for ``--seconds`` and checks the outputs.  Every child is
single-threaded (BLAS thread counts pinned to 1, HAAR_RIESZ_THREADS unset).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object, with the worker's details, is written to
``.perfbench_out/<workload>-<seed>-trace<0|1>.json``; a traced run also
writes its spans there.  Exit code 2 means the run could not start (bad
arguments, no ``src/haar_riesz``); 1 means a child failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "search-random", "search-greedy", "identities")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # every run, children included, ends within 180 s

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HAAR_RIESZ_THREADS", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise TimeoutError("no time left for the next child process")
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=remaining,
        check=True,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    if not (ROOT / "src" / "haar_riesz" / "__init__.py").is_file():
        print(f"perfbench: no haar_riesz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = started + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            run_child([*common, "--setup-only"], deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        worker = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except (subprocess.SubprocessError, TimeoutError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [worker["setup_s"]])
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }
    OUT.mkdir(exist_ok=True)
    detail = {**result, "worker": worker, "setup_probes_s": setups}
    path = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for message in worker["errors"] + worker["check_failures"]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
