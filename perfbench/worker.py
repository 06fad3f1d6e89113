"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file; it prints one JSON object on its last line of
standard output.  Set-up time is measured from the first line of this file,
so it covers importing ``haar_riesz`` (and numpy) and making the inputs.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from speed import Speedometer  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: a few rounds whose inputs happen to be costly
    (a search that wanders into a dense family) do not move it, and unlike
    the median it still averages over half of the rounds."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


def round_times(ops: Ops) -> list[float]:
    """Per round, the summed time of its operations."""
    totals: dict[int, float] = {}
    for r, _, start, end in ops.records:
        totals[r] = totals.get(r, 0.0) + (end - start)
    return [totals[r] for r in sorted(totals)]


def op_times(ops: Ops) -> dict[str, list[float]]:
    """Operation times in ms, by kind."""
    out: dict[str, list[float]] = {}
    for _, kind, start, end in ops.records:
        out.setdefault(kind, []).append(1e3 * (end - start))
    return out


def run_rounds(workload, inputs, seconds: float, tracer=None):
    """Whole rounds for about ``seconds``: a new round starts only while the
    run would end nearer to ``seconds`` with it than without it.  With a
    tracer, each round runs untraced and then traced on the same inputs."""
    speedometer = Speedometer()
    ops, traced_ops = Ops(speedometer), Ops(speedometer)
    outputs, mismatches, lengths = [], [], []
    start = perf_counter()
    r = 0
    while True:
        begin = perf_counter()
        ops.round = traced_ops.round = r
        output = workload.run_round(inputs, r, ops)
        outputs.append((r, output))
        if tracer is not None:
            tracer.install()
            try:
                traced = workload.run_round(inputs, r, traced_ops)
            finally:
                tracer.uninstall()
            if traced != output:
                mismatches.append(f"round {r}: traced outputs differ from untraced ones")
        lengths.append(perf_counter() - begin)
        r += 1
        if perf_counter() - start + statistics.median(lengths) / 2 >= seconds:
            break
    speedometer.sample()
    return ops, traced_ops, outputs, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.prepare(args.seed)
        finally:
            tracer.uninstall()
        tracer.end_setup()
    else:
        inputs = workload.prepare(args.seed)
    setup_s = perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops, traced_ops, outputs, mismatches = run_rounds(workload, inputs, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks_started = perf_counter()
    failures = mismatches + workload.check(inputs, outputs, args.seed)
    checks_s = perf_counter() - checks_started

    rounds = round_times(ops)
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = {
            "fields": ["name", "start", "end", "parent"],
            "setup_spans": tracer.setup_mark[0],
            "spans": tracer.spans,
        }
        path = out_dir / f"{args.workload}-{args.seed}-spans.json"
        path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        traced_rounds = round_times(traced_ops)
        metrics = layer_metrics(tracer, len(traced_rounds))
        metrics["trace.overhead_s"] = interquartile_mean(traced_rounds) - interquartile_mean(rounds)
    else:
        metrics = {
            "wall_s": interquartile_mean(rounds) * ops.speedometer.factor(),
            "peak_rss_mib": peak_rss_mib,
        }
    result = {
        "setup_s": setup_s,
        "round_s": rounds,
        "op_ms": op_times(ops),
        "checks_s": checks_s,
        "chunk_median_s": statistics.median(ops.speedometer.samples),
        "wall_measured_s": interquartile_mean(rounds),
        "attempted": ops.attempted + traced_ops.attempted,
        "failed": ops.failed + traced_ops.failed,
        "errors": (ops.errors + traced_ops.errors)[:20],
        "check_failures": failures[:20],
        "correct": not failures,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
