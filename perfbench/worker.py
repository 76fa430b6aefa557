"""One workload in a fresh process; run.py starts it and reads its last line.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py work --workload W --seed N --seconds S --trace 0|1

`setup` times the workload's set-up once and prints {"setup_s": ...}.
`work` sets up, then repeats passes of the workload while another pass is
expected to end within S seconds (always at least one), checks every pass,
and prints a JSON object with timings, checks and, when traced, the
per-layer metrics. A traced run also writes its spans to perfbench/out/.
Times are machine-speed scaled (see speed.py); raw times sit beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

import workloads
from speed import Meter


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "work"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_source_tree()
    if args.mode == "setup":
        meter = Meter(workloads.corpus_text())
        meter.mark()
        workloads.import_package(args.workload)
        workloads.set_up(args.workload)
        meter.mark(final=True)
        raw, scaled = meter.totals()
        print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
        return
    result, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer:
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))


def measure(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None):
    """Set up and run the workload; returns (result, tracer or None)."""
    meter = Meter(workloads.corpus_text())
    meter.mark()
    workloads.import_package(workload)
    meter.mark(final=True)
    inputs = workloads.build_inputs(workload, seed, size)
    tracer = None
    if trace:
        from tracer import Tracer, summarize

        corpus = workloads._corpus_paragraphs()
        tracer = Tracer({text: i for i, text in reversed(list(enumerate(corpus)))})
        tracer.install()
        meter.tracer = tracer
    try:
        if tracer:
            tracer.open("bench.setup")
        meter.mark()
        pipeline = workloads.set_up(workload)
        meter.mark(final=True)
        raw_setup_s, setup_s = meter.totals()
        if tracer:
            tracer.close()
            tracer.open("bench.work")
        result = run(inputs, pipeline, seconds, meter)
        if tracer:
            tracer.close()
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        result["layers"] = summarize(tracer)
    result["setup_s"], result["raw_setup_s"] = setup_s, raw_setup_s
    result["reference_loop_s"] = meter.loop_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = sys.modules["numpy"].__version__
    return result, tracer


def run(inputs: workloads.Inputs, pipeline, seconds: float, meter: Meter) -> dict:
    """Timed passes, each checked; later passes must repeat the first exactly."""
    pass_s, raw_pass_s = [], []
    summaries = []
    while True:
        first_step = len(meter.steps)
        meter.mark()
        out = workloads.run_pass(inputs, pipeline, meter.mark)
        meter.mark(final=True)
        raw, scaled = meter.totals(first_step)
        raw_pass_s.append(raw)
        pass_s.append(scaled)
        summaries.append(workloads.check_pass(inputs, out))
        if sum(raw_pass_s) + statistics.median(raw_pass_s) > seconds:
            break
    first = summaries[0]
    problems = list(first.problems)
    for i, later in enumerate(summaries[1:], start=2):
        if later.digest != first.digest:
            problems.append(f"pass {i} output digest differs from pass 1")
    return {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "words_per_pass": inputs.words_per_pass,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "operations": first.operations,
        "ok": first.ok,
        "errors": sum(s.errors for s in summaries),
        "similarities": first.similarities,
        "digest": first.digest,
        "problems": problems,
    }


if __name__ == "__main__":
    main()
