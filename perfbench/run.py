"""The lipogram benchmark: one workload per call, metrics as a JSON last line.

    python3 perfbench/run.py --workload translate-e --seed 0 --seconds 30 --trace 0

Untraced (--trace 0) it times the workload's set-up in SETUP_SAMPLES fresh
processes plus the worker's own, runs the workload in a fresh worker
process, and reports the end-to-end metrics. Traced (--trace 1) it runs the
workload untraced and then traced, each in a fresh worker, and reports the
per-layer metrics with the tracing overhead. Every run checks the outputs;
a failed check prints "correct": false and exits 1. The metric names match
BENCHMARK.json; perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("translate-e", "sweep-short", "cli-baselines")
SETUP_SAMPLES = 4
DEADLINE_S = 170.0
# Native thread pools stay at one thread, so a run never needs more than
# one core.
SINGLE_THREADED = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

class BenchError(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    started = time.monotonic()
    try:
        if not (ROOT / "src" / "lipogram" / "__init__.py").is_file():
            raise BenchError(f"no lipogram package under {ROOT / 'src'}")
        work = ["work", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        if args.trace:
            base = _worker(work + ["--trace", "0"], started)
            traced = _worker(work + ["--trace", "1"], started)
            metrics = per_layer_metrics(traced, base)
            results = [base, traced]
        else:
            setups = [_worker(["setup", "--workload", args.workload], started)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            result = _worker(work + ["--trace", "0"], started)
            metrics = end_to_end_metrics(result, setups + [result["setup_s"]])
            results = [result]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = [p for r in results for p in r["problems"]]
    if results[-1]["digest"] != results[0]["digest"]:
        problems.append("traced and untraced runs produced different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    passes = [len(r["pass_s"]) for r in results]
    line = {
        "correct": not problems,
        "attempted": sum(n * r["operations"] for n, r in zip(passes, results)),
        "failed": sum(r["errors"] for r in results),
        "metrics": metrics,
    }
    context = run_context(args, results[0])
    print("context " + json.dumps(context, sort_keys=True))
    _save(args, context, results, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def end_to_end_metrics(result: dict, setups: list[float]) -> dict:
    return _declared_metrics("end_to_end", {
        "setup_s": statistics.median(setups),
        "words_per_s": result["words_per_pass"] / statistics.median(result["pass_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "mean_similarity": statistics.fmean(result["similarities"]),
        "ok_share": result["ok"] / result["operations"],
    })


def per_layer_metrics(traced: dict, base: dict) -> dict:
    values = dict(traced["layers"])
    untraced = _one_pass_s(base)
    values["trace.overhead_s"] = _one_pass_s(traced) - untraced
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
    return _declared_metrics("per_layer", values)


def _one_pass_s(result: dict) -> float:
    """Scaled set-up plus median pass; the workers may run different pass counts."""
    return result["setup_s"] + statistics.median(result["pass_s"])


def _declared_metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under `kind`, with their units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise BenchError(f"no value for declared metrics {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_context(args, result: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "commit": _git_commit(),
        "words_per_pass": result["words_per_pass"],
        "raw_words_per_s": result["words_per_pass"] / statistics.median(result["raw_pass_s"]),
        "reference_loop_s": statistics.median(result["reference_loop_s"]),
        "passes": len(result["pass_s"]),
        "digest": result["digest"],
        "reference_digest": _reference_digest(args.workload, args.seed),
    }


def _worker(arguments: list[str], started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *arguments],
            cwd=ROOT, env={**os.environ, **SINGLE_THREADED},
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(arguments[:3])} timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-5:]
        raise BenchError(
            f"worker {' '.join(arguments[:3])} exited {proc.returncode}: " + " | ".join(tail)
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _reference_digest(workload: str, seed: int) -> str | None:
    path = HERE / "reference_digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def _save(args, context: dict, results: list[dict], line: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    payload = {"context": context, "workers": results, "result": line}
    (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
