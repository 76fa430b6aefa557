"""Byte-identity of the benchmark's library passes.

The decoder is tuned for speed, and a speed-up must leave every output
unchanged to the byte; a few ulps in a score can already move a pick.
This runs the seed-0 pass of the two library workloads of ``perfbench``
in-process, with the benchmark's own inputs, pass and checks, and
compares the digest of its outputs with the one recorded in
``perfbench/reference_digests.json``. It takes about 3 s per workload.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.use_source_tree()

REFERENCE = json.loads((BENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["translate-e", "sweep-short"])
def test_seed_zero_pass_matches_the_reference_digest(workload):
    inputs = workloads.build_inputs(workload, 0)
    out = workloads.run_pass(inputs, workloads.set_up(workload), lambda: None)
    summary = workloads.check_pass(inputs, out)
    assert summary.problems == []
    assert summary.digest == REFERENCE[workload]["0"]
