"""Tests of the benchmark itself: seeded inputs, declared metrics, span times."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

workloads.use_source_tree()

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_regenerate_identically_from_a_seed(workload):
    assert workloads.build_inputs(workload, 7) == workloads.build_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_give_other_inputs(workload):
    inputs = {workloads.build_inputs(workload, seed) for seed in range(6)}
    assert len(inputs) > 1


def test_seed_zero_is_the_north_star_window():
    inputs = workloads.build_inputs("translate-e", 0)
    assert inputs.paragraph_ids == tuple(range(200))
    assert inputs.letters == ("e",)


def test_seeds_keep_the_amount_of_work():
    sweep_zero = workloads.build_inputs("sweep-short", 0)
    assert len(sweep_zero.paragraphs) == 12
    assert all(5 <= workloads.word_count(p) <= 30 for p in sweep_zero.paragraphs)
    window_words = []
    for seed in range(1, 11):
        translate = workloads.build_inputs("translate-e", seed)
        assert len(translate.paragraphs) == 200
        window_words.append(translate.words_per_pass)

        sweep = workloads.build_inputs("sweep-short", seed)
        assert sorted(sweep.paragraph_ids) == sorted(sweep_zero.paragraph_ids)
        assert len(sweep.letters) == 27

        cli = workloads.build_inputs("cli-baselines", seed)
        assert len(cli.letters) == 3 and cli.letters[-1] == "aeiou"
    assert max(window_words) <= 1.05 * min(window_words)


@pytest.fixture(scope="module")
def tiny_runs():
    """An untraced and a traced run of two translate-e paragraphs."""
    base, _ = worker.measure("translate-e", 0, 0, trace=False, size=2)
    traced, tracer = worker.measure("translate-e", 0, 0, trace=True, size=2)
    return base, traced, tracer


def test_printed_metric_names_are_declared(tiny_runs):
    base, traced, _ = tiny_runs
    end_to_end = bench.end_to_end_metrics(base, [base["setup_s"]])
    assert list(end_to_end) == [m["name"] for m in DECLARED["end_to_end"]]
    for m in DECLARED["end_to_end"]:
        assert end_to_end[m["name"]]["unit"] == m["unit"]

    reported = set(traced["layers"]) | {"trace.overhead_s", "trace.overhead_share"}
    assert reported == {m["name"] for m in DECLARED["per_layer"]}
    per_layer = bench.per_layer_metrics(traced, base)
    assert list(per_layer) == [m["name"] for m in DECLARED["per_layer"]]


def test_tiny_run_passes_its_checks(tiny_runs):
    base, traced, _ = tiny_runs
    assert base["problems"] == [] and traced["problems"] == []
    assert base["digest"] == traced["digest"]
    assert base["operations"] == 6 and base["errors"] == 0


def test_self_times_fit_inside_their_parent_span(tiny_runs):
    _, traced, tracer = tiny_runs
    children = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for i, s in enumerate(tracer.spans):
        assert s.child <= s.duration
        spans_inside = sum(c.duration for c in children.get(i, []))
        assert spans_inside <= s.child + 1e-12
        for c in children.get(i, []):
            assert s.start <= c.start <= c.end <= s.end
    layers = traced["layers"]
    selves = layers["trace.harness_self_s"] + sum(
        layers[f"{layer}.self_s"] for layer in tracing.LAYERS
    )
    assert selves == pytest.approx(layers["trace.wall_s"], rel=1e-9)


def test_uninstall_restores_the_package(tiny_runs):
    import lipogram.decoder
    import lipogram.pipeline
    import lipogram.textcore

    assert lipogram.pipeline.beam_search is lipogram.decoder.beam_search
    assert not hasattr(lipogram.pipeline.Pipeline.translate, "__wrapped__")
    assert not hasattr(lipogram.decoder.build_candidate_vocab, "__wrapped__")
    assert not hasattr(lipogram.textcore.tokenize, "__wrapped__")


def test_span_self_time_excludes_traced_children():
    t = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.002)

    counted_leaf = t.wrap_leaf("textcore.tokenize", leaf)
    traced_inner = t.wrap("metrics.inner", inner)

    def outer():
        traced_inner()
        counted_leaf()
        time.sleep(0.002)

    t.wrap("pipeline.outer", outer)()
    outer_span, inner_span = t.spans
    assert inner_span.parent == 0
    assert outer_span.child == pytest.approx(
        inner_span.duration + t.self_time["textcore.tokenize"]
    )
    assert t.self_time["pipeline.outer"] == pytest.approx(
        outer_span.duration - outer_span.child
    )
    assert t.counts["textcore.tokenize.calls"] == 1


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    code = bench.main(["--workload", "translate-e", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
