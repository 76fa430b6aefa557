"""Spans around calls into the lipogram package, recorded from outside it.

`Tracer.install` rebinds the package's public functions in every lipogram
module that imported them, and a few methods on their classes, to timing
wrappers; `uninstall` puts the originals back. The package's own code is
not changed. Each call becomes a span (name, start, end, parent, paragraph
id) kept in memory; `write` stores them as JSON lines when the run ends.
`textcore.tokenize` is called too often to keep a span per call, so it is
only counted and timed, and its time is charged to the enclosing span.

A span's self time is its duration minus the time of the calls it made
into other traced functions. A layer is the module a span's name starts
with; the layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict

clock = time.perf_counter

LAYERS = (
    "cli", "pipeline", "sweep", "decoder", "passes",
    "metrics", "lexicon", "ngram", "textcore",
)
MODULES = tuple(f"lipogram.{layer}" for layer in LAYERS)
PASSES = (
    "build_entity_table", "apply_entity_map", "resolve_pronouns",
    "drop_term_runs", "normalize_punctuation", "trim_suffix", "grammar_correct",
)
CLI_SETUP_SPANS = (
    "ngram.train", "metrics.build_idf", "lexicon.load_lexicon", "lexicon.load_dictionary",
)
HARNESS = "bench"


class Span:
    __slots__ = ("name", "start", "end", "parent", "para", "child")

    def __init__(self, name, start, parent, para):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, or None
        self.para = para
        self.child = 0.0  # time spent in traced calls made from this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, paragraph_ids: dict[str, int] | None = None):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.values: defaultdict[str, list] = defaultdict(list)
        self.paragraph_ids = paragraph_ids or {}
        self.paragraph = None  # id of the paragraph being decoded
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def open(self, name: str, para=None) -> None:
        parent = self.stack[-1] if self.stack else None
        if para is None:
            para = self.paragraph
        self.spans.append(Span(name, clock(), parent, para))
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span.end = clock()
        self.self_time[span.name] += span.duration - span.child
        if self.stack:
            self.spans[self.stack[-1]].child += span.duration

    def wrap(self, name, fn, *, source_arg=None, sets_paragraph=False, observe=None):
        """A wrapper that records one span per call of fn.

        The paragraph id comes from the source text at `source_arg`, else
        from the last call with `sets_paragraph`, which later spans inherit.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            para = None
            if source_arg is not None and len(args) > source_arg:
                para = tracer.paragraph_ids.get(args[source_arg])
            if sets_paragraph:
                tracer.paragraph = para
            tracer.open(name, para)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.close()
                tracer.counts[name + ".errors"] += 1
                raise
            tracer.close()
            if observe is not None:
                observe(tracer, name, args, result)
            return result

        return traced

    def wrap_leaf(self, name, fn):
        """A wrapper that only counts and times calls of fn."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer.counts[name + ".calls"] += 1
                tracer.self_time[name] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]].child += elapsed

        return traced

    # --- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions wherever they are bound."""
        modules = [importlib.import_module(m) for m in ("lipogram",) + MODULES]
        decoder = importlib.import_module("lipogram.decoder")
        metrics = importlib.import_module("lipogram.metrics")
        pipeline = importlib.import_module("lipogram.pipeline")

        def function(module, attr, name, leaf=False, **options):
            original = getattr(importlib.import_module(module), attr)
            wrapper = (
                self.wrap_leaf(name, original) if leaf
                else self.wrap(name, original, **options)
            )
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

        def method(cls, attr, name, **options):
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], **options))

        function("lipogram.cli", "main", "cli.command")
        function("lipogram.sweep", "run_sweep", "sweep.run_sweep")
        method(pipeline.Pipeline, "translate", "pipeline.translate", sets_paragraph=True)
        method(pipeline.Pipeline, "evaluate", "pipeline.evaluate", sets_paragraph=True)
        function(
            "lipogram.decoder", "beam_search", "decoder.beam_search",
            source_arg=0, sets_paragraph=True, observe=_count_candidates,
        )
        function(
            "lipogram.decoder", "build_candidate_vocab", "decoder.build_candidate_vocab",
            source_arg=0, observe=_record_vocab,
        )
        method(decoder._BeamEngine, "__init__", "decoder.engine")
        method(decoder._BeamEngine, "run", "decoder.engine")
        function(
            "lipogram.decoder", "multiselect", "decoder.multiselect",
            source_arg=1, observe=_record_rank,
        )
        for name in PASSES:
            observe = _count_entities if name == "build_entity_table" else _count_changed
            function("lipogram.passes", name, f"passes.{name}", observe=observe)
        function("lipogram.metrics", "evaluate_document", "metrics.evaluate_document")
        function("lipogram.metrics", "build_idf", "metrics.build_idf")
        method(
            metrics.TfidfEmbedder, "embed_many", "metrics.embed_many",
            observe=_count_texts,
        )
        function("lipogram.ngram", "train", "ngram.train")
        for name in ("translate_edelete", "translate_synonym", "load_lexicon", "load_dictionary"):
            function("lipogram.lexicon", name, f"lexicon.{name}")
        function("lipogram.textcore", "tokenize", "textcore.tokenize", leaf=True)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- output ---------------------------------------------------------

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "paragraph": s.para,
                    "start": s.start - origin, "end": s.end - origin,
                    "self": s.duration - s.child,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _count_candidates(tracer, name, args, result):
    tracer.counts["decoder.candidates"] += len(result)


def _record_vocab(tracer, name, args, result):
    tracer.values["decoder.vocab_words"].append(len(result))


def _record_rank(tracer, name, args, result):
    tracer.values["decoder.multiselect_rank"].append(
        next(i for i, h in enumerate(args[0]) if h is result)
    )


def _count_entities(tracer, name, args, result):
    tracer.counts["passes.entities"] += len(result)


def _count_changed(tracer, name, args, result):
    tracer.counts[f"{name}.changed"] += result != args[0]


def _count_texts(tracer, name, args, result):
    tracer.counts["metrics.embed_texts"] += len(args[1])


# --- summary --------------------------------------------------------------


def summarize(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, by name, from a finished trace."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = Counter()
    children = defaultdict(list)
    for i, s in enumerate(spans):
        total[s.name] += s.duration
        calls[s.name] += 1
        if s.parent is not None:
            children[s.parent].append(i)
    counts, values = tracer.counts, tracer.values

    wall = sum(s.duration for s in spans if s.parent is None)
    m = {
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "trace.harness_self_s": _layer_self(tracer, HARNESS),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _layer_self(tracer, layer)

    vocab_in_search = sum(
        spans[c].duration
        for i, s in enumerate(spans) if s.name == "decoder.beam_search"
        for c in children[i] if spans[c].name == "decoder.build_candidate_vocab"
    )
    m["decoder.beam_search_s"] = total["decoder.beam_search"] - vocab_in_search
    m["decoder.engine_s"] = total["decoder.engine"]
    m["decoder.build_candidate_vocab_s"] = total["decoder.build_candidate_vocab"]
    m["decoder.vocab_words"] = _mean(values["decoder.vocab_words"])
    m["decoder.candidates"] = counts["decoder.candidates"]
    m["decoder.failures"] = counts["decoder.beam_search.errors"]
    m["decoder.multiselect_s"] = total["decoder.multiselect"]
    m["decoder.multiselect_rank"] = _mean(values["decoder.multiselect_rank"])

    for name in PASSES:
        m[f"passes.{name}_s"] = total[f"passes.{name}"]
        m[f"passes.{name}.calls"] = calls[f"passes.{name}"]
        if name != "build_entity_table":
            m[f"passes.{name}.changed"] = counts[f"passes.{name}.changed"]
    m["passes.entities"] = counts["passes.entities"]

    m["metrics.evaluate_document_s"] = total["metrics.evaluate_document"]
    m["metrics.embed_s"] = total["metrics.embed_many"]
    m["metrics.embed_calls"] = calls["metrics.embed_many"]
    m["metrics.embed_texts"] = counts["metrics.embed_texts"]
    m["metrics.build_idf_s"] = total["metrics.build_idf"]

    m["ngram.train_s"] = total["ngram.train"]

    m["lexicon.translate_edelete_s"] = total["lexicon.translate_edelete"]
    m["lexicon.translate_synonym_s"] = total["lexicon.translate_synonym"]
    m["lexicon.load_s"] = total["lexicon.load_lexicon"] + total["lexicon.load_dictionary"]

    m["textcore.tokenize.calls"] = counts["textcore.tokenize.calls"]
    m["textcore.tokenize_s"] = tracer.self_time["textcore.tokenize"]

    m["pipeline.translate_s"] = total["pipeline.translate"]
    m["pipeline.evaluate_s"] = total["pipeline.evaluate"]
    paragraph_ms = [1000 * t for t in _paragraph_times(spans, children)]
    m["pipeline.paragraphs"] = len(paragraph_ms)
    m["pipeline.paragraph_ms.p50"] = _percentile(paragraph_ms, 50)
    m["pipeline.paragraph_ms.p95"] = _percentile(paragraph_ms, 95)

    set_times = _sweep_set_times(spans, children)
    m["sweep.set_s.p50"] = _percentile(set_times, 50)
    m["sweep.set_s.max"] = max(set_times, default=0.0)

    commands = [s.duration for s in spans if s.name == "cli.command"]
    m["cli.command_s.p50"] = _percentile(commands, 50)
    in_cli = sum(
        s.duration for s in spans
        if s.name in CLI_SETUP_SPANS and _has_ancestor(spans, s, "cli.command")
    )
    m["cli.setup_share"] = in_cli / sum(commands) if commands else 0.0
    return m


def _layer_self(tracer: Tracer, layer: str) -> float:
    prefix = layer + "."
    return sum(t for name, t in tracer.self_time.items() if name.startswith(prefix))


def _paragraph_times(spans, children) -> list[float]:
    """One beam paragraph: from its decode to the next one's, or the call's end."""
    times = []
    for i, s in enumerate(spans):
        if s.name != "pipeline.translate":
            continue
        starts = [spans[c].start for c in children[i] if spans[c].name == "decoder.beam_search"]
        ends = starts[1:] + [s.end]
        times.extend(end - start for start, end in zip(starts, ends))
    return times


def _sweep_set_times(spans, children) -> list[float]:
    """One constraint set: from its translate call to the end of its evaluate."""
    times = []
    for i, s in enumerate(spans):
        if s.name != "sweep.run_sweep":
            continue
        start = None
        for c in children[i]:
            if spans[c].name == "pipeline.translate":
                start = spans[c].start
            elif spans[c].name == "pipeline.evaluate" and start is not None:
                times.append(spans[c].end - start)
                start = None
    return times


def _has_ancestor(spans, span, name) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
