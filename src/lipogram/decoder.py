"""Constrained beam-search paraphraser over an n-gram model.

The constraint is enforced by construction: the search expands only over a
pre-filtered allow-list of legal words, so no output can ever violate it.
Each expansion is scored by a weighted mix of the backoff LM score and the
TF-IDF cosine similarity of the partial hypothesis to the source paragraph;
the similarity term is maintained incrementally so every candidate token of
every beam is scored per step without re-embedding.

Hypotheses may terminate cost-free once the minimum length is reached, and
none runs past the maximum length; the returned candidates are the top
completions of a single run (deterministic mode) or the winners of K
independently seeded Gumbel-noise runs (sampled mode). A run stops before
the maximum length once no longer hypothesis can enter the top completions
it returns: every step's LM score is <= 0 and the similarity is at most 1,
so a beam's descendants can never outscore lambda_lm times its LM score
plus lambda_sim. The stop is exact; the output equals that of a search run
to the maximum length.

Set-up is done once at the level where its data lives:

- Corpus: built lazily on first use and cached on the object that owns the
  data. ``NGramModel`` holds the frequency-ranked word list, each token's
  letter mask, each token's score after an unseen context
  (``backoff_logscores``) and every context's continuations as token ids
  with their scores (``ContinuationIndex``, which finds a context from its
  token ids through sorted int64 keys). Both scores already carry their
  backoff penalties, so the decoder never applies one itself. ``IdfTable``
  holds its unigram and bigram features and each word's letter mask as
  arrays over word ids (``IdfIndex``).
- Constraint: ``ConstraintTables``, built once per constraint set and
  tail size M, holds the tail (the M most frequent legal words) and the
  LM and IDF bigram pair rows among all legal words, keyed by first
  word id. ``Pipeline`` builds it once per translate call, and every
  search reads its constraint, model and IDF table from it.
- Paragraph: ``_Paragraph`` keeps only what depends on the source. It
  reads its per-word arrays with one ``ConstraintTables.lookup`` of its
  vocabulary, and holds the source's TF-IDF weights over the
  vocabulary, placed through one map from word to vocabulary position.

``beam_search`` decodes all the paragraphs of a call together. Each search
is a lane: a paragraph in deterministic mode, or one (paragraph, run i)
pair in sampled mode, drawing its noise from its own
``default_rng([seed, i])`` at the shape of a lone search. Lanes are
admitted to a batch in call order while lanes x beam_width x the batch's
widest vocabulary stays within ``MAX_LOCKSTEP_CELLS`` (at least one lane
per batch); the bound was sized by peak-RSS measurements. All lanes of a
batch take the same step together, and a lane leaves the batch when it
stops: at its own maximum length, at its own exact early stop, or when no
beam survives.

A step stacks the lanes' beams as rows of (rows, V) matrices, where V is
the batch's widest vocabulary; a lane's cells past its own vocabulary and
its rows without a beam rank at -inf. It computes the backoff LM rows
(pair rows of every lane in one key space, then the longer contexts
looked up by model ids), the incremental similarity (a sparse
term-count correction) and the n-gram repeat bans, both read off one
scan of each beam's history, and a row-wise top-k whose order within a
lane equals a stable full sort of that lane's beams x vocabulary block,
so the tie rule is that of a lone search. Every real cell goes through
the same elementwise operations in the same order as in a lone search,
so no lane's result depends on its batch. A pick's scores are read from
the step's matrices; the step keeps each pick's back-pointer, word and
scores in arrays, and builds ``Hypothesis`` objects only for a lane's
returned top k.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import textcore
from .lexicon import Lexicon, constraint_free_synonyms
from .metrics import IdfTable, embed, similarities
from .ngram import BOS, NGramModel
from .textcore import ConstraintSet, canonical, violates


class EmptyVocabulary(RuntimeError):
    """No legal candidate word survives the constraint."""


class DecodeFailure(RuntimeError):
    """The search ended with no complete hypothesis."""


MODES = ("deterministic", "sampled")

# A search peaks at about 52-57 bytes per beam x vocabulary cell in
# deterministic mode and 103-111 in sampled mode, whose noisy ranks leave
# top_k more entries to sort (tracemalloc over whole runs at 200 x 2,006
# and 50 x 5,007 cells, plus the 48 bytes of its six mapped step planes;
# numpy 2.4). The cap on beam_width x candidate_vocab_size keeps a search
# near 330 MB.
MAX_BEAM_CELLS = 3_000_000

# A lockstep batch admits lanes, in call order, while lanes x beam_width x
# its widest vocabulary stays within this many cells, and always admits
# one lane. A step keeps six float64 matrices of that many cells, and a
# batch also holds its lanes' pair rows. Measured with perfbench (seed 0,
# --seconds 30; 2-CPU x86 host, Python 3.11, numpy 2.4) when a step kept
# four matrices (five in sampled mode), sweep-short's peak RSS rose over
# the per-paragraph search by 0.6%, 1.3%, 2.4% and 5.8% at 40k, 50k, 60k
# and 80k cells, and translate-e's by 1.4% at 60k.
MAX_LOCKSTEP_CELLS = 60_000

# Config-file keys that belong to the surrounding tooling, not the decoder.
RESERVED_CONFIG_KEYS = frozenset(
    {"grammar.endpoint", "embed.endpoint", "sweep.extras"}
)


@dataclass(frozen=True)
class DecoderConfig:
    beam_width: int = 20
    candidates_k: int = 10
    no_repeat_ngram: int = 3
    min_ratio: float = 0.5
    max_ratio: float = 1.5
    temperature: float = 0.90
    lambda_lm: float = 1.0
    lambda_sim: float = 5.0
    candidate_vocab_size: int = 500
    mode: str = "deterministic"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("min_ratio", "max_ratio", "temperature", "lambda_lm", "lambda_sim"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.candidates_k < 1:
            raise ValueError("candidates_k must be >= 1")
        if self.beam_width < self.candidates_k:
            raise ValueError("beam_width must be >= candidates_k")
        if not 0 < self.min_ratio <= self.max_ratio:
            raise ValueError("need 0 < min_ratio <= max_ratio")
        if self.no_repeat_ngram < 2:
            raise ValueError("no_repeat_ngram must be >= 2")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.lambda_lm < 0 or self.lambda_sim < 0:
            raise ValueError("lambda weights must be >= 0")
        if self.candidate_vocab_size < 0:
            raise ValueError("candidate_vocab_size must be >= 0")
        if self.beam_width * self.candidate_vocab_size > MAX_BEAM_CELLS:
            raise ValueError(
                f"beam_width x candidate_vocab_size must be <= {MAX_BEAM_CELLS:,}, "
                f"got {self.beam_width} x {self.candidate_vocab_size}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_mapping(cls, pairs: Mapping[str, str]) -> "DecoderConfig":
        """Build a config from string key=value pairs; unknown keys error."""
        coercers = {"int": int, "float": float, "str": str}
        known = {f.name: coercers[f.type] for f in fields(cls)}
        kwargs = {}
        for key, value in pairs.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = known[key](value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r} has invalid value {value!r}"
                ) from None
        return cls(**kwargs)


def parse_config_file(path: str | Path) -> tuple[DecoderConfig, dict[str, str]]:
    """Read a key=value config file.

    Returns the decoder config plus the reserved tool-level keys
    (grammar.endpoint, embed.endpoint, sweep.extras) found in the file.
    Blank lines and #-comments are skipped; any other unknown key errors.
    """
    pairs: dict[str, str] = {}
    extras: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}: line {lineno}: expected key=value, got {stripped!r}"
                )
            key, value = key.strip(), value.strip()
            if key in RESERVED_CONFIG_KEYS:
                extras[key] = value
            else:
                pairs[key] = value
    try:
        config = DecoderConfig.from_mapping(pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config, extras


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    lm_score: float
    sim_score: float
    combined: float

    def text(self) -> str:
        return " ".join(self.tokens)


def build_candidate_vocab(
    source_paragraph: str, tables: ConstraintTables, lex: Lexicon
) -> list[str]:
    """Legal words for the search, in deterministic priority order.

    Source words that pass the tables' constraint come first (source
    order), then constraint-free synonyms of every source word, then the
    tables' tail: the M most frequent legal model-vocabulary words (count
    desc, then alphabetical).
    """
    c = tables.constraint
    ordered: list[str] = []
    seen: set[str] = set()

    def add(word: str) -> None:
        if word not in seen:
            seen.add(word)
            ordered.append(word)

    source_words = list(dict.fromkeys(textcore.canonical_words(source_paragraph)))
    for word in source_words:
        if not violates(word, c):
            add(word)
    for word in source_words:
        for synonym in constraint_free_synonyms(word, c, lex):
            add(canonical(synonym))
    ordered.extend(word for word in tables.words if word not in seen)

    if not ordered:
        raise EmptyVocabulary(
            f"no legal candidate words under letters {c.as_string()!r}"
        )
    return ordered


class ConstraintTables:
    """The decoder's tables for one constraint set and tail size M.

    Built once per (constraint set, M) and shared by every paragraph
    decoded under them:

    - which model tokens are legal words (``legal``, by token id, with
      a last False entry for id -1) and the tail, the M most frequent
      of them;
    - the one-word-context LM continuations, and the squared IDF bigram
      values, of every pair of legal words, grouped by first word id.

    Every vocabulary word is legal, so these pairs hold every pair any
    paragraph's vocabulary can need. A paragraph reads its per-word
    arrays with ``lookup`` and gathers its pairs by word id.
    """

    def __init__(self, c: ConstraintSet, model: NGramModel, idf: IdfTable, M: int):
        self.constraint = c
        self.size = M
        self.model = model
        self.idf = idf
        # Which model tokens are legal words, by the letter masks; BOS, EOS
        # and the trailing entry of token id -1 are not.
        self.legal = legal = np.append((model.letter_masks & c.mask) == 0, False)
        legal[len(model.ranked_words):-1] = False
        # The M most frequent legal words (all of them when fewer are legal):
        # the ranked words come first in id order.
        self.words = [model.tokens[i] for i in np.flatnonzero(legal)[:M]]
        # Each IDF id's value, then the default as the entry of id -1.
        self._idf_values = np.append(idf.index.word_values, idf.default)

        # The continuations after each legal word and BOS that are legal
        # words, keyed by token id.
        index = model.continuation_index
        legal_ids = np.where(legal, np.arange(len(legal)), -1)
        firsts = np.where(legal, index.token_rows, -1)[:-1]
        bos = model.token_ids[BOS]
        firsts[bos] = index.token_rows[bos]
        self.lm_pairs = _PairRows(index.starts, index.ids, index.logs).gather(
            firsts, legal_ids
        )

        features = idf.index
        legal = np.append((features.word_masks & c.mask) == 0, False)
        inside = np.flatnonzero(
            legal[features.bigram_firsts] & legal[features.bigram_seconds]
        )
        values = features.bigram_values[inside]
        self.bigram_sq = _PairRows.grouped(
            len(features.word_ids),
            features.bigram_firsts[inside],
            features.bigram_seconds[inside],
            values * values,
        )

    def lookup(self, words: Sequence[str]):
        """Each word's model id and IDF id (-1 when absent), backoff LM
        score and idf, as arrays. The backoff score is that of a word
        never seen after the context (``NGramModel.backoff_logscores``)."""
        model_ids = _positions(words, self.model.token_ids)
        idf_ids = _positions(words, self.idf.index.word_ids)
        # Both tables end with the entry of id -1.
        backoff = self.model.backoff_logscores[model_ids]
        return model_ids, idf_ids, backoff, self._idf_values[idf_ids]


def top_k(rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k >= 1 highest entries of each lane's block of the 3-D ``rank``
    (lanes, rows, columns), as (lane, row * columns + column) arrays
    grouped by lane, best first within a lane.

    A lane's entries equal ``np.argsort(-rank[lane].ravel(), kind="stable")``
    cut after k entries and at the first non-finite one: ties keep flat
    order. Every row's maximum is an entry of its own, so when a lane has
    at least k rows, at least k of its entries reach its k-th highest row
    maximum. Only the entries at or above that bound (or, with fewer rows,
    above -inf) are sorted; NaN and -inf entries never lead a cut
    prefix, so dropping them changes nothing.
    """
    n_lanes, n_rows, n_cols = rank.shape
    bound = np.full(n_lanes, -np.finfo(float).max)
    if n_rows >= k:
        best = rank.max(axis=2)
        best[np.isnan(best)] = -np.inf
        best.partition(n_rows - k, axis=1)
        np.maximum(best[:, n_rows - k], bound, out=bound)
    found = np.flatnonzero(rank >= bound[:, None, None])
    lanes, at = np.divmod(found, n_rows * n_cols)
    neg = -rank.ravel()[found]
    order = np.lexsort((neg, lanes))  # stable: ties keep flat order
    lanes, at, neg = lanes[order], at[order], neg[order]
    counts = np.bincount(lanes, minlength=n_lanes)
    first = np.cumsum(counts) - counts
    # The only non-finite entries left are +inf ranks, which come first.
    cut = np.bincount(lanes[np.isinf(neg)], minlength=n_lanes) > 0
    keep = (np.arange(len(lanes)) - first[lanes] < k) & ~cut[lanes]
    return lanes[keep], at[keep]


class _PairRows:
    """Values at (first, second) pairs of small-int keys, grouped by first:
    the pairs of first key f are entries ``starts[f]:starts[f + 1]``."""

    def __init__(self, starts: np.ndarray, seconds: np.ndarray, values: np.ndarray):
        self._starts = starts
        self._seconds = seconds
        self._values = values

    @classmethod
    def group(cls, n_firsts: int, firsts, seconds, values) -> "_PairRows":
        """The pairs (firsts[j], seconds[j]) -> values[j], for first keys
        0..n_firsts-1; pairs of one first keep their order."""
        firsts = np.asarray(firsts, dtype=np.intp)
        order = np.argsort(firsts, kind="stable")
        return cls.grouped(
            n_firsts,
            firsts[order],
            np.asarray(seconds, dtype=np.intp)[order],
            np.asarray(values, dtype=float)[order],
        )

    @classmethod
    def grouped(
        cls, n_firsts: int, firsts: np.ndarray, seconds: np.ndarray, values: np.ndarray
    ) -> "_PairRows":
        """``group`` for firsts already in ascending order; the arrays are
        used as they are."""
        counts = np.bincount(firsts, minlength=n_firsts)
        return cls(np.concatenate(([0], np.cumsum(counts))), seconds, values)

    @classmethod
    def stack(cls, parts: Sequence["_PairRows"], n_keys: Sequence[int]) -> "_PairRows":
        """Every part's pairs under one key space: part i's first key f
        becomes key ``sum(n_keys[:i]) + f``. ``n_keys[i]`` may exceed part
        i's own key count; the keys past it, and one last key after every
        part, have no pairs."""
        starts, offset = [], 0
        for part, n in zip(parts, n_keys):
            own = part._starts[:-1] + offset
            offset += part._starts[-1]
            starts += [own, np.full(n - len(own), offset)]
        starts.append(np.array([offset, offset]))
        return cls(
            np.concatenate(starts),
            np.concatenate([part._seconds for part in parts]),
            np.concatenate([part._values for part in parts]),
        )

    def pairs(
        self, firsts: np.ndarray, scale: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row * scale, second, value) of every pair of each first key,
        where row is the key's index in ``firsts``. With the width of a
        matrix of one row per key as the scale, row + second is a pair's
        flat cell."""
        rows, entries = _expand(self._starts[firsts], self._starts[firsts + 1], scale)
        return rows, self._seconds[entries], self._values[entries]

    def gather(self, firsts: np.ndarray, pos_of: np.ndarray) -> "_PairRows":
        """The pairs of ``firsts[i]`` as those of first key i, with each
        second mapped through ``pos_of``; a first of -1 has no pairs, and
        a pair whose second maps to -1 is dropped."""
        lo = self._starts[firsts]
        hi = np.where(firsts >= 0, self._starts[firsts + 1], lo)
        rows, entries = _expand(lo, hi)
        pos = pos_of[self._seconds[entries]]
        hit = np.flatnonzero(pos >= 0)  # an index array: faster than a mask here
        return _PairRows.grouped(
            len(firsts), rows[hit], pos[hit], self._values[entries[hit]]
        )


def _expand(
    lo: np.ndarray, hi: np.ndarray, scale: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """For every index in each range lo[i]:hi[i], the pair (i * scale, index)."""
    counts = hi - lo
    rows = np.repeat(np.arange(0, len(lo) * scale, scale), counts)
    offsets = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, offsets + np.arange(len(rows))


class _Paragraph:
    """The paragraph-level state of one search: the vocabulary, its length
    bounds, each word's arrays from ``ConstraintTables.lookup``, and the
    source's TF-IDF weights over the vocabulary (its pair rows are
    gathered when its batch starts). Every vocabulary word must be legal
    under the tables' constraint.
    """

    def __init__(
        self,
        source_paragraph: str,
        vocab: Sequence[str],
        cfg: DecoderConfig,
        tables: ConstraintTables,
    ):
        idf = tables.idf
        self.vocab = list(vocab)
        n_vocab = len(self.vocab)

        source_len = len(textcore.words(source_paragraph))
        self.min_len = math.ceil(cfg.min_ratio * source_len)
        self.max_len = math.floor(cfg.max_ratio * source_len)

        self.model_ids, self.idf_ids, self.backoff, self.idf_uni = tables.lookup(
            self.vocab
        )
        # A legal model word is legal by its id; only the others are checked.
        illegal = [
            self.vocab[i] for i in np.flatnonzero(~tables.legal[self.model_ids])
            if violates(self.vocab[i], tables.constraint)
        ]
        if illegal:
            raise ValueError(
                f"vocabulary words {illegal!r} break the tables' constraint"
            )

        # Similarity machinery: the source's normalized TF-IDF weights and
        # per-token idf arrays for incremental dot/sum-of-squares updates.
        self.idf_uni_sq = self.idf_uni**2
        position = dict(zip(self.vocab, range(n_vocab)))
        weights = embed(source_paragraph, idf)
        parts = [feat.partition(" ") for feat in weights]
        firsts = _positions([first for first, _, _ in parts], position)
        seconds = _positions([second for _, _, second in parts], position)
        bigram = np.array([bool(sep) for _, sep, _ in parts], dtype=bool)
        values = np.array([w * idf.value(f) for f, w in weights.items()])
        uni = ~bigram & (firsts >= 0)
        self.src_uni = np.zeros(n_vocab)
        self.src_uni[firsts[uni]] = values[uni]
        bi = bigram & (firsts >= 0) & (seconds >= 0)
        self.src_bi = _PairRows.group(n_vocab, firsts[bi], seconds[bi], values[bi])


class _BeamEngine:
    """Vectorized synchronized-length beam searches over fixed
    vocabularies, run in lockstep.

    Set-up keeps one ``_Paragraph`` per source. A search is a lane: one
    paragraph, with a random generator in sampled mode. ``run`` splits the
    lanes, in order, into batches of at most ``MAX_LOCKSTEP_CELLS``
    step cells, and steps every lane of a batch together: all beams of a
    lane share a length, and all lanes share the step. Ending is
    cost-free, so every surviving beam of legal length is pooled as a
    completed hypothesis. A lane leaves its batch at its maximum length,
    when no beam survives, or once the k-th best pooled score beats every
    score a longer hypothesis could reach.

    The step works on one (lanes x beam_width, V) matrix per score, where
    V is the batch's widest vocabulary, and reads each pick's scores back
    from them. A lane owns beam_width rows
    (its live beams first), and its cells past its own vocabulary, like
    the rows of beams it does not have, rank at -inf. Every real cell gets
    the same elementwise operations, in the same order, as in a search of
    its lane alone, so no lane's result depends on its batch.
    """

    def __init__(
        self,
        sources: Sequence[str],
        vocabs: Sequence[Sequence[str]],
        cfg: DecoderConfig,
        tables: ConstraintTables,
    ):
        self.cfg = cfg
        self.tables = tables
        self.model = tables.model
        self.paragraphs = [
            _Paragraph(source, vocab, cfg, tables)
            for source, vocab in zip(sources, vocabs)
        ]
        self._default_sq = tables.idf.default**2

    def run(
        self,
        k: int,
        lanes: Sequence[tuple[int, np.random.Generator | None]] | None = None,
    ) -> list[list[Hypothesis] | DecodeFailure]:
        """For each lane, its k best completed hypotheses, by combined
        score desc, then tokens; or the DecodeFailure of a lane that
        completes none.

        A lane is (paragraph index, generator); a lane with a generator
        picks its beams under Gumbel noise from it. Either every lane has
        one or none has. By default each paragraph is one lane without.

        A lane stops before its maximum length once no later hypothesis
        can enter its top k. A step's LM row is <= 0 and its similarity is
        clipped to [0, 1], so every descendant of the surviving beams
        scores at most lambda_lm * max(beam LM) + lambda_sim, and IEEE
        rounding keeps that order for the computed values. The stop needs
        that bound strictly below the k-th best pooled score, so a tie
        that the token order could still break never ends the search.
        """
        if lanes is None:
            lanes = [(p, None) for p in range(len(self.paragraphs))]
        results: list = [None] * len(lanes)
        ready = []
        for i, (p, _) in enumerate(lanes):
            para = self.paragraphs[p]
            if para.max_len < para.min_len:
                results[i] = DecodeFailure(
                    f"no legal output length: min {para.min_len} > max {para.max_len}"
                )
            else:
                ready.append(i)
        widths = [len(self.paragraphs[lanes[i][0]].vocab) for i in ready]
        batches = _lockstep_batches(widths, self.cfg.beam_width)
        # One buffer of six planes serves the step matrices of every batch.
        # It is an anonymous memory map, not a heap block: its pages go back
        # to the system when the run ends and leave no hole in the heap.
        # (With a heap block, sweep-short's peak RSS was about 1 MB higher.)
        cells = max(
            (len(b) * self.cfg.beam_width * max(widths[j] for j in b) for b in batches),
            default=1,
        )
        buffer = np.frombuffer(mmap.mmap(-1, 6 * 8 * cells)).reshape(6, cells)
        for batch in batches:
            ids = [ready[j] for j in batch]
            found = self._run_batch([lanes[i] for i in ids], k, buffer)
            for i, result in zip(ids, found):
                results[i] = result
        return results

    def _run_batch(self, lanes, k: int, buffer: np.ndarray) -> list:
        """``run`` for one batch of lanes, with its step matrices in the
        planes of ``buffer``."""
        cfg, model = self.cfg, self.model
        W = cfg.beam_width
        span = model.order - 1
        paras = [self.paragraphs[p] for p, _ in lanes]
        rngs = [rng for _, rng in lanes]
        sampled = rngs[0] is not None
        widths = np.array([len(para.vocab) for para in paras])
        n_lanes, V = len(lanes), int(widths.max())

        # The pair rows of the batch's distinct paragraphs, in one key space.
        shared = list(dict.fromkeys(p for p, _ in lanes))
        lane_para = np.array([shared.index(p) for p, _ in lanes])
        shared = [self.paragraphs[p] for p in shared]
        offsets, lm_pairs, bigram_pairs, source_pairs, model_pos = _batch_pair_rows(
            shared, self.tables
        )
        no_beam = offsets[-1]
        lane_keys = offsets[lane_para]

        def stacked(name, fill, dtype=float):
            out = np.full((n_lanes, V), fill, dtype=dtype)
            for row, para in zip(out, paras):
                values = getattr(para, name)
                row[: len(values)] = values
            return out

        # Cells past a lane's vocabulary get a 0 LM and similarity (an
        # idf^2 of 1 keeps 0/0 away) and then rank at -inf.
        backoff = stacked("backoff", 0.0)
        src_uni = stacked("src_uni", 0.0)
        idf_sq = stacked("idf_uni_sq", 1.0)
        model_ids = stacked("model_ids", -1, np.intp)
        padded = (np.arange(V) >= widths[:, None])[:, None, :]
        min_len = np.array([para.min_len for para in paras])
        max_len = np.array([para.max_len for para in paras])

        # The first step has one row per lane, its empty beam. Later, row r
        # belongs to lane r // W, whose live beams take its first rows. Per
        # row: the beam's LM, dot and sum-of-squares scores so far, whether
        # it holds a beam, its vocabulary positions with twice the count of
        # each in it, which earlier positions hold its last word, its last
        # span model ids (BOS-padded), and the pair key of its last word (BOS
        # before the first).
        n_rows = n_lanes * W
        row_cells = np.arange(n_rows) * V
        lane_cells = np.arange(n_rows) // W * V
        lane_ids = np.arange(n_lanes)  # the lane of each block of W rows
        n_beams = np.ones(n_lanes, dtype=np.intp)
        live = np.ones(n_lanes, dtype=bool)
        beam = np.zeros((3, n_lanes))
        history = np.empty((n_lanes, 0), dtype=np.intp)
        tf2 = np.empty((n_lanes, 0), dtype=np.intp)
        repeats = np.empty((n_lanes, 0), dtype=bool)
        contexts = np.full((n_lanes, span), model.token_ids[BOS], dtype=np.intp)
        keys = lane_keys + widths
        top = np.full((n_lanes, k), -np.inf)  # each lane's k best pooled scores

        # Every pick by (step, lane * W + slot): its LM, similarity and
        # combined score (-inf outside the pool), and its parent slot and
        # word. Only the pages of the steps taken are touched.
        n_steps = int(max_len.max())
        scores = np.empty((3, n_steps, n_rows))
        scores[2] = -np.inf
        links = np.empty((2, n_steps, n_rows), dtype=np.intp)

        # The step's matrices, reused from step to step: the LM, dot,
        # sum-of-squares, similarity and combined scores, which a pick's
        # scores are read from, and a scratch matrix. The similarity matrix
        # holds the bigram squares first; the scratch one holds the square
        # roots, then the weighted similarity, then in sampled mode the rank.
        mats = buffer[:, : n_rows * V].reshape(-1, n_rows, V)

        results: list = [None] * n_lanes
        for step in range(1, n_steps + 1):
            L = len(lane_ids)
            B = 1 if step == 1 else W  # rows per lane this step
            R = L * B
            lm, dot, ssq, sim, comb, rank = mats[:, :R]

            followed, counts, bans = _history_cells(
                history, repeats, V, cfg.no_repeat_ngram
            )
            self._lm_rows(lm, backoff, keys, contexts, lane_para, lm_pairs, model_pos)
            lm += beam[0, :, None]
            np.copyto(dot.reshape(L, B, V), src_uni[:, None])
            dot += beam[1, :, None]
            np.copyto(ssq.reshape(L, B, V), idf_sq[:, None])
            ssq += beam[2, :, None]
            if step > 1:
                bigram_sq = sim
                bigram_sq.fill(self._default_sq)
                rows, seconds, values = bigram_pairs.pairs(keys, V)
                bigram_sq.ravel()[rows + seconds] = values
                ssq += bigram_sq
                # Source bigrams are sparse; everywhere else the term is 0.
                rows, seconds, values = source_pairs.pairs(keys, V)
                dot.ravel()[rows + seconds] += values
                follower_sq = bigram_sq.ravel()[followed]
                # Repeated-feature corrections: tf goes k -> k+1, adding
                # idf^2 * 2k on top of the fresh-feature idf^2 baseline
                # (0 for the words a beam does not hold).
                ssq.ravel()[row_cells[:R, None] + history] += (
                    idf_sq.ravel()[lane_cells[:R, None] + history] * tf2
                )
                ssq.ravel()[followed] += follower_sq * (2 * counts)

            np.divide(dot, np.sqrt(ssq, out=rank), out=sim)
            np.clip(sim, 0.0, 1.0, out=sim)
            np.multiply(lm, cfg.lambda_lm, out=comb)
            comb += np.multiply(sim, cfg.lambda_sim, out=rank)
            comb.ravel()[bans] = -np.inf
            np.copyto(comb.reshape(L, B, V), -np.inf, where=padded)
            comb[~live] = -np.inf

            if sampled:
                # Gumbel noise is drawn only for a lane's real cells; every
                # other cell ranks at -inf already.
                np.divide(comb, cfg.temperature, out=rank)
                drawn = rank.reshape(L, B, V)
                for i, (rng, n, width) in enumerate(zip(rngs, n_beams, widths)):
                    drawn[i, :n, :width] += rng.gumbel(size=n * width).reshape(n, width)
            else:
                rank = comb
            lane, picks = top_k(rank.reshape(L, B, V), W)

            n_beams = np.bincount(lane, minlength=L)
            slots = np.arange(len(lane)) - (np.cumsum(n_beams) - n_beams)[lane]
            parents, words = np.divmod(picks, V)
            src = lane * B + parents
            dst = lane * W + slots
            # Each pick's LM, dot, sum-of-squares, similarity and combined
            # scores; only those of a legal length are pooled.
            picked = mats[:5, :R].reshape(5, R * V)[:, lane * (B * V) + picks]
            pooled = picked[4]
            pooled[step < min_len[lane]] = -np.inf
            at = lane_ids[lane] * W + slots
            scores[0, step - 1, at] = picked[0]
            scores[1, step - 1, at] = picked[3]
            scores[2, step - 1, at] = pooled
            links[0, step - 1, at] = parents
            links[1, step - 1, at] = words

            R = L * W  # the rows of the next step
            per_slot = np.full((2, R), -np.inf)
            per_slot[0, dst] = pooled
            per_slot[1, dst] = picked[0]
            top = np.concatenate((top, per_slot[0].reshape(L, W)), axis=1)
            top.partition(W, axis=1)
            top = top[:, W:]
            best_lm = per_slot[1].reshape(L, W).max(axis=1)
            best_lm[n_beams == 0] = 0.0  # those lanes stop anyway
            stop = (
                (n_beams == 0)
                | (step >= max_len)
                | (cfg.lambda_lm * best_lm + cfg.lambda_sim < top[:, 0])
            )

            if stop.any():
                for i in np.flatnonzero(stop):
                    lane_rows = slice(lane_ids[i] * W, (lane_ids[i] + 1) * W)
                    results[lane_ids[i]] = self._collect(
                        paras[lane_ids[i]],
                        scores[:, :step, lane_rows],
                        links[:, :step, lane_rows],
                        top[i, 0],
                        k,
                    )
                keep = np.flatnonzero(~stop)
                if not len(keep):
                    break
                moved = np.full(L, -1)
                moved[keep] = np.arange(len(keep))
                kept = ~stop[lane]
                lane, src, words, slots = moved[lane[kept]], src[kept], words[kept], slots[kept]
                picked = picked[:, kept]
                dst = lane * W + slots
                lane_ids, lane_para = lane_ids[keep], lane_para[keep]
                lane_keys, widths = lane_keys[keep], widths[keep]
                backoff, src_uni, idf_sq = backoff[keep], src_uni[keep], idf_sq[keep]
                model_ids, padded = model_ids[keep], padded[keep]
                min_len, max_len = min_len[keep], max_len[keep]
                rngs = [rngs[i] for i in keep]
                n_beams, top = n_beams[keep], top[keep]
                R = len(keep) * W

            # The next step's rows: lane i's picks, best first, in its rows;
            # rows past them hold no beam.
            live = np.zeros(R, dtype=bool)
            live[dst] = True
            beam = np.zeros((3, R))
            beam[:, dst] = picked[:3]
            source = np.zeros(R, dtype=np.intp)
            source[dst] = src
            grown = np.empty((R, step), dtype=np.intp)
            np.take(history, source, axis=0, out=grown[:, :-1], mode="clip")
            grown[:, -1] = 0
            grown[dst, -1] = words
            history = grown
            repeats = history[:, :-1] == history[:, -1:]
            grown = np.empty((R, step), dtype=np.intp)
            np.take(tf2, source, axis=0, out=grown[:, :-1], mode="clip")
            grown[:, :-1] += 2 * repeats
            grown[:, -1] = 2 * repeats.sum(axis=1) + 2
            tf2 = grown
            shifted = np.full((R, span), -1, dtype=np.intp)
            if span:
                shifted[dst, :-1] = contexts[src, 1:]
                shifted[dst, -1] = model_ids[lane, words]
            contexts = shifted
            keys = np.full(R, no_beam)
            keys[dst] = lane_keys[lane] + words
        return results

    def _lm_rows(
        self, out, backoff, keys, contexts, lane_para, lm_pairs, model_pos
    ) -> None:
        """Backoff LM scores of every vocabulary position after each row's
        beam, written to ``out``.

        Every score starts as the backoff score of the row's lane, that of
        a context never seen; then the words attested after each longer
        suffix of the context overwrite it, the one-word suffix from the
        paragraphs' pair rows. The model's scores carry their backoff
        penalties, so each is written as it is.
        """
        n_lanes, width = backoff.shape
        np.copyto(out.reshape(n_lanes, -1, width), backoff[:, None])
        rows, seconds, logs = lm_pairs.pairs(keys, width)
        out.ravel()[rows + seconds] = logs
        beams = len(keys) // n_lanes
        n_ids = len(self.model.tokens) + 1
        index = self.model.continuation_index
        for j in range(2, self.model.order):
            # The tokens attested after each row's last j words, with the
            # score token_logscore reaches for them.
            rows, entries = _expand(*index.spans(contexts[:, -j:]))
            # Each paragraph's row of model_pos ends with the entry of id
            # -1, so a flat index one before a row still finds -1.
            pos = model_pos.ravel()[
                lane_para[rows // beams] * n_ids + index.ids[entries]
            ]
            hit = pos >= 0
            out.ravel()[rows[hit] * width + pos[hit]] = index.logs[entries[hit]]

    @staticmethod
    def _collect(para: _Paragraph, scores, links, kth: float, k: int):
        """A lane's k best pooled hypotheses, by combined score desc, then
        tokens, from its records by (step, slot); ``kth`` is its k-th best
        pooled score, -inf when fewer are pooled. Only hypotheses scoring
        at least that get their tokens built."""
        combined = scores[2]
        steps, slots = np.nonzero((combined > -np.inf) & (combined >= kth))
        if not len(steps):
            return DecodeFailure(
                f"no hypothesis completed (lengths {para.min_len}..{para.max_len})"
            )
        parents, words = links[0].tolist(), links[1].tolist()
        pool = []
        for step, slot, lm, sim, comb in zip(
            steps.tolist(),
            slots.tolist(),
            scores[0, steps, slots].tolist(),
            scores[1, steps, slots].tolist(),
            combined[steps, slots].tolist(),
        ):
            tokens = []
            for s in range(step, -1, -1):
                tokens.append(para.vocab[words[s][slot]])
                slot = parents[s][slot]
            pool.append(Hypothesis(tuple(reversed(tokens)), lm, sim, comb))
        pool.sort(key=lambda h: (-h.combined, h.tokens))
        return pool[:k]


def _batch_pair_rows(paras: Sequence[_Paragraph], tables: ConstraintTables):
    """The LM, IDF-bigram-square and source-bigram pair rows of a batch's
    paragraphs, gathered from the tables in one key space.

    Paragraph i's keys are its vocabulary positions and then BOS, from
    ``offsets[i]`` on; the last key, ``offsets[-1]``, has no pairs. Also
    returns each paragraph's map from model token id to vocabulary
    position (-1 outside it), one row each with a last entry for id -1.
    Each paragraph is gathered on its own, which keeps the gather's
    scratch arrays small.
    """
    model = tables.model
    n_keys = [len(para.vocab) + 1 for para in paras]
    model_pos = np.stack([_inverse(p.model_ids, len(model.tokens)) for p in paras])
    bos = model.token_ids[BOS]
    lm_pairs = _PairRows.stack(
        [
            tables.lm_pairs.gather(np.append(p.model_ids, bos), pos)
            for p, pos in zip(paras, model_pos)
        ],
        n_keys,
    )
    n_idf = len(tables.idf.index.word_ids)
    bigram_pairs = _PairRows.stack(
        [tables.bigram_sq.gather(p.idf_ids, _inverse(p.idf_ids, n_idf)) for p in paras],
        n_keys,
    )
    source_pairs = _PairRows.stack([p.src_bi for p in paras], n_keys)
    return np.cumsum([0] + n_keys), lm_pairs, bigram_pairs, source_pairs, model_pos


def _history_cells(history: np.ndarray, repeats: np.ndarray, width: int, n: int):
    """What each row's history gives its next step, read off one scan of
    it (``repeats``): the cells ``row * width + w`` of its bigrams (last token, w) so far,
    ascending and once each, with their counts; and the cells whose token
    would repeat an n-gram of the row (in any order, maybe twice).

    ``repeats[row, p]`` tells whether position p, before the last, holds
    the row's last token; ``history[row, p + 1]`` followed it there. That
    follower is banned when the n - 2 positions before p also hold the
    n - 2 tokens before the last one: it would end a second copy of the
    n-gram starting at p - n + 2.
    """
    beams, at = np.nonzero(repeats)
    cells = beams * width + history[beams, at + 1]
    keep = np.flatnonzero(at >= n - 2)
    gap = history.shape[1] - 1 - at  # from each match to the last token
    for k in range(1, n - 1):
        b, q = beams[keep], at[keep] - k
        keep = keep[history[b, q] == history[b, q + gap[keep]]]
    bans = cells[keep]
    cells = np.sort(cells)
    new = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=new[1:])
    return cells[new], np.bincount(np.cumsum(new) - 1), bans


def _lockstep_batches(widths: Sequence[int], beam_width: int) -> list[range]:
    """Consecutive runs of lanes, in order, one per lockstep batch, given
    each lane's vocabulary size. A batch takes lanes while lanes x
    beam_width x its widest vocabulary stays within MAX_LOCKSTEP_CELLS,
    and always takes one."""
    batches: list[range] = []
    start, widest = 0, 0
    for i, width in enumerate(widths):
        wider = max(widest, width)
        if i > start and (i - start + 1) * beam_width * wider > MAX_LOCKSTEP_CELLS:
            batches.append(range(start, i))
            start, wider = i, width
        widest = wider
    if widths:
        batches.append(range(start, len(widths)))
    return batches


def _positions(words: Sequence[str], ids: Mapping[str, int]) -> np.ndarray:
    """Each word's id in ``ids``, -1 when absent."""
    return np.fromiter(map(ids.get, words, repeat(-1)), dtype=np.intp, count=len(words))


def _inverse(word_ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Map from id to vocabulary position, -1 for ids outside the vocabulary.

    It has one extra trailing -1, so an id of -1 maps to -1 as well. The
    positions are int32, which halves the batch's pair rows and maps.
    """
    pos = np.full(n_ids + 1, -1, dtype=np.int32)
    known = word_ids >= 0
    pos[word_ids[known]] = np.flatnonzero(known)
    return pos


def beam_search(
    sources: Sequence[str],
    tables: ConstraintTables,
    cfg: DecoderConfig,
    lex: Lexicon,
) -> list[list[Hypothesis] | Exception]:
    """Decode paragraphs in lockstep. Per source, in order: its top
    candidates sorted by combined score, or the exception a decode of it
    alone raises (a ValueError for a source with no words, EmptyVocabulary,
    DecodeFailure). Batching never changes a source's result.

    The constraint, the model and the IDF table come from ``tables``, built
    once per constraint set with tail size ``cfg.candidate_vocab_size``. The
    in-search similarity term always uses the built-in TF-IDF features of
    that IDF table (it needs feature-level access for incremental updates);
    a remote embedder belongs in multiselect, trimming and evaluation. In
    sampled mode each source has ``candidates_k`` lanes, run i drawing its
    noise from ``default_rng([seed, i])``, and returns their winners.
    """
    if isinstance(sources, str):
        raise TypeError("beam_search takes a sequence of source paragraphs")
    if tables.size != cfg.candidate_vocab_size:
        raise ValueError(
            f"the tables were built for a tail of M = {tables.size} words, "
            f"but candidate_vocab_size is {cfg.candidate_vocab_size}"
        )
    results: list = [None] * len(sources)
    decoded, vocabs = [], []
    for i, source in enumerate(sources):
        if not textcore.words(source):
            results[i] = ValueError("source paragraph has no words")
            continue
        try:
            vocabs.append(build_candidate_vocab(source, tables, lex))
        except EmptyVocabulary as exc:
            results[i] = exc
            continue
        decoded.append(i)
    engine = _BeamEngine([sources[i] for i in decoded], vocabs, cfg, tables)

    if cfg.mode == "deterministic":
        for i, found in zip(decoded, engine.run(cfg.candidates_k)):
            results[i] = found
        return results

    runs = cfg.candidates_k
    lanes = [
        (p, np.random.default_rng([cfg.seed, r]))
        for p in range(len(decoded))
        for r in range(runs)
    ]
    outcomes = engine.run(1, lanes)
    for p, i in enumerate(decoded):
        winners = [
            found[0]
            for found in outcomes[p * runs:(p + 1) * runs]
            if not isinstance(found, DecodeFailure)
        ]
        winners.sort(key=lambda h: (-h.combined, h.tokens))
        results[i] = winners or DecodeFailure(
            f"all {runs} sampled runs failed to complete"
        )
    return results


def multiselect(candidates: Sequence[Hypothesis], source: str, embedder) -> Hypothesis:
    """The candidate most similar to the source; ties keep the earliest."""
    if not candidates:
        raise ValueError("multiselect needs at least one candidate")
    sims = similarities(embedder, source, [h.text() for h in candidates])
    return candidates[sims.index(max(sims))]
