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

- Corpus: ``NGramModel`` builds, lazily on first use and cached on it,
  the frequency-ranked word list, each token's score after an unseen
  context (``backoff_logscores``) and every context's continuations as
  token ids with their scores (``ContinuationIndex``, which finds a
  context from its token ids through sorted int64 keys). Both scores
  already carry their backoff penalties, so the decoder never applies
  one itself. ``SearchWords``, built once per model and IDF table, gives
  every word the search can know one id (the model's tokens keep their
  token ids), holds each id's letter mask, backoff score and idf, and
  keeps one pair block: every one-word-context LM continuation and IDF
  bigram, with both the LM log and the squared bigram idf.
- Constraint: ``ConstraintTables``, built once per constraint set and
  tail size M over the SearchWords, holds which ids are legal, the tail
  (the M most frequent legal words) and the pairs among all legal
  words, keyed by first word id. ``Pipeline`` keeps its SearchWords while
  the model and the IDF table stay the same, and the last tables it
  built while the constraint and M stay the same too; every search reads
  its constraint, model and IDF table from the tables.
- Paragraph: ``_Paragraph`` keeps only what depends on the source. It
  reads its per-word arrays with one ``SearchWords.lookup`` of its
  vocabulary, and holds the source's TF-IDF weights over the
  vocabulary, placed through one map from word to vocabulary position.

``beam_search`` decodes all the paragraphs of a call together. Each search
is a lane: a paragraph in deterministic mode, or one (paragraph, run i)
pair in sampled mode, drawing its noise from its own
``default_rng([seed, i])`` at the shape of a lone search. Lanes are
admitted to a batch in call order while lanes x beam_width x the batch's
widest vocabulary stays within ``MAX_LOCKSTEP_CELLS`` (two fifths of it in
sampled mode; at least one lane per batch); the bounds were sized by
peak-RSS measurements. All lanes of a batch take the same step together,
and a lane leaves the batch when it stops: at its own maximum length, at
its own exact early stop, or when no beam survives.

A step's cells are (row, word) pairs: each lane owns beam_width rows, its
live beams first, over the batch's widest vocabulary V, and its cells past
its own vocabulary and its rows without a beam never win. One scorer
(``_BeamEngine._sparse_scores``) gives each lane's cells that can reach
its top beam_width with their LM, dot, sum-of-squares, similarity and
combined scores and their rank: the combined score, or in sampled mode
that score divided by the temperature plus the cell's Gumbel draw. One
shared path then keeps each lane's best (``top_k``: rank, then flat
index, the tie rule of a stable full sort of the lane alone), pools them,
applies the early stop and builds the next rows.

The scorer scores exactly only each row's special cells (its pairs, LM
followers of longer contexts, source-bigram pairs, source words and
history cells) and the generic rest whose admissible bound, with the
cell's noise in sampled mode, reaches the lane's beam_width-th best
special rank. Every scored cell goes through the same elementwise
operations in the same order as in a dense search of its lane alone, which
scores every cell, and every skipped cell ranks strictly below the lane's
top beam_width, so no lane's result depends on its batch. A pick's scores
are those the scorer computed; the step keeps each pick's back-pointer,
word and scores in arrays, and builds ``Hypothesis`` objects only for a
lane's returned top k.
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
from .metrics import IdfTable, TfidfEmbedder, embed, most_similar
from .ngram import BOS, NGramModel
from .textcore import ConstraintSet, canonical, violates


class EmptyVocabulary(RuntimeError):
    """No legal candidate word survives the constraint."""


class DecodeFailure(RuntimeError):
    """The search ended with no complete hypothesis."""


MODES = ("deterministic", "sampled")

# A search peaks at about 28-32 bytes per beam x vocabulary cell in
# deterministic mode and 47-51 in sampled mode (tracemalloc over whole runs
# of a 240-word paragraph at 200 x 1,999 and 50 x 2,206 cells, plus the 5
# and 13 bytes of the step's mapped planes; numpy 2.4). The cap on
# beam_width x candidate_vocab_size keeps a sampled search near 150 MB.
MAX_BEAM_CELLS = 3_000_000

# A lockstep batch admits lanes, in call order, while lanes x beam_width x
# its widest vocabulary stays within this many cells, and always admits
# one lane. The step keeps a byte and an int32 per cell, plus arrays over
# the cells it scores, and a batch also holds its lanes' pair rows. The
# step's cost follows its numpy calls more than its cells, so it gains
# from wide batches; at this size one batch takes most calls of both
# library workloads. Sampled mode admits two fifths of that, 60k: its step
# also keeps a float64 of Gumbel draws per cell, and one run at 150k was
# no faster. Measured in-process (seed 0, one pass after set-up;
# 2-CPU x86 host, Python 3.11, numpy 2.4), the peak RSS of translate-e was
# 66.7, 67.5, 69.5 and 70.9 MB at 60k, 120k, 150k and 240k cells, and of
# sweep-short 66.5, 71.4, 71.2 and 70.7 MB; a sampled translation of the
# bundled novel's first 20 paragraphs under "e" with the default config
# peaked at 71.0 MB at 60k cells and 79.7 MB at 150k.
MAX_LOCKSTEP_CELLS = 150_000

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

    Every word is one canonical word, as ``textcore.canonical_words``
    reads it: the search scores a word as one feature, so a synonym that
    the tokenizer splits or cuts short ("x-ray", "mp3", "café") would be
    searched under other features than its text is judged by, and is
    left out. Source words and model tokens are canonical words already.
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
            if textcore.canonical_words(synonym) == [canonical(synonym)]:
                add(canonical(synonym))
    ordered.extend(word for word in tables.tail if word not in seen)

    if not ordered:
        raise EmptyVocabulary(
            f"no legal candidate words under letters {c.as_string()!r}"
        )
    return ordered


class SearchWords:
    """Every word the search can know, under one id: the model's tokens
    by their token ids, then the IDF table's other words. Built once per
    (model, IDF table) and shared by the tables of every constraint set.

    Per id: its letter mask (``masks``), and with a last entry for id -1
    (a word neither knows) its score after a context never seen
    (``backoff``, from ``NGramModel.backoff_logscores``) and its idf
    (``idf_values``, the table default for a word that is no unigram
    feature). ``pairs`` holds, grouped by first id, every pair (a, b)
    that is a one-word-context LM continuation or an IDF bigram, with two
    values: the LM log of b after a, and the square of the idf of the
    bigram "a b". A pair with only one of them stores, for the other, what
    a cell outside every pair gets: b's backoff score, or the default idf
    squared.
    """

    def __init__(self, model: NGramModel, idf: IdfTable):
        self.model = model
        self.idf = idf
        self.ids = ids = dict(model.token_ids)
        n_tokens = len(ids)
        bigram_firsts, bigram_seconds, squares = [], [], []
        for feature, value in idf.values.items():
            first, sep, second = feature.partition(" ")
            a = ids.setdefault(first, len(ids))
            if sep:
                bigram_firsts.append(a)
                bigram_seconds.append(ids.setdefault(second, len(ids)))
                squares.append(value * value)
        n = len(ids)
        self.masks = textcore.letter_masks(ids)
        self.backoff = model.backoff_logscores[np.minimum(np.arange(n + 1), n_tokens)]
        self.idf_values = np.array(
            [idf.values.get(word, idf.default) for word in ids] + [idf.default]
        )

        # The continuations of each token's one-word context, then the IDF
        # bigrams, as keys first * n + second, merged.
        index = model.continuation_index
        rows = index.token_rows[:n_tokens]
        firsts, entries = _expand(index.starts[rows], index.starts[rows + 1])
        known = np.flatnonzero(index.ids[entries] >= 0)
        firsts, entries = firsts[known], entries[known]
        bigrams = np.array(bigram_firsts, dtype=np.intp) * n + np.array(
            bigram_seconds, dtype=np.intp
        )
        keys, at = np.unique(
            np.concatenate((firsts * n + index.ids[entries], bigrams)),
            return_inverse=True,
        )
        firsts, seconds = np.divmod(keys, n)
        values = np.empty((2, len(keys)))
        values[0] = self.backoff[seconds]
        values[0, at[: len(entries)]] = index.logs[entries]
        values[1] = idf.default**2
        values[1, at[len(entries):]] = squares
        self.pairs = _PairRows.grouped(n, firsts, seconds, values)

    def lookup(self, words: Sequence[str]):
        """Each word's id (-1 when unknown), backoff LM score and idf, as
        arrays. The backoff score is that of a word never seen after the
        context (``NGramModel.backoff_logscores``)."""
        ids = _positions(words, self.ids)
        return ids, self.backoff[ids], self.idf_values[ids]


class ConstraintTables:
    """The decoder's tables for one constraint set and tail size M, over
    the ``SearchWords`` of a model and an IDF table.

    Built once per (constraint set, M) and shared by every paragraph
    decoded under them:

    - which words are legal (``legal``, by id, with a last False entry
      for id -1; BOS and EOS are not) and the tail, the M most frequent
      legal model words;
    - the pairs of ``SearchWords.pairs`` whose words are both legal, and
      those after BOS whose second word is, grouped by first word id.

    Every vocabulary word is legal, so these pairs hold every pair any
    paragraph's vocabulary can need. A paragraph gathers its pairs by
    word id.
    """

    def __init__(self, c: ConstraintSet, words: SearchWords, M: int):
        self.constraint = c
        self.size = M
        self.words = words
        model = words.model
        self.legal = legal = np.append((words.masks & c.mask) == 0, False)
        legal[len(model.ranked_words):len(model.tokens)] = False
        # The M most frequent legal words (all of them when fewer are legal):
        # the ranked words come first in id order.
        ranked = np.flatnonzero(legal[: len(model.ranked_words)])
        self.tail = [model.tokens[i] for i in ranked[:M]]
        legal_ids = np.where(legal, np.arange(len(legal)), -1)
        firsts = legal_ids[:-1].copy()
        firsts[words.ids[BOS]] = words.ids[BOS]
        self.pairs = words.pairs.gather(firsts, legal_ids)


def top_k(lanes: np.ndarray, at: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Which entries (lanes[j], at[j]) with rank[j] each lane keeps: the
    indexes j of its k >= 1 best, grouped by lane, best first.

    A lane's entries are ordered by rank, descending, then by ``at``, and
    cut after k and at the first +inf one. Given every entry above -inf of
    a lane's block, with ``at`` its flat index, this equals
    ``np.argsort(-block.ravel(), kind="stable")`` cut after k entries and
    at the first non-finite one; given any of its entries that include
    all those at or above the lane's k-th highest rank, as the step's
    scorer gives, it picks the same. No rank may be -inf or NaN: they
    never lead a cut prefix, so callers drop them.
    """
    neg = -rank
    order = np.lexsort((at, neg, lanes))
    lanes, neg = lanes[order], neg[order]
    counts = np.bincount(lanes)
    first = np.cumsum(counts) - counts
    cut = np.bincount(lanes[np.isinf(neg)], minlength=len(counts)) > 0
    keep = (np.arange(len(lanes)) - first[lanes] < k) & ~cut[lanes]
    return order[keep]


class _PairRows:
    """Values at (first, second) pairs of small-int keys, grouped by first:
    the pairs of first key f are entries ``starts[f]:starts[f + 1]``. The
    values' last axis runs over the pairs; a pair may have more than one."""

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
        part, have no pairs. The seconds are stored as int32, and the
        values as two rows: a part with one value per pair gives it in
        both."""
        starts, offset = [], 0
        for part, n in zip(parts, n_keys):
            own = part._starts[:-1] + offset
            offset += part._starts[-1]
            starts += [own, np.full(n - len(own), offset)]
        starts.append(np.array([offset, offset]))
        return cls(
            np.concatenate(starts),
            np.concatenate([part._seconds for part in parts], dtype=np.int32),
            np.concatenate(
                [np.broadcast_to(p._values, (2, len(p._seconds))) for p in parts], axis=1
            ),
        )

    def pairs(
        self, firsts: np.ndarray, scale: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row * scale, second, values) of every pair of each first key,
        where row is the key's index in ``firsts``. With the width of a
        matrix of one row per key as the scale, row + second is a pair's
        flat cell."""
        rows, entries = _expand(self._starts[firsts], self._starts[firsts + 1], scale)
        return rows, self._seconds[entries], np.take(self._values, entries, axis=-1)

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
            len(firsts), rows[hit], pos[hit], np.take(self._values, entries[hit], axis=-1)
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
    bounds, each word's arrays from ``SearchWords.lookup``, and the
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
        words = tables.words
        idf = words.idf
        self.vocab = list(vocab)
        n_vocab = len(self.vocab)

        source_len = len(textcore.words(source_paragraph))
        self.min_len = math.ceil(cfg.min_ratio * source_len)
        self.max_len = math.floor(cfg.max_ratio * source_len)

        self.ids, self.backoff, self.idf_uni = words.lookup(self.vocab)
        # Contexts are read by model token id: the other words are -1 there.
        self.model_ids = np.where(self.ids < len(words.model.tokens), self.ids, -1)
        # A known word is legal by its id; only the others are checked.
        illegal = [
            self.vocab[i] for i in np.flatnonzero(~tables.legal[self.ids])
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
        # The words outside the source, by backoff score desc, ties by
        # position: the order in which the sparse step bounds them.
        generic = np.flatnonzero(self.src_uni == 0)
        self.generic = generic[np.argsort(-self.backoff[generic], kind="stable")]


class _Scratch:
    """Step planes shared by the batches of one run, one per dtype, each
    mapped on first use with room for ``cells`` cells.

    They are anonymous memory maps, not heap blocks: their pages go back to
    the system when the run ends and leave no hole in the heap (with a heap
    block, sweep-short's peak RSS was about 1 MB higher), and only the
    pages that a step touches are ever backed.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self._planes: dict = {}

    def plane(self, dtype) -> np.ndarray:
        """The plane of ``dtype``, a (cells,) array."""
        dtype = np.dtype(dtype)
        if dtype not in self._planes:
            raw = mmap.mmap(-1, dtype.itemsize * self.cells)
            self._planes[dtype] = np.frombuffer(raw, dtype)
        return self._planes[dtype]


@dataclass
class _Lanes:
    """The arrays of a lockstep batch's running lanes, entry i for the
    i-th; vocabulary arrays are padded with zeros to the batch's widest
    vocabulary. The step never uses the padding: it scores no cell past a
    lane's vocabulary, and no generic word past a lane's own."""

    ids: np.ndarray  # the lane's index in the batch
    para: np.ndarray  # its paragraph's index among the batch's paragraphs
    keys: np.ndarray  # its paragraph's first pair key
    widths: np.ndarray
    min_len: np.ndarray
    max_len: np.ndarray
    rngs: np.ndarray  # its generator, or None (an object array)
    backoff: np.ndarray  # (lanes, V) from here on
    src_uni: np.ndarray
    idf_sq: np.ndarray
    model_ids: np.ndarray
    generic: np.ndarray  # (lanes, G): ``_Paragraph.generic``, padded
    generic_backoff: np.ndarray  # their backoff scores
    n_generic: np.ndarray
    min_generic_sq: np.ndarray  # the least idf^2 among them

    def take(self, keep: np.ndarray) -> "_Lanes":
        return _Lanes(*(getattr(self, f.name)[keep] for f in fields(self)))


@dataclass
class _Batch:
    """What every step of a lockstep batch reads: its running lanes, its
    widest vocabulary V, the pair rows of its paragraphs with the size K of
    each block of keys (``_batch_pair_rows``; key K - 1 has no pairs), each
    paragraph's map from word id to vocabulary position, its number of
    paragraphs, and the run's scratch planes."""

    lanes: _Lanes
    V: int
    n_keys: int
    pairs: _PairRows
    pos: np.ndarray
    n_paras: int
    scratch: _Scratch


@dataclass
class _Rows:
    """A step's rows: B per lane, lane i's from row i * B on, its live
    beams first. Per row: its beam's LM, dot and sum-of-squares scores so
    far, whether it holds a beam, the pair key of its last word (BOS
    before the first), its last model ids (BOS-padded), its vocabulary
    positions, and from ``_history_cells`` its followed cells with their
    counts and its bans; per lane, its live beams."""

    B: int
    beam: np.ndarray
    live: np.ndarray
    keys: np.ndarray
    contexts: np.ndarray
    history: np.ndarray
    followed: np.ndarray
    counts: np.ndarray
    bans: np.ndarray
    n_beams: np.ndarray


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

    A step's cells are (row, word) pairs over lanes x beam_width rows and
    the batch's widest vocabulary V. A lane owns beam_width rows (its live
    beams first), and its cells past its own vocabulary, like the rows of
    beams it does not have, never win. The scorer gives each lane's cells
    that can reach its top beam_width, with their scores; every cell it
    scores gets the same elementwise operations, in the same order, as in
    a dense search of its lane alone, and every cell it skips ranks below
    the lane's top beam_width, so no lane's result depends on its batch.
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
        self.model = tables.words.model
        self.paragraphs = [
            _Paragraph(source, vocab, cfg, tables)
            for source, vocab in zip(sources, vocabs)
        ]
        self._default_sq = tables.words.idf.default**2

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
        budget = MAX_LOCKSTEP_CELLS
        if self.cfg.mode == "sampled":
            budget = budget * 2 // 5
        batches = _lockstep_batches(widths, self.cfg.beam_width, budget)
        scratch = _Scratch(max(
            (len(b) * self.cfg.beam_width * max(widths[j] for j in b) for b in batches),
            default=1,
        ))
        for batch in batches:
            ids = [ready[j] for j in batch]
            found = self._run_batch([lanes[i] for i in ids], k, scratch)
            for i, result in zip(ids, found):
                results[i] = result
        return results

    def _batch(self, lanes, scratch: _Scratch) -> _Batch:
        """The set-up of one batch of lanes."""
        paras = [self.paragraphs[p] for p, _ in lanes]
        shared = list(dict.fromkeys(p for p, _ in lanes))
        para = np.array([shared.index(p) for p, _ in lanes])
        shared = [self.paragraphs[p] for p in shared]
        offsets, pairs, pos = _batch_pair_rows(shared, self.tables)
        widths = np.array([len(p.vocab) for p in paras])
        V = int(widths.max())
        G = max(len(p.generic) for p in paras)

        def stacked(rows, width=V, dtype=float):
            out = np.zeros((len(rows), width), dtype=dtype)
            for row, values in zip(out, rows):
                row[: len(values)] = values
            return out

        lanes = _Lanes(
            ids=np.arange(len(lanes)),
            para=para,
            keys=offsets[para],
            widths=widths,
            min_len=np.array([p.min_len for p in paras]),
            max_len=np.array([p.max_len for p in paras]),
            rngs=np.array([rng for _, rng in lanes], dtype=object),
            backoff=stacked([p.backoff for p in paras]),
            src_uni=stacked([p.src_uni for p in paras]),
            idf_sq=stacked([p.idf_uni_sq for p in paras]),
            model_ids=stacked([p.model_ids for p in paras], dtype=np.intp),
            generic=stacked([p.generic for p in paras], G, np.intp),
            generic_backoff=stacked([p.backoff[p.generic] for p in paras], G),
            n_generic=np.array([len(p.generic) for p in paras]),
            min_generic_sq=np.array(
                [p.idf_uni_sq[p.generic].min(initial=np.inf) for p in paras]
            ),
        )
        return _Batch(lanes, V, offsets[-1] + 1, pairs, pos, len(shared), scratch)

    def _run_batch(self, lanes, k: int, buffer: _Scratch) -> list:
        """``run`` for one batch of lanes, with its step planes in ``buffer``.

        A step scores, then selects, pools and advances. The scorer
        (``_sparse_scores``) gives each lane's cells that can reach its top
        beam_width with their scores and ranks; ``top_k`` keeps each lane's
        beam_width best cells, those of a legal length are pooled, the
        lanes that stop leave, and the picks become the next step's rows.
        """
        cfg, model = self.cfg, self.model
        W = cfg.beam_width
        span = model.order - 1
        paras = [self.paragraphs[p] for p, _ in lanes]
        batch = self._batch(lanes, buffer)
        ln, V = batch.lanes, batch.V

        # The first step has one row per lane, its empty beam.
        n_lanes = len(lanes)
        n_beams = np.ones(n_lanes, dtype=np.intp)
        live = np.ones(n_lanes, dtype=bool)
        beam = np.zeros((3, n_lanes))
        history = np.empty((n_lanes, 0), dtype=np.intp)
        repeats = np.empty((n_lanes, 0), dtype=bool)
        contexts = np.full((n_lanes, span), model.token_ids[BOS], dtype=np.intp)
        keys = ln.keys + ln.widths
        top = np.full((n_lanes, k), -np.inf)  # each lane's k best pooled scores

        # Every pick, lane i's at first[i] + (step - 1) * W + slot: its LM,
        # similarity and combined score (-inf outside the pool, set step by
        # step), and its parent slot and word. A lane's records are its own
        # run of max_len x W entries, so only the pages of the steps it
        # takes are touched.
        n_steps = int(ln.max_len.max())
        first = np.cumsum(ln.max_len * W) - ln.max_len * W
        scores = np.empty((3, int(ln.max_len.sum()) * W))
        links = np.empty((2, scores.shape[1]), dtype=np.intp)

        results: list = [None] * n_lanes
        for step in range(1, n_steps + 1):
            L = len(ln.ids)
            B = 1 if step == 1 else W  # rows per lane this step
            rows = _Rows(
                B, beam, live, keys, contexts, history,
                *_history_cells(history, repeats, V, cfg.no_repeat_ngram), n_beams,
            )
            lane, picks, rank, picked = self._sparse_scores(batch, rows, step)
            chosen = top_k(lane, picks, rank, W)
            # Each pick's LM, dot, sum-of-squares, similarity and combined
            # scores; only those of a legal length are pooled.
            lane, picks, picked = lane[chosen], picks[chosen], picked[:, chosen]

            n_beams = np.bincount(lane, minlength=L)
            slots = np.arange(len(lane)) - (np.cumsum(n_beams) - n_beams)[lane]
            parents, words = np.divmod(picks, V)
            src = lane * B + parents
            dst = lane * W + slots
            pooled = picked[4]
            pooled[step < ln.min_len[lane]] = -np.inf
            base = first[ln.ids] + (step - 1) * W
            scores[2, (base[:, None] + np.arange(W)).ravel()] = -np.inf
            at = base[lane] + slots
            scores[0, at] = picked[0]
            scores[1, at] = picked[3]
            scores[2, at] = pooled
            links[0, at] = parents
            links[1, at] = words

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
                | (step >= ln.max_len)
                | (cfg.lambda_lm * best_lm + cfg.lambda_sim < top[:, 0])
            )

            if stop.any():
                for i in np.flatnonzero(stop):
                    records = slice(first[ln.ids[i]], first[ln.ids[i]] + step * W)
                    results[ln.ids[i]] = self._collect(
                        paras[ln.ids[i]],
                        scores[:, records].reshape(3, step, W),
                        links[:, records].reshape(2, step, W),
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
                batch.lanes = ln = ln.take(keep)
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
            shifted = np.full((R, span), -1, dtype=np.intp)
            if span:
                shifted[dst, :-1] = contexts[src, 1:]
                shifted[dst, -1] = ln.model_ids[lane, words]
            contexts = shifted
            keys = np.full(R, batch.n_keys - 1)
            keys[dst] = ln.keys[lane] + words
        return results

    def _sparse_scores(self, batch: _Batch, rows: _Rows, step: int):
        """The step's scorer: each lane's cells that can reach its top
        beam_width, scored exactly. Returns them as (lane, row-in-lane * V
        + word, rank) arrays, and their LM, dot, sum-of-squares, similarity
        and combined scores as a (5, cells) array. A cell's rank is its
        combined score; in a sampled lane it is that score divided by the
        temperature, plus the cell's Gumbel draw.

        A row's special cells are its pairs (its LM followers and IDF bigrams,
        one block), the LM followers of its longer contexts, its source-bigram
        pairs, the source words, and its history cells (the tf corrections and
        the bans). Each is scored with the same elementwise operations, in the
        same order, as every cell of a dense (rows, V) search of its lane
        alone. Every other cell is generic: its LM score is backoff[w] + the
        beam's, its dot the beam's, and its sum of squares (idf^2[w] + the
        beam's) + the default bigram square (none on the first step). So its
        score is at most the bound lambda_lm * (backoff[w] + beam LM) +
        lambda_sim * clip(beam dot / sqrt((min idf^2 + beam ssq) + default^2)),
        min idf^2 being the least among the lane's generic words: the bound
        takes the score's operations in their order, and IEEE rounding is
        monotone, so it holds for the computed values, and it falls with
        backoff[w]. Each lane's threshold is its beam_width-th best special
        rank; ``_generic_cells`` gives the generic cells whose bound, with the
        noise in a sampled lane, is not below it. Every skipped cell ranks
        strictly below the threshold, so each lane's top beam_width, and their
        flat tie order, are those of the dense search.

        Each sampled lane draws ``rng.gumbel(size=n_beams * width)``, in
        lane order, as a lone search of it does, into a float plane at its
        live rows and real cells; every other cell of the plane holds -inf,
        so no cell there reaches a threshold. The special cells are merged
        in a boolean plane, which gives them once each in flat order and is
        cleared at those cells only; a cell is found in their list through
        a plane of slots that is never cleared, as it is read only at cells
        just written.
        """
        cfg, ln, V, B = self.cfg, batch.lanes, batch.V, rows.B
        L, R = len(ln.ids), len(rows.live)
        mark = batch.scratch.plane(bool)
        slot = batch.scratch.plane(np.int32)
        row_lane = np.arange(R) // B
        noise = None
        if ln.rngs[0] is not None:
            noise = batch.scratch.plane(float)[: R * V]
            noise.fill(-np.inf)
            drawn = noise.reshape(L, B, V)
            for i, (rng, n, width) in enumerate(zip(ln.rngs, rows.n_beams, ln.widths)):
                drawn[i, :n, :width] = rng.gumbel(size=n * width).reshape(n, width)

        def ranks(comb, cells):
            """The ranks of the cells with these combined scores."""
            if noise is None:
                return comb
            rank = np.divide(comb, cfg.temperature)
            rank += noise[cells]
            return rank

        # The followed cells and the bans are history cells, so they are
        # not marked on their own.
        paired, ((pairs, (logs, squares)), source_bigrams) = self._pairs(batch, rows)
        lm_writes = [(pairs, logs)] + self._context_writes(batch, rows)
        special = [paired] + [cells for cells, _ in lm_writes[1:]]
        if step > 1:
            live = np.flatnonzero(rows.live)
            followed, counts, bans = rows.followed, rows.counts, rows.bans
            if len(live) < R:
                on = rows.live[followed // V]
                followed, counts = followed[on], counts[on]
                bans = bans[rows.live[bans // V]]
            history = (live * V)[:, None] + rows.history[live]
            special.append(history)
        for cells in special:
            mark[cells] = True
        cells = np.flatnonzero(mark[: R * V])
        n = len(cells)
        slot[cells] = np.arange(n, dtype=np.int32)
        starts = np.searchsorted(cells, np.arange(0, (R + 1) * V, V))
        per_row = np.diff(starts)
        at = cells - np.repeat((np.arange(R) - row_lane) * V, per_row)  # lane * V + w
        beam = np.repeat(rows.beam, per_row, axis=1)

        # The LM, dot, sum-of-squares, similarity and combined scores.
        scores = np.empty((5, n))
        lm, dot, ssq, sim, comb = scores
        np.take(ln.backoff, at, out=lm)
        for written, logs in lm_writes:
            lm[slot[written]] = logs
        lm += beam[0]
        np.add(np.take(ln.src_uni, at), beam[1], out=dot)
        idf_sq = np.take(ln.idf_sq, at)
        np.add(idf_sq, beam[2], out=ssq)
        if step > 1:
            square = np.full(n, self._default_sq)
            square[slot[pairs]] = squares
            ssq += square
            dot[slot[source_bigrams[0]]] += source_bigrams[1]
            # A word held k times gets idf^2 * 2k, as in the dense search,
            # and every other cell 0.
            ssq += idf_sq * (2 * np.bincount(slot[history].ravel(), minlength=n))
            f = slot[followed]
            ssq[f] += square[f] * (2 * counts)
        self._mix(lm, dot, ssq, sim, comb, idf_sq)
        if step > 1:
            comb[slot[bans]] = -np.inf

        rank = ranks(comb, cells)

        # Each lane's threshold: its beam_width-th best special rank, or
        # -finfo.max below beam_width finite ones. A lane's special cells
        # are one run of ``cells``.
        bounds = starts[::B]
        threshold = np.full(L, -np.finfo(float).max)
        ranked = np.fmax(rank, -np.inf)  # NaN ranks as -inf
        for i, (start, end) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
            kth = end - start - cfg.beam_width
            if kth >= 0:
                threshold[i] = max(threshold[i], np.partition(ranked[start:end], kth)[kth])
        found = np.flatnonzero(rank >= np.repeat(threshold, np.diff(bounds)))
        lanes = np.searchsorted(bounds, found, side="right") - 1
        picked = (lanes, cells[found] - lanes * (B * V), rank[found], scores[:, found])

        extra = self._generic_cells(batch, rows, step, row_lane, threshold, noise)
        if len(extra):
            extra = extra[~mark[extra]]
        mark[cells] = False
        if not len(extra):
            return picked
        # The generic cells, scored like the special ones without their
        # pair and history terms.
        r, words = np.divmod(extra, V)
        at = row_lane[r] * V + words
        scores = np.empty((5, len(extra)))
        lm, dot, ssq, sim, comb = scores
        np.add(np.take(ln.backoff, at), rows.beam[0, r], out=lm)
        np.add(np.take(ln.src_uni, at), rows.beam[1, r], out=dot)
        np.add(np.take(ln.idf_sq, at), rows.beam[2, r], out=ssq)
        if step > 1:
            ssq += self._default_sq
        self._mix(lm, dot, ssq, sim, comb, np.empty(len(extra)))
        rank = ranks(comb, extra)
        found = np.flatnonzero(rank >= threshold[row_lane[r]])
        lanes = row_lane[r[found]]
        return tuple(
            np.concatenate((old, new), axis=-1)
            for old, new in zip(
                picked,
                (lanes, extra[found] - lanes * (B * V), rank[found], scores[:, found]),
            )
        )

    def _generic_cells(
        self, batch: _Batch, rows: _Rows, step: int, row_lane, threshold, noise
    ):
        """Cells that hold every generic cell of the live rows that may
        reach its lane's threshold, by the bound of ``_sparse_scores``;
        some may be special cells too.

        In a deterministic lane these are each row's prefix of its lane's
        generic words whose bound is not below the threshold. In a sampled
        lane the noise differs from cell to cell, so no order holds; a cell
        is kept when its row's first bound, the largest, divided by the
        temperature, plus the cell's draw in ``noise`` is not below the
        threshold. The division by a temperature > 0 and the addition are
        monotone under IEEE rounding, so that sum bounds the cell's rank.
        """
        cfg, ln, V = self.cfg, batch.lanes, batch.V
        G = ln.generic.shape[1]
        den = ln.min_generic_sq[row_lane] + rows.beam[2]
        if step > 1:
            den += self._default_sq
        sim = np.clip(rows.beam[1] / np.sqrt(den), 0.0, 1.0) * cfg.lambda_sim
        floor = threshold[row_lane]

        def bound(i, n):
            """The bounds of the first n generic words of rows i."""
            bound = (ln.generic_backoff[row_lane[i], :n] + rows.beam[0, i, None])
            bound *= cfg.lambda_lm
            bound += sim[i, None]
            return bound

        if noise is not None:
            if not G:
                return np.empty(0, dtype=np.intp)
            # The draw plus the bound equals the bound plus the draw: IEEE
            # addition is commutative. A cell outside the live rows' real
            # cells holds a -inf draw, and the caller drops special cells.
            top = noise.reshape(-1, V) + np.divide(bound(slice(None), 1), cfg.temperature)
            return np.flatnonzero(~(top < floor[:, None]))

        def reach(i, n):
            """How many of the first n generic words of rows i reach."""
            real = np.arange(n) < ln.n_generic[row_lane[i], None]
            return (~(bound(i, n) < floor[i, None]) & real).sum(axis=1)

        # The bound falls along the order, so the words that reach are a
        # prefix, and most steps end at the first word.
        n = reach(slice(None), min(G, 1)) * rows.live
        if not n.any():
            return n[:0]
        more = np.flatnonzero(n)
        n[more] = reach(more, G)
        i, entries = _expand(row_lane * G, row_lane * G + n)
        return i * V + ln.generic.ravel()[entries]

    def _mix(self, lm, dot, ssq, sim, comb, scratch) -> None:
        """Each cell's similarity and combined score from its LM, dot and
        sum-of-squares scores, written to ``sim`` and ``comb``."""
        np.divide(dot, np.sqrt(ssq, out=scratch), out=sim)
        np.clip(sim, 0.0, 1.0, out=sim)
        np.multiply(lm, self.cfg.lambda_lm, out=comb)
        comb += np.multiply(sim, self.cfg.lambda_sim, out=scratch)

    def _pairs(self, batch: _Batch, rows: _Rows):
        """Each row's pairs, per block of ``_batch_pair_rows``: the words it
        has a pair with after its last word, with their LM logs and
        IDF-bigram squares as a (2, cells) array; its source bigrams with
        their values; and its paragraph's source words (none for a row
        without a beam). Returns all those cells as one array, and the
        (cells, values) of the first two blocks."""
        K, V, R = batch.n_keys, batch.V, len(rows.keys)
        para = batch.lanes.para[np.arange(R) // rows.B]
        queries = [rows.keys, rows.keys + K, 2 * K + np.where(rows.live, para, batch.n_paras)]
        r, seconds, values = batch.pairs.pairs(np.concatenate(queries), V)
        cells = r + seconds
        ends = np.searchsorted(r, np.array([R, 2 * R]) * V).tolist()
        cells[ends[0]:ends[1]] -= R * V
        cells[ends[1]:] -= 2 * R * V
        return cells, (
            (cells[: ends[0]], values[:, : ends[0]]),
            (cells[ends[0]:ends[1]], values[0, ends[0]:ends[1]]),
        )

    def _context_writes(self, batch: _Batch, rows: _Rows) -> list:
        """The LM scores of the words attested after each longer suffix of
        each row's context, as (cells, logs) arrays, one pair per suffix
        length, shortest first. Each replaces the score written before it
        at its cell, beginning with the pair rows' followers. The model's
        scores carry their backoff penalties, so each is written as it
        is."""
        V = batch.V
        n_ids = batch.pos.shape[1]
        # Each row's paragraph's row of pos.
        row_ids = batch.lanes.para[np.arange(len(rows.keys)) // rows.B] * n_ids
        index = self.model.continuation_index
        writes = []
        for j in range(2, self.model.order):
            # The tokens attested after each row's last j words, with the
            # score token_logscore reaches for them.
            lo, hi = index.spans(rows.contexts[:, -j:])
            r, entries = _expand(lo, hi, V)
            # A model token's id is its word id, and each paragraph's row
            # of pos ends with the entry of id -1, so a flat index one
            # before a row still finds -1.
            pos = batch.pos.ravel()[np.repeat(row_ids, hi - lo) + index.ids[entries]]
            hit = np.flatnonzero(pos >= 0)
            writes.append((r[hit] + pos[hit], index.logs[entries[hit]]))
        return writes

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
    """The pair rows of a batch's paragraphs in one key space: each
    paragraph's pairs, with their LM logs and IDF-bigram squares, gathered
    from the tables; its source bigrams with their values; and its source
    words with their weights. The source blocks give each value twice (see
    ``_PairRows.stack``).

    Paragraph i's keys are its vocabulary positions and then BOS, from
    ``offsets[i]`` on, and the key ``offsets[-1]`` has no pairs. The pair
    and source-bigram blocks of keys are K = offsets[-1] + 1 keys apart, in
    that order; paragraph i's source words are at 2K + i, and the key
    2K + len(paras) has none. Also returns each paragraph's map from word
    id to vocabulary position (-1 outside it), one row each with a last
    entry for id -1; the gather reads it, and so does ``_context_writes``
    by model token id. Each paragraph is gathered on its own, which keeps
    the gather's scratch arrays small.
    """
    words = tables.words
    n_keys = [len(para.vocab) + 1 for para in paras]
    pos = np.stack([_inverse(p.ids, len(words.ids)) for p in paras])
    bos = words.ids[BOS]
    sources = [np.flatnonzero(p.src_uni) for p in paras]
    empty = _PairRows(np.zeros(2, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    pairs = _PairRows.stack(
        [tables.pairs.gather(np.append(p.ids, bos), row) for p, row in zip(paras, pos)]
        + [empty]
        + [p.src_bi for p in paras]
        + [empty]
        + [_PairRows(np.array([0, len(w)]), w, p.src_uni[w]) for p, w in zip(paras, sources)],
        (n_keys + [1]) * 2 + [1] * len(paras),
    )
    return np.cumsum([0] + n_keys), pairs, pos


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


def _lockstep_batches(widths: Sequence[int], beam_width: int, cells: int) -> list[range]:
    """Consecutive runs of lanes, in order, one per lockstep batch, given
    each lane's vocabulary size. A batch takes lanes while lanes x
    beam_width x its widest vocabulary stays within ``cells``, and always
    takes one."""
    batches: list[range] = []
    start, widest = 0, 0
    for i, width in enumerate(widths):
        wider = max(widest, width)
        if i > start and (i - start + 1) * beam_width * wider > cells:
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


def multiselect(
    candidates: Sequence[Hypothesis],
    source: str,
    embedder,
    idf: IdfTable | None = None,
) -> Hypothesis:
    """The candidate most similar to the source; ties keep the earliest.

    Similarity is `metrics.similarities` under the embedder, through
    `metrics.most_similar`. ``idf`` is the IDF table the candidates were
    searched with (``ConstraintTables.idf``). When the embedder is the
    built-in ``TfidfEmbedder`` over that same table, each candidate's
    ``sim_score`` is its similarity to within `metrics.similarity_bound`,
    since every search word is one canonical word (see
    ``build_candidate_vocab``), and only the candidates near the best are
    scored again. Under any other embedder, a TF-IDF one over another
    table included, every candidate is scored, in one ``embed_many``
    call.
    """
    if not candidates:
        raise ValueError("multiselect needs at least one candidate")
    texts = [h.text() for h in candidates]
    approx = None
    if type(embedder) is TfidfEmbedder and embedder.idf is idf:
        approx = [h.sim_score for h in candidates]
    return candidates[most_similar(embedder, source, texts, approx)]
