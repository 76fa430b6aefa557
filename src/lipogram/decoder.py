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
  data. ``NGramModel`` holds the frequency-ranked word list, the unigram
  log scores, each token's letter mask and every context's continuations
  as token ids with their log ratios (``ContinuationIndex``); ``IdfTable``
  holds its unigram and bigram features and each word's letter mask as
  arrays over word ids (``IdfIndex``).
- Constraint: ``ConstraintTables``, built once per constraint set and
  tail size M, holds the tail (the M most frequent legal words) with their
  ids, backoff LM scores and idf values, and the LM and IDF bigram pair
  rows among all legal words. ``Pipeline`` builds it once per translate
  call, and every search reads its constraint, model and IDF table from it.
- Paragraph: ``_BeamEngine`` keeps only what depends on the source. It
  looks up the few vocabulary words outside the tail, gathers its arrays
  and pair rows from the tables through one map from vocabulary position
  to table row, and holds the source's TF-IDF weights over the vocabulary.

Each search step works on beams x vocabulary matrices: the LM rows, the
bigram rows of each beam's last word, a unigram term-count matrix for the
sum-of-squares correction, the n-gram repeat bans read off the beams'
token-id history, and a partition-based top-k whose order equals a stable
full sort.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import textcore
from .lexicon import Lexicon, constraint_free_synonyms
from .metrics import IdfTable, cosine_similarity, embed
from .ngram import BOS, NGramModel
from .textcore import ConstraintSet, canonical, violates


class EmptyVocabulary(RuntimeError):
    """No legal candidate word survives the constraint."""


class DecodeFailure(RuntimeError):
    """The search ended with no complete hypothesis."""


MODES = ("deterministic", "sampled")

# One search step allocates about 85 bytes per beam x vocabulary cell at
# its peak (tracemalloc over whole runs at 200 x 2,007 and 50 x 5,007
# cells, both modes, numpy 2.4). The cap on beam_width x
# candidate_vocab_size keeps a step near 256 MiB.
MAX_BEAM_CELLS = 3_000_000

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

    - the tail, the M most frequent legal model words, with each word's
      model and IDF ids (-1 when absent), backoff LM score and idf;
    - the one-word-context LM continuations, and the squared IDF bigram
      values, of every pair of legal words, grouped by first word id.

    Every vocabulary word is legal, so these pairs hold every pair any
    paragraph's vocabulary can need. A paragraph adds only its few words
    outside the tail (``lookup``) and gathers the rest by position.
    """

    def __init__(self, c: ConstraintSet, model: NGramModel, idf: IdfTable, M: int):
        self.constraint = c
        self.size = M
        self.model = model
        self.idf = idf
        # The M most frequent legal model words (all of them when fewer are
        # legal), read off the ranked list by the model's letter masks.
        legal = (model.letter_masks[: len(model.ranked_words)] & c.mask) == 0
        self.words = [model.ranked_words[i] for i in np.flatnonzero(legal)[:M]]
        self.position = {w: i for i, w in enumerate(self.words)}
        self.model_ids, self.idf_ids, self.backoff, self.idf_uni = self.lookup(
            self.words
        )

        if model.order > 1:
            index = model.continuation_index
            n_tokens = len(model.tokens)
            # The extra trailing False is the entry of token id -1.
            legal = np.append((model.letter_masks & c.mask) == 0, False)
            legal[len(model.ranked_words):n_tokens] = False  # BOS and EOS
            firsts = np.append(np.flatnonzero(legal), model.token_ids[BOS])
            ctx_rows = index.token_rows[firsts]
            rows, entries = _expand(
                index.starts[ctx_rows], index.starts[ctx_rows + 1]
            )
            keep = np.flatnonzero(legal[index.ids[entries]])
            rows, entries = rows[keep], entries[keep]
            logs = index.logs[entries]
            for _ in range(model.order - 2):
                logs = math.log(model.alpha) + logs
            self.lm_pairs = _PairRows.grouped(
                n_tokens, firsts[rows], index.ids[entries], logs
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
        score and idf, as arrays.

        The backoff score is that of a word never seen after the context:
        its unigram score plus log(alpha) once per context token, added in
        token_logscore's order, so stacked sums stay bit-identical to it.
        """
        model, features = self.model, self.idf.index
        model_ids = _positions(words, model.token_ids)
        idf_ids = _positions(words, features.word_ids)
        backoff = np.full(
            len(words), math.log(1.0 / (model.total + len(model.vocabulary)))
        )
        known = model_ids >= 0
        backoff[known] = model.unigram_logscores[model_ids[known]]
        log_alpha = math.log(model.alpha)
        for _ in range(model.order - 1):
            backoff = log_alpha + backoff
        # The appended default is the idf of id -1.
        idf_uni = np.append(features.word_values, self.idf.default)[idf_ids]
        return model_ids, idf_ids, backoff, idf_uni


def top_k(rank: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k >= 1 highest entries of ``rank``, best first.

    Equal to ``np.argsort(-rank, kind="stable")`` cut after k entries and
    at the first non-finite one: ties keep index order. A partition finds
    the k-th best value, every entry that ties it is kept, and only that
    slice is sorted.
    """
    neg = -rank
    order = None
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):  # NaN only when fewer than k entries are not NaN
            keep = np.flatnonzero(neg <= kth)
            order = keep[np.argsort(neg[keep], kind="stable")][:k]
    if order is None:
        order = np.argsort(neg, kind="stable")[:k]
    finite = np.isfinite(rank[order])
    return order if finite.all() else order[: finite.argmin()]


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

    def pairs(self, firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, second, value) of every pair of each first key, where row
        is the key's index in ``firsts``."""
        rows, entries = _expand(self._starts[firsts], self._starts[firsts + 1])
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


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every index in each range lo[i]:hi[i], the pair (i, index)."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    offsets = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, offsets + np.arange(len(rows))


class _BeamEngine:
    """Vectorized synchronized-length beam search over a fixed vocabulary.

    All beams share a length at every step; ending is cost-free, so every
    surviving beam of legal length is recorded as a completed hypothesis.
    The search continues until the maximum length, or until the k-th best
    completed score beats every score a longer hypothesis could reach.

    The engine holds the paragraph-level state only: the vocabulary, the
    source's TF-IDF weights over it, and the arrays and pair rows gathered
    for its words from the ``ConstraintTables``, which also give the model
    and the IDF table. Every vocabulary word must be legal under the
    tables' constraint.
    """

    def __init__(
        self,
        source_paragraph: str,
        vocab: Sequence[str],
        cfg: DecoderConfig,
        tables: ConstraintTables,
    ):
        model, idf = tables.model, tables.idf
        self.cfg = cfg
        self.model = model
        self.vocab = list(vocab)
        self.index = {w: i for i, w in enumerate(self.vocab)}
        n_vocab = len(self.vocab)

        self.source_len = len(textcore.words(source_paragraph))
        self.min_len = math.ceil(cfg.min_ratio * self.source_len)
        self.max_len = math.floor(cfg.max_ratio * self.source_len)

        # Each vocabulary word's row in the tail arrays, or past them in the
        # arrays of the few words outside the tail, looked up here.
        at = _positions(self.vocab, tables.position)
        outside = np.flatnonzero(at < 0)
        extra = [self.vocab[i] for i in outside]
        illegal = [w for w in extra if violates(w, tables.constraint)]
        if illegal:
            raise ValueError(
                f"vocabulary words {illegal!r} break the tables' constraint"
            )
        at[outside] = len(tables.words) + np.arange(len(outside))
        model_ids, idf_ids, backoff, idf_uni = (
            np.concatenate((whole, part))[at]
            for whole, part in zip(
                (tables.model_ids, tables.idf_ids, tables.backoff, tables.idf_uni),
                tables.lookup(extra),
            )
        )

        self._model_pos = _inverse(model_ids, len(model.tokens))
        self._log_alpha = math.log(model.alpha)
        self._backoff_vec = backoff  # the score of a word unseen after the context
        if model.order > 1:
            firsts = np.append(model_ids, model.token_ids[BOS])
            self._lm_bigrams = tables.lm_pairs.gather(firsts, self._model_pos)

        # Similarity machinery: the source's normalized TF-IDF weights and
        # per-token idf arrays for incremental dot/sum-of-squares updates.
        self.source_vec = embed(source_paragraph, idf)
        src = self.source_vec.weights
        self._idf_uni = idf_uni
        self._idf_uni_sq = self._idf_uni**2
        self._bigram_sq = tables.bigram_sq.gather(
            idf_ids, _inverse(idf_ids, len(idf.index.word_ids))
        )
        self._default_sq = idf.default**2
        self._src_uni = np.zeros(n_vocab)
        src_firsts, src_seconds, src_values = [], [], []
        for feat, weight in src.items():
            first, sep, second = feat.partition(" ")
            if not sep:
                if feat in self.index:
                    self._src_uni[self.index[feat]] = weight * idf.value(feat)
            elif first in self.index and second in self.index:
                src_firsts.append(self.index[first])
                src_seconds.append(self.index[second])
                src_values.append(weight * idf.value(feat))
        self._src_bi = _PairRows.group(n_vocab, src_firsts, src_seconds, src_values)

    def _lm_rows(self, beam_tokens: list[tuple[str, ...]], last: np.ndarray) -> np.ndarray:
        """Backoff LM scores of every vocabulary word after each beam.

        ``last`` holds each beam's last vocabulary position, or n_vocab for
        an empty beam. Every score starts as the unigram fallback; then the
        words attested after each longer suffix of the context overwrite
        it, the one-word suffix from the table built at set-up.
        """
        mat = np.repeat(self._backoff_vec[None, :], len(last), axis=0)
        if self.model.order > 1:
            rows, pos, logs = self._lm_bigrams.pairs(last)
            mat[rows, pos] = logs
        span = self.model.order - 1
        pad = (BOS,) * max(0, span - len(beam_tokens[0]))
        for j in range(2, span + 1):
            contexts = [(pad + tokens)[-j:] for tokens in beam_tokens]
            rows, pos, logs = self._continuations(contexts)
            mat[rows, pos] = logs
        return mat

    def _continuations(self, contexts: list[tuple[str, ...]]):
        """(row, vocabulary position, score) of every vocabulary word
        attested after each context of one length, as arrays.

        The score is the model's log ratio plus log(alpha) once for each
        context token the full LM context has beyond these: the value
        token_logscore reaches for that word, added in the same order.
        """
        index = self.model.continuation_index
        rows, entries = _expand(*index.spans(contexts))
        pos = self._model_pos[index.ids[entries]]
        hit = pos >= 0
        logs = index.logs[entries[hit]]
        for _ in range(self.model.order - 1 - len(contexts[0])):
            logs = self._log_alpha + logs
        return rows[hit], pos[hit], logs

    def _repeat_bans(self, history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(beam, token) pairs that would repeat an n-gram of the beam.

        A token is banned when the beam's last n-1 tokens already occurred
        followed by it.
        """
        n = self.cfg.no_repeat_ngram
        length = history.shape[1]
        if length < n:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        starts = length - n + 1
        match = np.ones((len(history), starts), dtype=bool)
        for k in range(n - 1):
            match &= history[:, k:starts + k] == history[:, starts + k, None]
        beams, at = np.nonzero(match)
        return beams, history[beams, at + n - 1]

    def _follower_counts(self, history: np.ndarray):
        """Each beam's bigrams (last token, w) so far, as the arrays beam,
        w and count."""
        n_vocab = len(self.vocab)
        beams, at = np.nonzero(history[:, :-1] == history[:, -1:])
        keys, counts = np.unique(
            beams * n_vocab + history[beams, at + 1], return_counts=True
        )
        return keys // n_vocab, keys % n_vocab, counts

    def run(
        self, k: int, rng: np.random.Generator | None = None
    ) -> list[Hypothesis]:
        """The k best completed hypotheses, by combined score desc, then
        tokens; with ``rng``, beams are picked under Gumbel noise.

        The search stops before the maximum length once no later
        hypothesis can enter the top k. A step's LM row is <= 0 and its
        similarity is clipped to [0, 1], so every descendant of the
        surviving beams scores at most lambda_lm * max(beam LM) +
        lambda_sim, and IEEE rounding keeps that order for the computed
        values. The stop needs that bound strictly below the k-th best
        pooled score, so a tie that the token order could still break
        never ends the search.
        """
        cfg = self.cfg
        n_vocab = len(self.vocab)
        if self.max_len < self.min_len:
            raise DecodeFailure(
                f"no legal output length: min {self.min_len} > max {self.max_len}"
            )

        beam_tokens: list[tuple[str, ...]] = [()]
        history = np.empty((1, 0), dtype=np.intp)  # vocab positions
        beam_lm = beam_dot = beam_ssq = np.zeros(1)
        uni_tf = np.zeros((1, n_vocab), dtype=np.intp)
        pool: list[Hypothesis] = []
        top: list[float] = []  # the k best pooled combined scores, desc

        for step in range(1, self.max_len + 1):
            last = history[:, -1] if step > 1 else np.array([n_vocab])
            lm_mat = self._lm_rows(beam_tokens, last)
            lm_mat += beam_lm[:, None]
            dot_mat = beam_dot[:, None] + self._src_uni
            ssq_mat = beam_ssq[:, None] + self._idf_uni_sq
            if step > 1:
                bigram_sq = np.full_like(ssq_mat, self._default_sq)
                rows, seconds, values = self._bigram_sq.pairs(last)
                bigram_sq[rows, seconds] = values
                ssq_mat += bigram_sq
                # Source bigrams are sparse; everywhere else the term is 0.
                rows, seconds, values = self._src_bi.pairs(last)
                dot_mat[rows, seconds] += values
            # Repeated-feature corrections: tf goes k -> k+1, adding
            # idf^2 * 2k on top of the fresh-feature idf^2 baseline.
            ssq_mat += self._idf_uni_sq * (2 * uni_tf)
            if step > 1:
                beams, words, counts = self._follower_counts(history)
                ssq_mat[beams, words] += bigram_sq[beams, words] * (2 * counts)

            sim_mat = np.sqrt(ssq_mat)
            np.divide(dot_mat, sim_mat, out=sim_mat)
            np.clip(sim_mat, 0.0, 1.0, out=sim_mat)
            comb_mat = cfg.lambda_lm * lm_mat + cfg.lambda_sim * sim_mat
            comb_mat[self._repeat_bans(history)] = -np.inf

            if rng is None:
                rank = comb_mat.ravel()
            else:
                rank = (comb_mat / cfg.temperature).ravel()
                rank = rank + rng.gumbel(size=rank.shape)
            picks = top_k(rank, cfg.beam_width)
            if not len(picks):
                break

            beams, words = np.divmod(picks, n_vocab)
            beam_tokens = [
                beam_tokens[b] + (self.vocab[t],)
                for b, t in zip(beams.tolist(), words.tolist())
            ]
            history = np.column_stack((history[beams], words))
            beam_lm = lm_mat[beams, words]
            beam_dot = dot_mat[beams, words]
            beam_ssq = ssq_mat[beams, words]
            uni_tf = uni_tf[beams]
            uni_tf[np.arange(len(picks)), words] += 1
            if step >= self.min_len:
                combined = comb_mat[beams, words].tolist()
                pool.extend(map(
                    Hypothesis,
                    beam_tokens,
                    beam_lm.tolist(),
                    sim_mat[beams, words].tolist(),
                    combined,
                ))
                top = heapq.nlargest(k, top + combined)
                if len(top) == k and (
                    cfg.lambda_lm * beam_lm.max() + cfg.lambda_sim < top[-1]
                ):
                    break

        if not pool:
            raise DecodeFailure(
                f"no hypothesis completed (lengths {self.min_len}..{self.max_len})"
            )
        pool.sort(key=lambda h: (-h.combined, h.tokens))
        return pool[:k]


def _positions(words: Sequence[str], ids: Mapping[str, int]) -> np.ndarray:
    """Each word's id in ``ids``, -1 when absent."""
    return np.fromiter(map(ids.get, words, repeat(-1)), dtype=np.intp, count=len(words))


def _inverse(word_ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Map from id to vocabulary position, -1 for ids outside the vocabulary.

    It has one extra trailing -1, so an id of -1 maps to -1 as well.
    """
    pos = np.full(n_ids + 1, -1, dtype=np.intp)
    known = word_ids >= 0
    pos[word_ids[known]] = np.flatnonzero(known)
    return pos


def beam_search(
    source_paragraph: str,
    tables: ConstraintTables,
    cfg: DecoderConfig,
    lex: Lexicon,
) -> list[Hypothesis]:
    """Decode one paragraph; top candidates sorted by combined score.

    The constraint, the model and the IDF table come from ``tables``, built
    once per constraint set with tail size ``cfg.candidate_vocab_size``. The
    in-search similarity term always uses the built-in TF-IDF features of
    that IDF table (it needs feature-level access for incremental updates);
    a remote embedder belongs in multiselect and evaluation instead.
    """
    if not textcore.words(source_paragraph):
        raise ValueError("source paragraph has no words")
    if tables.size != cfg.candidate_vocab_size:
        raise ValueError(
            f"the tables were built for a tail of M = {tables.size} words, "
            f"but candidate_vocab_size is {cfg.candidate_vocab_size}"
        )
    vocab = build_candidate_vocab(source_paragraph, tables, lex)
    engine = _BeamEngine(source_paragraph, vocab, cfg, tables)

    if cfg.mode == "deterministic":
        return engine.run(cfg.candidates_k)

    winners = []
    for i in range(cfg.candidates_k):
        rng = np.random.default_rng([cfg.seed, i])
        try:
            winners.append(engine.run(1, rng)[0])
        except DecodeFailure:
            pass
    if not winners:
        raise DecodeFailure(
            f"all {cfg.candidates_k} sampled runs failed to complete"
        )
    winners.sort(key=lambda h: (-h.combined, h.tokens))
    return winners


def multiselect(candidates: Sequence[Hypothesis], source: str, embedder) -> Hypothesis:
    """The candidate most similar to the source; ties keep the earliest."""
    if not candidates:
        raise ValueError("multiselect needs at least one candidate")
    vectors = embedder.embed_many([source] + [h.text() for h in candidates])
    source_vec = vectors[0]
    best = None
    best_sim = -1.0
    for candidate, vec in zip(candidates, vectors[1:]):
        sim = cosine_similarity(source_vec, vec)
        if sim > best_sim:
            best_sim = sim
            best = candidate
    return best
