"""Constrained beam-search paraphraser over an n-gram model.

The constraint is enforced by construction: the search expands only over a
pre-filtered allow-list of legal words, so no output can ever violate it.
Each expansion is scored by a weighted mix of the backoff LM score and the
TF-IDF cosine similarity of the partial hypothesis to the source paragraph;
the similarity term is maintained incrementally so every candidate token of
every beam is scored per step without re-embedding.

Hypotheses may terminate cost-free once the minimum length is reached and
are force-terminated at the maximum length; the returned candidates are the
top completions of a single run (deterministic mode) or the winners of K
independently seeded Gumbel-noise runs (sampled mode).

Set-up is done once at the level where its data lives:

- Corpus: built lazily on first use and cached on the object that owns the
  data. ``NGramModel`` holds the frequency-ranked word list, the unigram
  log scores and every context's continuations as token ids with their
  log ratios (``ContinuationIndex``); ``IdfTable`` holds its unigram and
  bigram features as arrays over word ids (``IdfIndex``).
- Constraint: ``build_candidate_vocab`` reads the M most frequent legal
  words off the ranked list, stopping at the M-th.
- Paragraph: ``_BeamEngine`` keeps only what depends on the source: the
  vocabulary, the source's TF-IDF weights over it, and maps from
  vocabulary positions to model and IDF word ids, through which LM and
  bigram rows are scattered from the corpus-level arrays.

Each search step works on beams x vocabulary matrices: the LM rows, the
bigram rows of each beam's last word, a unigram term-count matrix for the
sum-of-squares correction, the n-gram repeat bans read off the beams'
token-id history, and a partition-based top-k whose order equals a stable
full sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .lexicon import Lexicon, constraint_free_synonyms
from .metrics import IdfTable, TfidfEmbedder, cosine_similarity, embed
from .ngram import BOS, NGramModel
from .textcore import ConstraintSet, canonical, tokenize, violates


class EmptyVocabulary(RuntimeError):
    """No legal candidate word survives the constraint."""


class DecodeFailure(RuntimeError):
    """The search ended with no complete hypothesis."""


MODES = ("deterministic", "sampled")

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
    source_paragraph: str,
    c: ConstraintSet,
    lex: Lexicon,
    m: NGramModel,
    M: int,
) -> list[str]:
    """Legal words for the search, in deterministic priority order.

    Source words that pass the constraint come first (source order), then
    constraint-free synonyms of every source word, then the M most frequent
    legal model-vocabulary words (count desc, then alphabetical).
    """
    ordered: list[str] = []
    seen: set[str] = set()

    def add(word: str) -> None:
        if word not in seen:
            seen.add(word)
            ordered.append(word)

    source_words = list(
        dict.fromkeys(canonical(w) for w in tokenize(source_paragraph).words())
    )
    for word in source_words:
        if not violates(word, c):
            add(word)
    for word in source_words:
        for synonym in constraint_free_synonyms(word, c, lex):
            add(canonical(synonym))
    taken = 0
    for word in m.ranked_words:
        if taken == M:
            break
        if not violates(word, c):
            add(word)
            taken += 1

    if not ordered:
        raise EmptyVocabulary(
            f"no legal candidate words under letters {c.as_string()!r}"
        )
    return ordered


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
    """Values at (first, second) pairs of small-int keys, grouped by first."""

    def __init__(self, n_firsts: int, firsts, seconds, values):
        firsts = np.asarray(firsts, dtype=np.intp)
        order = np.argsort(firsts, kind="stable")
        self._starts = np.concatenate(
            ([0], np.cumsum(np.bincount(firsts, minlength=n_firsts)))
        )
        self._seconds = np.asarray(seconds, dtype=np.intp)[order]
        self._values = np.asarray(values, dtype=float)[order]

    def pairs(self, firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, second, value) of every pair of each first key, where row
        is the key's index in ``firsts``."""
        rows, entries = _expand(self._starts[firsts], self._starts[firsts + 1])
        return rows, self._seconds[entries], self._values[entries]


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every index in each range lo[i]:hi[i], the pair (i, index)."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    offsets = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, offsets + np.arange(len(rows))


class _BeamEngine:
    """Vectorized synchronized-length beam search over a fixed vocabulary.

    All beams share a length at every step; ending is cost-free, so every
    surviving beam of legal length is recorded as a completed hypothesis
    and the search simply continues to the maximum length.

    The engine holds the paragraph-level state only: the vocabulary, the
    source's TF-IDF weights over it, and the maps from vocabulary positions
    to the model's and the IDF table's word ids, through which LM rows and
    bigram rows are scattered from the corpus-level indexes.
    """

    def __init__(
        self,
        source_paragraph: str,
        vocab: Sequence[str],
        cfg: DecoderConfig,
        model: NGramModel,
        idf: IdfTable,
    ):
        self.cfg = cfg
        self.model = model
        self.idf = idf
        self.vocab = list(vocab)
        self.index = {w: i for i, w in enumerate(self.vocab)}
        n_vocab = len(self.vocab)

        source_words = [canonical(w) for w in tokenize(source_paragraph).words()]
        self.source_len = len(source_words)
        self.min_len = math.ceil(cfg.min_ratio * self.source_len)
        self.max_len = math.floor(cfg.max_ratio * self.source_len)

        # Unigram LM score vector; the corpus-level scores come from math.log,
        # so stacked backoff sums stay bit-identical to token_logscore.
        model_ids = _positions(self.vocab, model.token_ids)
        known = model_ids >= 0
        base = np.full(
            n_vocab, math.log(1.0 / (model.total + len(model.vocabulary)))
        )
        base[known] = model.unigram_logscores[model_ids[known]]
        self._model_pos = _inverse(model_ids, len(model.tokens))
        self._log_alpha = math.log(model.alpha)
        for _ in range(model.order - 1):
            base = self._log_alpha + base
        self._backoff_vec = base  # the score of a word unseen after the context
        if model.order > 1:
            self._lm_bigrams = _PairRows(
                n_vocab + 1, *self._continuations([(w,) for w in self.vocab] + [(BOS,)])
            )

        # Similarity machinery: the source's normalized TF-IDF weights and
        # per-token idf arrays for incremental dot/sum-of-squares updates.
        self.source_vec = embed(source_paragraph, idf)
        src = self.source_vec.weights
        features = idf.index
        idf_ids = _positions(self.vocab, features.word_ids)
        self._idf_uni = np.where(
            idf_ids >= 0, features.word_values[idf_ids], idf.default
        )
        self._idf_uni_sq = self._idf_uni**2
        idf_pos = _inverse(idf_ids, len(features.word_ids))
        firsts = idf_pos[features.bigram_firsts]
        seconds = idf_pos[features.bigram_seconds]
        inside = (firsts >= 0) & (seconds >= 0)
        values = features.bigram_values[inside]
        self._bigram_sq = _PairRows(
            n_vocab, firsts[inside], seconds[inside], values * values
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
        self._src_bi = _PairRows(n_vocab, src_firsts, src_seconds, src_values)

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

    def run(self, rng: np.random.Generator | None = None) -> list[Hypothesis]:
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
                pool.extend(map(
                    Hypothesis,
                    beam_tokens,
                    beam_lm.tolist(),
                    sim_mat[beams, words].tolist(),
                    comb_mat[beams, words].tolist(),
                ))

        if not pool:
            raise DecodeFailure(
                f"no hypothesis completed (lengths {self.min_len}..{self.max_len})"
            )
        pool.sort(key=lambda h: (-h.combined, h.tokens))
        return pool


def _positions(words: Sequence[str], ids: Mapping[str, int]) -> np.ndarray:
    """Each word's id in ``ids``, -1 when absent."""
    return np.array([ids.get(w, -1) for w in words], dtype=np.intp)


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
    c: ConstraintSet,
    cfg: DecoderConfig,
    m: NGramModel,
    lex: Lexicon,
    embedder: TfidfEmbedder,
) -> list[Hypothesis]:
    """Decode one paragraph; top candidates sorted by combined score.

    The in-search similarity term always uses the built-in TF-IDF embedder
    (it needs feature-level access for incremental updates); a remote
    embedder belongs in multiselect and evaluation instead.
    """
    if not isinstance(embedder, TfidfEmbedder):
        raise TypeError(
            "beam_search requires the built-in TF-IDF embedder; "
            "remote embedders apply only to selection and evaluation"
        )
    if not tokenize(source_paragraph).words():
        raise ValueError("source paragraph has no words")
    vocab = build_candidate_vocab(
        source_paragraph, c, lex, m, cfg.candidate_vocab_size
    )
    engine = _BeamEngine(source_paragraph, vocab, cfg, m, embedder.idf)

    if cfg.mode == "deterministic":
        pool = engine.run()
        return pool[: cfg.candidates_k]

    winners = []
    for i in range(cfg.candidates_k):
        rng = np.random.default_rng([cfg.seed, i])
        try:
            winners.append(engine.run(rng)[0])
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
