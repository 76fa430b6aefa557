"""Word-level backoff n-gram language model with a text serialization.

The model scores tokens with stupid backoff: use the relative frequency of
the longest attested n-gram, otherwise pay a fixed log(alpha) penalty and
retry with a shorter context, bottoming out in a unigram floor with add-one
for unseen tokens. Scores are log-ratios, not normalized log-probabilities,
which is all the beam search needs for ranking.

Training counts lowercased word tokens per paragraph, padding each paragraph
with order-1 leading ``<s>`` markers and one trailing ``</s>``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import textcore
from .textcore import split_paragraphs

BOS = "<s>"
EOS = "</s>"

DEFAULT_ORDER = 3
DEFAULT_ALPHA = 0.4

_HEADER_RE = re.compile(r"NGRAM-LM v1 order=(\d+) alpha=([0-9.eE+-]+)\Z")


@dataclass
class NGramModel:
    """Immutable-by-convention n-gram counts plus backoff weight.

    ``tables[k-1]`` maps k-token tuples to counts. The unigram table always
    exists; higher tables are present up to ``order``.
    """

    order: int
    alpha: float
    tables: tuple[dict[tuple[str, ...], int], ...]
    vocabulary: frozenset[str] = field(repr=False)

    @cached_property
    def total(self) -> int:
        """Summed unigram count (the denominator of the unigram floor)."""
        return sum(self.tables[0].values())

    @cached_property
    def ranked_words(self) -> tuple[str, ...]:
        """Unigram words by count desc, then alphabetically; no BOS/EOS."""
        uni = self.tables[0]
        return tuple(
            word
            for _, word in sorted(
                (-count, word)
                for (word,), count in uni.items()
                if word not in (BOS, EOS)
            )
        )

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """Every vocabulary token once: ``ranked_words``, then the rest
        (BOS, EOS) sorted. A token's position here is its id."""
        rest = self.vocabulary.difference(self.ranked_words)
        return self.ranked_words + tuple(sorted(rest))

    @cached_property
    def token_ids(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}

    @cached_property
    def backoff_logscores(self) -> np.ndarray:
        """``token_logscore`` of every token after a full context that was
        never seen, in id order, then that of a token outside the
        vocabulary (the entry of id -1). The empty string is neither a
        token nor part of any gram, so it stands for both unseen words."""
        unseen = ("",) * (self.order - 1)
        return np.array([self._score(unseen, t) for t in self.tokens + ("",)])

    @cached_property
    def continuation_index(self) -> "ContinuationIndex":
        """The continuations of every attested context, as flat arrays."""
        size = sum(len(table) for table in self.tables[1:])
        ids = np.empty(size, dtype=np.intp)
        logs = np.empty(size)
        rows: dict[tuple[str, ...], int] = {}  # only while building
        radix = len(self.tokens) + 1
        keys: list[list[int]] = [[] for _ in range(self.order - 2)]
        key_rows: list[list[int]] = [[] for _ in range(self.order - 2)]
        starts: list[int] = []  # each row's first entry
        n = 0
        token_rows = np.full(len(self.tokens) + 1, -1, dtype=np.intp)
        log_alpha = math.log(self.alpha)
        for k in range(2, self.order + 1):
            table, prefixes = self.tables[k - 1], self.tables[k - 2]
            # Sorted grams come grouped by context, in context order. Every
            # gram's context is attested with a positive count (``train``
            # and ``load`` guarantee it), so each group opens a row.
            ctx = None
            for gram in sorted(table):
                if gram[:-1] != ctx:
                    ctx = gram[:-1]
                    c_ctx = prefixes[ctx]
                    row = rows[ctx] = len(starts)
                    starts.append(n)
                    if k == 2:
                        token_rows[self.token_ids[ctx[0]]] = row
                    else:
                        keys[k - 3].append(
                            rows[ctx[:-1]] * radix + self.token_ids.get(ctx[-1], -1) + 1
                        )
                        key_rows[k - 3].append(row)
                ids[n] = self.token_ids.get(gram[-1], -1)
                score = math.log(table[gram] / c_ctx)
                for _ in range(self.order - k):
                    score = log_alpha + score
                logs[n] = score
                n += 1
        starts += [n, n]  # the end of the last row, and the empty row
        empty = len(starts) - 2
        token_rows[token_rows < 0] = empty
        key_tables = []
        for j_keys, j_rows in zip(keys, key_rows):
            j_keys = np.array(j_keys, dtype=np.int64)
            by_key = np.argsort(j_keys)
            # A sentinel above every key keeps searchsorted in range.
            key_tables.append((
                np.append(j_keys[by_key], np.iinfo(np.int64).max),
                np.append(np.array(j_rows, dtype=np.intp)[by_key], empty),
            ))
        return ContinuationIndex(
            np.array(starts), ids, logs, token_rows, tuple(key_tables)
        )

    def count(self, gram: Sequence[str]) -> int:
        key = tuple(gram)
        if not 1 <= len(key) <= self.order:
            return 0
        return self.tables[len(key) - 1].get(key, 0)

    def continuations(self, context: Sequence[str]) -> Mapping[str, int]:
        """All attested next tokens after ``context`` with their full-gram
        counts. Empty mapping when the context itself is unattested."""
        key = tuple(context)
        if not 1 <= len(key) < self.order:
            return {}
        index = self.continuation_index
        (lo,), (hi,) = index.spans(self.context_ids([key]))
        return {
            self.tokens[i]: self.tables[len(key)][key + (self.tokens[i],)]
            for i in index.ids[lo:hi]
            if i >= 0
        }

    def context_ids(self, contexts: Sequence[Sequence[str]]) -> np.ndarray:
        """Token ids of equal-length contexts, one row each; -1 for a
        token outside the vocabulary."""
        get = self.token_ids.get
        return np.array(
            [[get(t, -1) for t in ctx] for ctx in contexts], dtype=np.intp
        ).reshape(len(contexts), -1)

    def token_logscore(self, context: Sequence[str], token: str) -> float:
        """Stupid-backoff log score of ``token`` after ``context``.

        Only the last order-1 context tokens matter. Always <= 0.
        """
        if self.order > 1:
            ctx = tuple(context[-(self.order - 1):])
        else:
            ctx = ()
        return self._score(ctx, token)

    def _score(self, ctx: tuple[str, ...], token: str) -> float:
        if ctx:
            full = ctx + (token,)
            c_full = self.tables[len(full) - 1].get(full, 0)
            if c_full:
                c_ctx = self.tables[len(ctx) - 1].get(ctx, 0)
                if c_ctx:
                    return math.log(c_full / c_ctx)
            return math.log(self.alpha) + self._score(ctx[1:], token)
        c_uni = self.tables[0].get((token,), 0)
        if c_uni:
            return math.log(c_uni / self.total)
        return math.log(1.0 / (self.total + len(self.vocabulary)))

    def sequence_logscore(self, tokens: Sequence[str]) -> float:
        """Sum of per-token scores with left-padded boundary context."""
        history: list[str] = [BOS] * (self.order - 1)
        total = 0.0
        for token in tokens:
            total += self.token_logscore(history, token)
            history.append(token)
        return total

    def save(self, path: str | Path) -> None:
        """Write the model as text, one section per order, deterministic."""
        lines = [f"NGRAM-LM v1 order={self.order} alpha={self.alpha!r}"]
        for k in range(1, self.order + 1):
            table = self.tables[k - 1]
            for gram in sorted(table):
                lines.append(f"{table[gram]}\t{' '.join(gram)}")
            if k < self.order:
                lines.append("")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ContinuationIndex:
    """Attested continuations of every context of length 1..order-1.

    The tokens seen after a context are entries ``starts[r]:starts[r + 1]``
    of ``ids`` (token ids, -1 outside the vocabulary) and ``logs``, where
    r is the context's row. A log is the score ``token_logscore`` gives t
    after a full (order - 1 token) context whose longest suffix seen
    before t is this context: log(c(context + t) / c(context)) plus
    log(alpha) once per context token beyond it, added in its order, so
    the stored value is bit-identical to that score. Rows are ordered by
    context length, then context; each attested context with a
    continuation has one, built in one pass over the sorted grams of its
    order. Row ``len(starts) - 2`` is empty and stands for every
    unattested context.

    Contexts are found by token id. ``token_rows[i]`` is the row of the
    one-token context of token id i; its last entry, the row of id -1, is
    the empty one. A longer context is keyed by its prefix's row and its
    last token: ``keys[j - 2]`` holds the sorted int64 keys
    ``row(prefix) * (len(tokens) + 1) + id(last) + 1`` of every attested
    context of length j, then a sentinel, and ``key_rows[j - 2]`` their
    rows. The prefix of an attested context is attested, so one
    ``searchsorted`` per extra token finds any context.
    """

    starts: np.ndarray
    ids: np.ndarray
    logs: np.ndarray
    token_rows: np.ndarray
    key_tables: tuple[tuple[np.ndarray, np.ndarray], ...]

    def context_rows(self, contexts: np.ndarray) -> np.ndarray:
        """The row of each context, given as one row of token ids each
        (-1 outside the vocabulary); unattested contexts get the empty row."""
        rows = self.token_rows[contexts[:, 0]]
        radix = len(self.token_rows)
        for j in range(1, contexts.shape[1]):
            keys, key_rows = self.key_tables[j - 1]
            wanted = rows * radix + (contexts[:, j] + 1)
            at = np.searchsorted(keys, wanted)
            rows = np.where(keys[at] == wanted, key_rows[at], len(self.starts) - 2)
        return rows

    def spans(self, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end entry of each context's continuations (contexts
        as in ``context_rows``); an unattested context gets an empty span."""
        rows = self.context_rows(contexts)
        return self.starts[rows], self.starts[rows + 1]


def train(corpus: str, order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA) -> NGramModel:
    """Count n-grams of every order up to ``order`` over the corpus.

    Each paragraph is one unit: its lowercased words are padded with order-1
    leading BOS markers and a trailing EOS, and every sliding window of every
    order is counted, so each attested n-gram's prefix is attested too.
    """
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in [1, 5], got {order}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not corpus.strip():
        raise ValueError("corpus is empty")

    counters = [Counter() for _ in range(order)]
    saw_words = False
    for paragraph in split_paragraphs(corpus):
        words = textcore.canonical_words(paragraph)
        if not words:
            continue
        saw_words = True
        padded = [BOS] * (order - 1) + words + [EOS]
        for k in range(1, order + 1):
            table = counters[k - 1]
            for i in range(len(padded) - k + 1):
                table[tuple(padded[i:i + k])] += 1
    if not saw_words:
        raise ValueError("corpus contains no word tokens")

    vocabulary = {gram[0] for gram in counters[0]} | {BOS, EOS}
    return NGramModel(
        order=order,
        alpha=alpha,
        tables=tuple(dict(c) for c in counters),
        vocabulary=frozenset(vocabulary),
    )


def load(path: str | Path) -> NGramModel:
    """Parse a saved model; malformed or truncated files raise ValueError."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text:
        raise ValueError(f"{path}: empty model file")
    header, sep, body = text.partition("\n")
    if not sep:
        raise ValueError(f"{path}: missing model body")
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(f"{path}: bad header {header!r} (expected NGRAM-LM v1)")
    order = int(m.group(1))
    if order < 1:
        raise ValueError(f"{path}: order must be >= 1, got {order}")
    try:
        alpha = float(m.group(2))
    except ValueError:
        raise ValueError(f"{path}: bad alpha {m.group(2)!r}") from None
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"{path}: alpha must be in (0, 1], got {alpha}")

    sections = body.rstrip("\n").split("\n\n")
    if len(sections) != order:
        raise ValueError(
            f"{path}: expected {order} sections, found {len(sections)} "
            "(truncated file?)"
        )
    tables: list[dict[tuple[str, ...], int]] = []
    for k, section in enumerate(sections, start=1):
        table: dict[tuple[str, ...], int] = {}
        for line in section.splitlines():
            count_str, tab, gram_str = line.partition("\t")
            if not tab:
                raise ValueError(f"{path}: malformed line {line!r}")
            try:
                count = int(count_str)
            except ValueError:
                raise ValueError(f"{path}: bad count in line {line!r}") from None
            if count < 1:
                raise ValueError(f"{path}: nonpositive count in line {line!r}")
            gram = tuple(gram_str.split(" "))
            if len(gram) != k or not all(gram):
                raise ValueError(
                    f"{path}: expected a {k}-gram, got {gram_str!r}"
                )
            if gram in table:
                raise ValueError(f"{path}: duplicate {k}-gram {gram_str!r}")
            table[gram] = count
        if not table:
            raise ValueError(f"{path}: empty section for order {k}")
        tables.append(table)

    _check_integrity(path, order, tables)
    vocabulary = {gram[0] for gram in tables[0]} | {BOS, EOS}
    return NGramModel(
        order=order,
        alpha=alpha,
        tables=tuple(tables),
        vocabulary=frozenset(vocabulary),
    )


def _check_integrity(
    path: Path, order: int, tables: list[dict[tuple[str, ...], int]]
) -> None:
    """Reject files whose tables cannot have come from ``train``.

    Training counts canonical words (``textcore.canonical_words``) and the
    BOS and EOS markers, so every other token must be one canonical word:
    the decoder searches each token as one word. Training also counts
    every sliding window over each padded paragraph, so the summed counts
    of consecutive orders differ by exactly the number of paragraphs,
    which is also the unigram count of the EOS marker. A file truncated at
    a line boundary parses but fails this balance. Every higher-order gram
    must also have an attested prefix counted at least as often as the
    gram itself, which keeps every score <= 0.
    """
    tokens = {token for table in tables for gram in table for token in gram}
    for token in sorted(tokens - {BOS, EOS}):
        if textcore.canonical_words(token) != [token]:
            raise ValueError(
                f"{path}: token {token!r} is not one lowercase word "
                "(training makes no such token)"
            )
    if order < 2:
        return
    paragraphs = tables[0].get((EOS,), 0)
    if paragraphs < 1:
        raise ValueError(f"{path}: missing {EOS} unigram")
    sums = [sum(t.values()) for t in tables]
    for k in range(2, order + 1):
        if sums[k - 2] - sums[k - 1] != paragraphs:
            raise ValueError(
                f"{path}: inconsistent counts between orders {k - 1} and {k} "
                "(truncated file?)"
            )
        for gram, count in tables[k - 1].items():
            prefix = tables[k - 2].get(gram[:-1], 0)
            if not prefix:
                raise ValueError(
                    f"{path}: {k}-gram {' '.join(gram)!r} lacks an attested prefix"
                )
            if count > prefix:
                raise ValueError(
                    f"{path}: {k}-gram {' '.join(gram)!r} is counted {count} "
                    f"times, more than its prefix's {prefix}"
                )
