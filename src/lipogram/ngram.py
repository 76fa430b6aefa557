"""Word-level backoff n-gram language model with a text serialization.

The model scores tokens with stupid backoff (Brants et al., 2007). The
score of token t after a context h, of which only the last order-1 tokens
count, is

    S(t | h)  = log(c(h t) / c(h))          if h is not empty and c(h t) > 0
    S(t | h)  = log(alpha) + S(t | h[1:])   if h is not empty and c(h t) = 0
    S(t | ()) = log(c(t) / T)               if c(t) > 0
    S(t | ()) = log(1 / (T + V))            otherwise

where c counts n-grams, T is the summed unigram count and V the vocabulary
size, BOS and EOS included. Each log(alpha) is added to the shorter
context's score, so repeated backoff is right-associated. Scores are
log-ratios, never above 0, not normalized log-probabilities, which is all
the beam search needs for ranking. The model holds them as arrays
(``backoff_logscores``, ``continuation_index``), which the decoder reads.

Training counts lowercased word tokens per paragraph, padding each paragraph
with order-1 leading ``<s>`` markers and one trailing ``</s>``. The counts
are held as sorted int64 arrays (see ``NGramModel``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import textcore

BOS = "<s>"
EOS = "</s>"

DEFAULT_ORDER = 3
MAX_ORDER = 5  # the highest order ``train`` counts
DEFAULT_ALPHA = 0.4

_HEADER_RE = re.compile(r"NGRAM-LM v1 order=(\d+) alpha=([0-9.eE+-]+)\Z")


@dataclass(eq=False)
class NGramModel:
    """Immutable-by-convention n-gram counts plus backoff weight.

    ``words`` is every token of any gram, and BOS and EOS, sorted; a
    token's number is its position there. ``keys[k-1]`` holds the sorted
    keys of the k-grams and ``counts[k-1]`` their counts. A unigram's key
    is its number, and a k-gram's is (rank of its prefix among the sorted
    (k-1)-grams) x len(words) + (number of its last token), so keys sort
    as the grams' string tuples do and stay below (number of grams) x
    len(words). Each order has a gram, and each gram's prefix is a gram.
    """

    order: int
    alpha: float
    words: tuple[str, ...] = field(repr=False)
    keys: tuple[np.ndarray, ...] = field(repr=False)
    counts: tuple[np.ndarray, ...] = field(repr=False)

    @cached_property
    def total(self) -> int:
        """Summed unigram count (the denominator of the unigram floor)."""
        return sum(self.counts[0].tolist())

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """Every vocabulary token once: ``ranked_words``, then the rest
        (BOS, EOS) sorted. A token's position here is its id."""
        uni, markers = self.keys[0], np.searchsorted(self.words, [EOS, BOS])
        ranked = uni[np.lexsort((uni, -self.counts[0]))]
        order = np.append(ranked[~np.isin(ranked, markers)], markers)
        return tuple(self.words[i] for i in order.tolist())

    @cached_property
    def _word_tokens(self) -> np.ndarray:
        """The token id of each word number, -1 outside the vocabulary."""
        ids = np.full(len(self.words), -1, dtype=np.intp)
        ids[np.searchsorted(self.words, self.tokens)] = np.arange(len(self.tokens))
        return ids

    @cached_property
    def ranked_words(self) -> tuple[str, ...]:
        """Unigram words by count desc, then alphabetically; no BOS/EOS."""
        return self.tokens[:-2]

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.tokens)

    @cached_property
    def token_ids(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}

    @cached_property
    def backoff_logscores(self) -> np.ndarray:
        """The score S (module docstring) of every token after a full
        context that was never seen, in id order, then that of a token
        outside the vocabulary (the entry of id -1): its unigram score with
        log(alpha) added order-1 times, right-associated."""
        counts = np.zeros(len(self.tokens) + 1, dtype=np.int64)
        counts[self._word_tokens[self.keys[0]]] = self.counts[0]
        floor = math.log(1.0 / (self.total + len(self.vocabulary)))
        scores = np.array([math.log(c / self.total) if c else floor for c in counts.tolist()])
        for _ in range(self.order - 1):
            scores = math.log(self.alpha) + scores
        return scores

    @cached_property
    def continuation_index(self) -> "ContinuationIndex":
        """The continuations of every attested context, as flat arrays."""
        n, token_of, radix = len(self.words), self._word_tokens, len(self.tokens) + 1
        # The sorted k-grams come grouped by context, in context order: one
        # row per distinct prefix, numbered on from the order below's.
        grouped = [np.unique(keys // n, return_index=True) for keys in self.keys[1:]]
        first_row = np.cumsum([0] + [len(contexts) for contexts, _ in grouped])
        first_entry = np.cumsum([0] + [len(keys) for keys in self.keys[1:]])
        token_rows = np.full(radix, first_row[-1], dtype=np.intp)  # the empty row
        starts, logs, key_tables = [], [np.empty(0)], []
        for k, (contexts, first) in enumerate(grouped, start=2):
            row_of = np.empty(len(self.keys[k - 2]), dtype=np.intp)  # by rank
            row_of[contexts] = np.arange(first_row[k - 2], first_row[k - 1])
            if k == 2:
                token_rows[token_of[self.keys[0][contexts]]] = row_of[contexts]
            else:
                head, tail = np.divmod(self.keys[k - 2][contexts], n)
                keys = prefix_rows[head] * radix + token_of[tail] + 1
                by_key = np.argsort(keys)
                # A sentinel above every key keeps searchsorted in range.
                key_tables.append((
                    np.append(keys[by_key], np.iinfo(np.int64).max),
                    np.append(row_of[contexts][by_key], first_row[-1]),
                ))
            starts.append(first_entry[k - 2] + first)
            ratios = (self.counts[k - 1] / self.counts[k - 2][self.keys[k - 1] // n]).tolist()
            logs.append(np.fromiter(map(math.log, ratios), float, len(ratios)))
            for _ in range(self.order - k):
                logs[-1] = math.log(self.alpha) + logs[-1]
            prefix_rows = row_of
        last = np.concatenate([np.empty(0, np.int64)] + [keys % n for keys in self.keys[1:]])
        return ContinuationIndex(
            np.concatenate(starts + [first_entry[-1:]] * 2), token_of[last],
            np.concatenate(logs), token_rows, tuple(key_tables),
        )

    def grams(self, k: int) -> list[tuple[tuple[str, ...], int]]:
        """The k-grams with their counts, sorted (the order ``save`` writes)."""
        words, columns = np.array(self.words, dtype=object), []
        rank = np.arange(len(self.keys[k - 1]))
        for j in range(k, 0, -1):
            rank, last = np.divmod(self.keys[j - 1][rank], len(self.words))
            columns.append(words[last])
        return list(zip(zip(*reversed(columns)), self.counts[k - 1].tolist()))

    def save(self, path: str | Path) -> None:
        """Write the model as text, one section per order, deterministic."""
        lines = [f"NGRAM-LM v1 order={self.order} alpha={self.alpha!r}"]
        for k in range(1, self.order + 1):
            lines.extend(f"{count}\t{' '.join(gram)}" for gram, count in self.grams(k))
            if k < self.order:
                lines.append("")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ContinuationIndex:
    """Attested continuations of every context of length 1..order-1.

    The tokens seen after a context are entries ``starts[r]:starts[r + 1]``
    of ``ids`` (token ids, -1 outside the vocabulary) and ``logs``, where
    r is the context's row. A log is the score S (module docstring) of t
    after a full (order - 1 token) context whose longest suffix seen
    before t is this context: log(c(context + t) / c(context)) plus
    log(alpha) once per context token beyond it, added in its order, so
    the stored value is bit-identical to that score. Rows are ordered by
    context length, then context; each attested context with a
    continuation has one: the distinct prefixes of the model's sorted
    keys of each order. Row ``len(starts) - 2`` is empty and stands for
    every unattested context.

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
            at = keys.searchsorted(wanted)
            rows = np.where(keys[at] == wanted, key_rows[at], len(self.starts) - 2)
        return rows

    def spans(self, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end entry of each context's continuations (contexts
        as in ``context_rows``); an unattested context gets an empty span."""
        rows = self.context_rows(contexts)
        return self.starts[rows], self.starts[rows + 1]


def _ranks(
    keys: Sequence[np.ndarray], number: Mapping[str, int], grams: Sequence[Sequence[str]]
) -> np.ndarray:
    """The rank of each gram among the sorted ``keys`` of its order, its
    words numbered by ``number``; -1 where the gram is unattested."""
    numbers = np.array([[number.get(t, -1) for t in g] for g in grams]).reshape(len(grams), -1)
    rank, found = np.zeros(len(grams), dtype=np.int64), (numbers >= 0).all(axis=1)
    for j in range(numbers.shape[1]):
        key = rank * len(number) + numbers[:, j]
        rank = np.minimum(np.searchsorted(keys[j], key), len(keys[j]) - 1)
        found &= keys[j][rank] == key
    return np.where(found, rank, -1)


def train(corpus: str, order: int = DEFAULT_ORDER, alpha: float = DEFAULT_ALPHA) -> NGramModel:
    """Count n-grams of every order up to ``order`` over the corpus.

    Each paragraph is one unit: its lowercased words are padded with order-1
    leading BOS markers and a trailing EOS, and every sliding window of every
    order is counted, so each attested n-gram's prefix is attested too.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not corpus.strip():
        raise ValueError("corpus is empty")

    paragraphs = [
        [BOS] * (order - 1) + words + [EOS]
        for words in map(textcore.canonical_words, textcore.split_paragraphs(corpus))
        if words
    ]
    if not paragraphs:
        raise ValueError("corpus contains no word tokens")
    words = sorted({t for padded in paragraphs for t in padded} | {BOS, EOS})
    number = {word: i for i, word in enumerate(words)}
    flat = np.array([number[t] for padded in paragraphs for t in padded])
    sizes = [len(padded) for padded in paragraphs]
    room = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(flat))  # to the end
    prefix = np.zeros(len(flat), dtype=np.intp)  # by start: the window's prefix rank
    keys, counts = [], []
    for k in range(1, order + 1):
        at = np.flatnonzero(room >= k)  # the starts of the windows that fit
        k_keys, prefix[at], k_counts = np.unique(
            prefix[at] * len(words) + flat[at + k - 1], return_inverse=True, return_counts=True
        )
        keys.append(k_keys)
        counts.append(k_counts)
    return NGramModel(order, alpha, tuple(words), tuple(keys), tuple(counts))


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
        raise ValueError(f"{path}: expected {order} sections, found "
                         f"{len(sections)} (truncated file?)")
    tables: list[dict[tuple[str, ...], int]] = []
    for k, section in enumerate(sections, start=1):
        table: dict[tuple[str, ...], int] = {}
        for line in section.splitlines():
            count_str, tab, gram_str = line.partition("\t")
            if not tab:
                raise ValueError(f"{path}: malformed line {line!r}")
            try:
                if (count := int(count_str)) >= 2**63:  # counts are int64
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: bad count in line {line!r}") from None
            if count < 1:
                raise ValueError(f"{path}: nonpositive count in line {line!r}")
            gram = tuple(gram_str.split(" "))
            if len(gram) != k or not all(gram):
                raise ValueError(f"{path}: expected a {k}-gram, got {gram_str!r}")
            if gram in table:
                raise ValueError(f"{path}: duplicate {k}-gram {gram_str!r}")
            table[gram] = count
        if not table:
            raise ValueError(f"{path}: empty section for order {k}")
        tables.append(table)

    # Reject tables that cannot have come from ``train``, naming an order's
    # first bad gram in file order. Training counts canonical words and the
    # BOS and EOS markers, so every other token must be one canonical word:
    # the decoder searches each token as one word. Training also counts
    # every sliding window over each padded paragraph, so the summed counts
    # of consecutive orders differ by exactly the number of paragraphs, the
    # unigram count of EOS; a file truncated at a line boundary parses but
    # fails this balance. Every higher-order gram must also have an attested
    # prefix counted at least as often as itself, keeping every score <= 0.
    words = sorted({t for table in tables for gram in table for t in gram} | {BOS, EOS})
    for token in words:
        if token not in (BOS, EOS) and textcore.canonical_words(token) != [token]:
            raise ValueError(f"{path}: token {token!r} is not one lowercase word "
                             "(training makes no such token)")
    if order > 1 and (EOS,) not in tables[0]:
        raise ValueError(f"{path}: missing {EOS} unigram")
    number, n = {word: i for i, word in enumerate(words)}, len(words)
    keys, counts = [], []
    for k, table in enumerate(tables, start=1):
        last = np.array([number[gram[-1]] for gram in table])
        k_counts = np.array(list(table.values()), dtype=np.int64)
        prefix = _ranks(keys, number, [gram[:-1] for gram in table])
        if k > 1:
            if sum(tables[k - 2].values()) - sum(table.values()) != tables[0][(EOS,)]:
                raise ValueError(f"{path}: inconsistent counts between orders "
                                 f"{k - 1} and {k} (truncated file?)")
            # Counts are positive, so a gram without a prefix is counted more.
            c_prefix = np.where(prefix >= 0, counts[-1][prefix], 0)
            for i in np.flatnonzero(k_counts > c_prefix)[:1].tolist():
                gram = " ".join(list(table)[i])
                if not c_prefix[i]:
                    raise ValueError(f"{path}: {k}-gram {gram!r} lacks an attested prefix")
                raise ValueError(f"{path}: {k}-gram {gram!r} is counted {k_counts[i]} "
                                 f"times, more than its prefix's {c_prefix[i]}")
            # Every padded position is a unigram, so training counts each
            # token of a gram as one; the attested prefix holds all but the last.
            for i in np.flatnonzero(~np.isin(last, keys[0]))[:1].tolist():
                gram = list(table)[i]
                raise ValueError(f"{path}: {k}-gram {' '.join(gram)!r} holds "
                                 f"{gram[-1]!r}, which is no unigram")
        by_key = np.argsort(prefix * n + last)
        keys.append(prefix[by_key] * n + last[by_key])
        counts.append(k_counts[by_key])
    return NGramModel(order, alpha, tuple(words), tuple(keys), tuple(counts))
