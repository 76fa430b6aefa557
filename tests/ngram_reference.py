"""The reference n-gram model the tests score against.

``Reference`` is the dict-counting model that the array model in
``lipogram.ngram`` replaced. It holds one dict of string tuples per order
and computes every score with the stupid-backoff recursion of the
``ngram`` module docstring, token by token, so the tests can check the
model's arrays and the decoder's scores against it bit for bit. Besides
the counts it is given (``Reference.of`` takes a model's own grams), it
uses nothing from the package but the BOS and EOS markers and the
tokenizer.
"""

import math
from collections import Counter

import numpy as np

from lipogram.ngram import BOS, EOS
from lipogram.textcore import canonical_words, split_paragraphs


class Reference:
    """Counts in one dict of string tuples per order (``tables[k - 1]``
    maps each k-gram to its count); every other value is derived from
    the dicts as the dict-counting model derived it, with the words
    numbered in sorted order (``ids``)."""

    def __init__(self, tables, alpha: float):
        self.tables, self.order, self.alpha = tables, len(tables), alpha
        self.total = sum(self.tables[0].values())
        self.vocabulary = {gram[0] for gram in self.tables[0]} | {BOS, EOS}
        self.words = tuple(sorted(self.vocabulary))
        self.ids = {word: i for i, word in enumerate(self.words)}
        ranked = sorted(
            (-count, word) for (word,), count in self.tables[0].items()
            if word not in (BOS, EOS)
        )
        self.ranked = tuple(self.ids[word] for _, word in ranked)

    @classmethod
    def train(cls, corpus: str, order: int, alpha: float) -> "Reference":
        """Count every window of every order over each paragraph's words,
        padded with order-1 BOS markers and one EOS."""
        counters = [Counter() for _ in range(order)]
        for paragraph in split_paragraphs(corpus):
            words = canonical_words(paragraph)
            if not words:
                continue
            padded = [BOS] * (order - 1) + words + [EOS]
            for k in range(1, order + 1):
                for i in range(len(padded) - k + 1):
                    counters[k - 1][tuple(padded[i:i + k])] += 1
        return cls([dict(c) for c in counters], alpha)

    @classmethod
    def of(cls, model) -> "Reference":
        """The reference over a model's own grams (``model.grams(k)``), so
        a loaded model has an oracle too."""
        return cls([dict(model.grams(k)) for k in range(1, model.order + 1)], model.alpha)

    def count(self, gram) -> int:
        key = tuple(gram)
        if not 1 <= len(key) <= self.order:
            return 0
        return self.tables[len(key) - 1].get(key, 0)

    def continuations(self, context) -> dict:
        """The tokens attested after the context, with their counts."""
        key = tuple(context)
        if not 1 <= len(key) < self.order:
            return {}
        if not hasattr(self, "_following"):
            self._following = {}
            for table in self.tables[1:]:
                for gram in sorted(table):
                    self._following.setdefault(gram[:-1], {})[gram[-1]] = table[gram]
        return self._following.get(key, {})

    def token_logscore(self, context, token) -> float:
        """The stupid-backoff score of ``token`` after the last order-1
        tokens of ``context``."""
        ctx = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        return self._score(ctx, token)

    def _score(self, ctx, token) -> float:
        if ctx:
            c_full = self.count(ctx + (token,))
            if c_full and self.count(ctx):
                return math.log(c_full / self.count(ctx))
            return math.log(self.alpha) + self._score(ctx[1:], token)
        c_uni = self.count((token,))
        if c_uni:
            return math.log(c_uni / self.total)
        return math.log(1.0 / (self.total + len(self.vocabulary)))

    def sequence_logscore(self, tokens) -> float:
        """The summed scores of the tokens, each after the ones before it,
        left-padded with BOS."""
        history = [BOS] * (self.order - 1)
        total = 0.0
        for token in tokens:
            total += self.token_logscore(history, token)
            history.append(token)
        return total

    def backoff_logscores(self) -> np.ndarray:
        unseen = ("",) * (self.order - 1)
        return np.array([self._score(unseen, t) for t in self.words + ("",)])

    def index_arrays(self) -> list[np.ndarray]:
        """starts, ids, logs, token_rows, then each key table's keys and
        rows, built in one pass over the sorted grams of each order."""
        size = sum(len(table) for table in self.tables[1:])
        ids, logs = np.empty(size, dtype=np.intp), np.empty(size)
        rows: dict[tuple, int] = {}
        radix = len(self.words) + 1
        keys = [[] for _ in range(self.order - 2)]
        key_rows = [[] for _ in range(self.order - 2)]
        starts: list[int] = []
        n = 0
        token_rows = np.full(len(self.words) + 1, -1, dtype=np.intp)
        for k in range(2, self.order + 1):
            table, prefixes = self.tables[k - 1], self.tables[k - 2]
            ctx = None
            for gram in sorted(table):
                if gram[:-1] != ctx:
                    ctx = gram[:-1]
                    row = rows[ctx] = len(starts)
                    starts.append(n)
                    if k == 2:
                        token_rows[self.ids[ctx[0]]] = row
                    else:
                        keys[k - 3].append(
                            rows[ctx[:-1]] * radix + self.ids.get(ctx[-1], -1) + 1
                        )
                        key_rows[k - 3].append(row)
                ids[n] = self.ids.get(gram[-1], -1)
                score = math.log(table[gram] / prefixes[ctx])
                for _ in range(self.order - k):
                    score = math.log(self.alpha) + score
                logs[n] = score
                n += 1
        starts += [n, n]
        empty = len(starts) - 2
        token_rows[token_rows < 0] = empty
        arrays = [np.array(starts), ids, logs, token_rows]
        for j_keys, j_rows in zip(keys, key_rows):
            j_keys = np.array(j_keys, dtype=np.int64)
            by_key = np.argsort(j_keys)
            arrays.append(np.append(j_keys[by_key], np.iinfo(np.int64).max))
            arrays.append(np.append(np.array(j_rows, dtype=np.intp)[by_key], empty))
        return arrays

    def text(self) -> str:
        lines = [f"NGRAM-LM v1 order={self.order} alpha={self.alpha!r}"]
        for k in range(1, self.order + 1):
            table = self.tables[k - 1]
            lines.extend(f"{table[gram]}\t{' '.join(gram)}" for gram in sorted(table))
            if k < self.order:
                lines.append("")
        return "\n".join(lines) + "\n"
