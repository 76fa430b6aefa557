"""Text primitives: tokenization, letter constraints, frequency tables.

Everything downstream (translators, the decoder, the metrics) shares this
module's notion of a word, so the tokenizer is deliberately small and fixed:
word tokens are maximal ASCII letter runs glued by internal apostrophes,
whitespace runs are space tokens, and everything else (digits, dashes,
non-Latin letters) is punctuation. Tokenization is lossless: concatenating
the token texts reproduces the input byte for byte.

Callers that only need the word list use `words`, the words-only path: it
returns the same list as `tokenize(text).words()` without building a token
per match, and `canonical_words` returns their canonical forms. The package
itself does not call `tokenize`: code that rebuilds text around the words
scans `WORD_RE` matches (the entity and pronoun passes). `tokenize`,
`TokenSeq` and `Token` stay the public token API, for callers that want
every token.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_ALPHABET_SET = frozenset(ALPHABET)
_LETTER_BITS = {letter: 1 << i for i, letter in enumerate(ALPHABET)}

# Word = letter run, optionally continued by apostrophe + letter run.
# Both the ASCII apostrophe and U+2019 are word-internal; a leading or
# trailing apostrophe is punctuation.
WORD_RE = re.compile(r"[A-Za-z]+(?:['’][A-Za-z]+)*")


class Token(NamedTuple):
    kind: str  # "word" | "space" | "punct"
    text: str


@dataclass
class TokenSeq:
    """A tokenized text; round-trips losslessly via .text()."""

    tokens: list[Token]

    def text(self) -> str:
        return "".join(t.text for t in self.tokens)

    def words(self) -> list[str]:
        return [t.text for t in self.tokens if t.kind == "word"]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def words(text: str) -> list[str]:
    """The word tokens of text, in order; equals tokenize(text).words()."""
    return WORD_RE.findall(text)


def tokenize(text: str) -> TokenSeq:
    """Split text into word/space/punct tokens (lossless)."""
    pattern = rf"(?P<word>{WORD_RE.pattern})|(?P<space>\s+)|(?P<punct>[^A-Za-z\s]+)"
    return TokenSeq([Token(m.lastgroup, m.group(0)) for m in re.finditer(pattern, text)])


@dataclass(frozen=True)
class ConstraintSet:
    """The set of forbidden letters, stored lowercase.

    Membership tests are case-insensitive against input characters. The
    empty set is legal and means "no constraint".
    """

    letters: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        bad = set(self.letters) - _ALPHABET_SET
        if bad:
            raise ValueError(f"constraint letters must be a-z, got {sorted(bad)!r}")

    @classmethod
    def from_string(cls, s: str) -> "ConstraintSet":
        letters = set()
        for ch in s:
            low = ch.lower()
            if low not in _ALPHABET_SET:
                raise ValueError(f"constraint letters must be a-z, got {ch!r}")
            letters.add(low)
        return cls(frozenset(letters))

    def as_string(self) -> str:
        return "".join(sorted(self.letters))

    @property
    def mask(self) -> int:
        """The letters as a bit mask, bit i for ALPHABET[i] (see letter_masks)."""
        return sum(_LETTER_BITS[letter] for letter in self.letters)

    def __contains__(self, ch: str) -> bool:
        return ch.lower() in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)


def canonical(word: str) -> str:
    """Canonical word form for statistics: lowercase, ASCII apostrophe.

    The language model, the candidate vocabulary, the dictionary, and the
    similarity features all key on this form so that "I've" and "i’ve"
    count as the same word everywhere.
    """
    return word.lower().replace("’", "'")


def canonical_words(text: str) -> list[str]:
    """The canonical forms of the word tokens of text, in order; equals
    [canonical(w) for w in words(text)].

    ASCII text is lowercased whole, in one pass. Other text is not, since
    str.lower() maps some non-ASCII letters to ASCII ones (the Kelvin sign
    to "k", a dotted capital I to "i" and a combining dot) and so would
    make new words; its words are canonicalized one by one.
    """
    if text.isascii():
        return WORD_RE.findall(text.lower())
    return [canonical(w) for w in WORD_RE.findall(text)]


def violates(word: str, c: ConstraintSet) -> bool:
    """True when the word contains any forbidden letter, case-insensitive."""
    return not c.letters.isdisjoint(word.lower())


def letter_masks(words: Iterable[str]) -> np.ndarray:
    """Each word's a-z letters as a bit mask, bit i for ALPHABET[i], read
    from ``word.lower()`` as in violates: a word violates c exactly when
    its mask and ``c.mask`` share a bit."""
    return np.array(
        [sum(_LETTER_BITS.get(ch, 0) for ch in set(w.lower())) for w in words],
        dtype=np.int64,
    )


def strip_letters(word: str, c: ConstraintSet) -> str:
    """Remove every forbidden letter (both cases); keep everything else."""
    return "".join(ch for ch in word if ch.lower() not in c.letters)


@dataclass(frozen=True)
class FreqTable:
    """Relative letter frequencies over a corpus (a-z, case-folded)."""

    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0

    def freq(self, letter: str) -> float:
        return self.counts.get(letter.lower(), 0) / self.total

    def letters_by_frequency(self) -> list[str]:
        """All 26 letters, least frequent first; ties alphabetical."""
        return sorted(ALPHABET, key=lambda l: (self.counts.get(l, 0), l))


def letter_frequencies(text: str) -> FreqTable:
    """Count a-z letters after lowercasing; error on a letterless corpus."""
    counts = Counter(ch for ch in text.lower() if ch in _ALPHABET_SET)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("corpus contains no letters")
    return FreqTable(dict(counts), total)


def exclusion_fraction(c: ConstraintSet, table: FreqTable) -> float:
    """Summed relative frequency of the forbidden letters."""
    return sum(table.freq(l) for l in c)


def split_paragraphs(text: str) -> list[str]:
    """Blank-line separated paragraphs, order preserved, empties dropped."""
    parts = re.split(r"\n[ \t]*\n", text)
    return [p.strip() for p in parts if p.strip()]
