"""Text primitives: tokenization, letter constraints, frequency tables.

Everything downstream (translators, the decoder, the metrics) shares this
module's notion of a word, so the tokenizer is deliberately small and fixed:
word tokens are maximal ASCII letter runs glued by internal apostrophes,
whitespace runs are space tokens, and everything else (digits, dashes,
non-Latin letters) is punctuation. Tokenization is lossless: concatenating
the token texts reproduces the input byte for byte.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_ALPHABET_SET = frozenset(ALPHABET)

# Word = letter run, optionally continued by apostrophe + letter run.
# Both the ASCII apostrophe and U+2019 are word-internal; a leading or
# trailing apostrophe is punctuation.
WORD_RE = re.compile(r"[A-Za-z]+(?:['’][A-Za-z]+)*")
_TOKEN_RE = re.compile(
    rf"(?P<word>{WORD_RE.pattern})"
    r"|(?P<space>\s+)"
    r"|(?P<punct>[^A-Za-z\s]+)"
)


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


def tokenize(text: str) -> TokenSeq:
    """Split text into word/space/punct tokens (lossless)."""
    tokens = [
        Token(m.lastgroup, m.group(0)) for m in _TOKEN_RE.finditer(text)
    ]
    return TokenSeq(tokens)


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


def violates(word: str, c: ConstraintSet) -> bool:
    """True when the word contains any forbidden letter, case-insensitive."""
    return not c.letters.isdisjoint(word.lower())


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
