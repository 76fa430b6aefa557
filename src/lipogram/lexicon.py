"""Thesaurus/lemma resource and the two baseline translators.

The lexicon is a TSV file, one entry per line:

    word<TAB>lemma<TAB>syn1,syn2,...<TAB>frequency

Comment lines start with ``#``. The E-delete baseline strips forbidden
letters from every word; the synonym baseline swaps each violating word
for its best constraint-free synonym and falls back to stripping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .textcore import WORD_RE, ConstraintSet, strip_letters, violates


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    lemma: str
    synonyms: tuple[str, ...]
    corpus_frequency: int


@dataclass
class Lexicon:
    """Immutable after load; lookup is case-insensitive."""

    entries: dict[str, LexiconEntry] = field(default_factory=dict)

    def lookup(self, word: str) -> LexiconEntry | None:
        return self.entries.get(word.lower())

    def frequency(self, word: str) -> int:
        entry = self.lookup(word)
        return entry.corpus_frequency if entry else 0

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path) -> Lexicon:
    """Parse the TSV; duplicate words keep the first occurrence.

    Words and lemmas are lowercased; synonyms keep their case. The OOV
    metric's word list is a separate file (see load_dictionary).
    """
    entries: dict[str, LexiconEntry] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tab-separated fields, "
                    f"got {len(fields)}"
                )
            word, lemma, syn_field, freq_field = fields
            word = word.strip().lower()
            lemma = lemma.strip().lower()
            if not word or not lemma:
                raise ValueError(f"{path}: line {lineno}: empty word or lemma")
            synonyms = tuple(
                s.strip() for s in syn_field.split(",") if s.strip()
            )
            for s in synonyms:
                if any(ch.isspace() for ch in s):
                    raise ValueError(
                        f"{path}: line {lineno}: synonym {s!r} contains whitespace"
                    )
            try:
                freq = int(freq_field)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: frequency {freq_field!r} is not an integer"
                ) from None
            if freq < 0:
                raise ValueError(f"{path}: line {lineno}: negative frequency")
            if word not in entries:
                entries[word] = LexiconEntry(word, lemma, synonyms, freq)
    return Lexicon(entries)


def load_dictionary(path) -> set[str]:
    """One lowercase word per line; blank lines and # comments skipped."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            w = line.strip()
            if w and not w.startswith("#"):
                words.add(w.lower())
    return words


def constraint_free_synonyms(
    word: str, c: ConstraintSet, lex: Lexicon
) -> list[str]:
    """Constraint-free synonyms of the word (and of its lemma), best first.

    Order is descending corpus frequency of the synonym itself (its own
    lexicon entry, 0 when absent), ties broken lexicographically.
    """
    entry = lex.lookup(word)
    if entry is None:
        return []
    pool = list(entry.synonyms)
    if entry.lemma != entry.word:
        lemma_entry = lex.lookup(entry.lemma)
        if lemma_entry is not None:
            pool.extend(lemma_entry.synonyms)
    seen: set[str] = set()
    result = []
    for s in pool:
        if s in seen or violates(s, c):
            continue
        seen.add(s)
        result.append(s)
    result.sort(key=lambda s: (-lex.frequency(s), s))
    return result


def _transfer_case(replacement: str, original: str) -> str:
    if original.isupper() and len(original) > 1:
        return replacement.upper()
    if original[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


def translate_edelete(paragraph: str, c: ConstraintSet) -> str:
    """Remove every forbidden letter from every word; keep the rest."""
    return WORD_RE.sub(lambda m: strip_letters(m.group(0), c), paragraph)


def translate_synonym(paragraph: str, c: ConstraintSet, lex: Lexicon) -> str:
    """Swap violating words for their best constraint-free synonym.

    Constraint-free words pass through untouched. A synonym is used in the
    word's case, and only when that cased form is constraint-free too:
    casing can bring a letter back ("groß" upper-cases to "GROSS"). Words
    with no usable synonym fall back to strip_letters on the original
    surface form.
    """

    def replace(match: re.Match) -> str:
        word = match.group(0)
        if not violates(word, c):
            return word
        for synonym in constraint_free_synonyms(word, c, lex):
            cased = _transfer_case(synonym, word)
            if not violates(cased, c):
                return cased
        return strip_letters(word, c)

    return WORD_RE.sub(replace, paragraph)
