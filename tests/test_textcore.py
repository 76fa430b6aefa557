"""Tests for tokenization, constraints, and letter statistics.

Expected values marked by hand were computed independently before the
implementation (hand segmentation / character filtering / direct counts).
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lipogram.textcore import (
    ALPHABET,
    ConstraintSet,
    FreqTable,
    canonical,
    exclusion_fraction,
    letter_frequencies,
    split_paragraphs,
    strip_letters,
    tokenize,
    violates,
)

E = ConstraintSet.from_string("e")
VOWELS = ConstraintSet.from_string("aeiou")


class TestConstraintSet:
    def test_from_string_lowercases_and_dedupes(self):
        c = ConstraintSet.from_string("EeAa")
        assert c.as_string() == "ae"
        assert len(c) == 2

    def test_rejects_non_letters(self):
        with pytest.raises(ValueError):
            ConstraintSet.from_string("e1")
        with pytest.raises(ValueError):
            ConstraintSet(frozenset({"E"}))

    def test_empty_is_legal_and_falsy(self):
        c = ConstraintSet.from_string("")
        assert not c
        assert list(c) == []

    def test_membership_case_insensitive(self):
        assert "E" in E
        assert "e" in E
        assert "x" not in E


class TestTokenize:
    def test_empty_string(self):
        assert len(tokenize("")) == 0

    def test_hand_segmentation(self):
        # hand oracle: "my mind." -> word, space, word, punct
        toks = tokenize("my mind.").tokens
        assert [(t.kind, t.text) for t in toks] == [
            ("word", "my"),
            ("space", " "),
            ("word", "mind"),
            ("punct", "."),
        ]

    def test_right_single_quote_is_word_internal(self):
        toks = tokenize("haven’t had").tokens
        assert [(t.kind, t.text) for t in toks] == [
            ("word", "haven’t"),
            ("space", " "),
            ("word", "had"),
        ]

    def test_ascii_apostrophe_internal_only(self):
        seq = tokenize("'tis the dogs' day")
        assert seq.words() == ["tis", "the", "dogs", "day"]
        kinds = [t.kind for t in seq]
        assert kinds[0] == "punct"  # leading apostrophe is not part of a word

    def test_non_latin_is_punct(self):
        seq = tokenize("café 7a")
        assert seq.words() == ["caf", "a"]
        assert seq.text() == "café 7a"

    @given(st.text(max_size=200))
    def test_round_trip(self, text):
        assert tokenize(text).text() == text

    @given(st.text(max_size=200))
    def test_words_contain_only_letters_and_apostrophes(self, text):
        for w in tokenize(text).words():
            assert all(ch.isascii() and ch.isalpha() or ch in "'’" for ch in w)
            assert w[0] not in "'’" and w[-1] not in "'’"


class TestViolates:
    def test_spec_cases(self):
        assert violates("remember", E) is True
        assert violates("wisdom", E) is False
        assert violates("Criticizing", VOWELS) is True

    def test_case_insensitive(self):
        assert violates("Ever", E) is True
        assert violates("EVER", E) is True

    @given(
        st.text(max_size=30) | st.text(alphabet="abeEIOUxyZİß’'", max_size=30),
        st.sets(st.sampled_from(ALPHABET)),
    )
    @example("EVER", set())
    @example("", {"e"})
    def test_matches_per_character_scan(self, word, letters):
        # The per-character scan it replaced, kept as the reference.
        c = ConstraintSet(frozenset(letters))
        assert violates(word, c) == any(ch in c.letters for ch in word.lower())


class TestStripLetters:
    def test_table_row_word(self):
        assert strip_letters("younger", E) == "youngr"

    def test_no_change_when_absent(self):
        assert strip_letters("mind", E) == "mind"

    def test_both_cases_removed(self):
        # character-filter oracle: E and e both drop
        assert strip_letters("Ever", E) == "vr"

    def test_preserves_apostrophes(self):
        assert strip_letters("I've", E) == "I'v"

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
    def test_idempotent(self, word):
        once = strip_letters(word, E)
        assert strip_letters(once, E) == once

    @given(
        st.text(
            alphabet=st.sampled_from("abcdeEfgXyz'"),
            min_size=1,
            max_size=20,
        )
    )
    def test_violates_iff_strip_changes(self, word):
        # for words of letters/apostrophes only
        assert (not violates(word, E)) == (strip_letters(word, E) == word)


class TestLetterFrequencies:
    def test_direct_count(self):
        t = letter_frequencies("aaab")
        assert t.freq("a") == 0.75
        assert t.freq("b") == 0.25
        assert t.total == 4

    def test_single_letter(self):
        t = letter_frequencies("zzz")
        assert t.freq("z") == 1.0
        assert t.freq("a") == 0.0

    def test_case_folded_and_punct_ignored(self):
        t = letter_frequencies("Ab, a!")
        assert t.counts == {"a": 2, "b": 1}

    def test_degenerate_corpus_errors(self):
        with pytest.raises(ValueError):
            letter_frequencies("123 !?")

    def test_frequencies_sum_to_one(self):
        t = letter_frequencies("the quick brown fox jumps over the lazy dog")
        assert abs(sum(t.freq(l) for l in "abcdefghijklmnopqrstuvwxyz") - 1.0) < 1e-9

    def test_total_equals_count_sum(self):
        t = letter_frequencies("some text with letters")
        assert t.total == sum(t.counts.values())


class TestExclusionFraction:
    TABLE = FreqTable({"a": 10, "b": 5, "c": 85}, 100)

    def test_empty_constraint(self):
        assert exclusion_fraction(ConstraintSet(), self.TABLE) == 0.0

    def test_additivity(self):
        c = ConstraintSet.from_string("ab")
        assert abs(exclusion_fraction(c, self.TABLE) - 0.15) < 1e-12

    @given(st.sets(st.sampled_from("abcdefghijklmnopqrstuvwxyz"), max_size=8))
    def test_monotone_in_constraint(self, letters):
        t = letter_frequencies("the quick brown fox jumps over the lazy dog")
        c = ConstraintSet(frozenset(letters))
        bigger = ConstraintSet(frozenset(letters | {"q"}))
        assert exclusion_fraction(c, t) <= exclusion_fraction(bigger, t) + 1e-12


class TestSplitParagraphs:
    def test_basic(self):
        assert split_paragraphs("one\n\ntwo\n\n\nthree\n") == ["one", "two", "three"]

    def test_blank_lines_with_spaces(self):
        assert split_paragraphs("a\n  \nb") == ["a", "b"]

    def test_empty(self):
        assert split_paragraphs("\n\n") == []


class TestCanonical:
    def test_lowercases(self):
        assert canonical("Gatsby") == "gatsby"

    def test_normalizes_typographic_apostrophe(self):
        assert canonical("I\u2019ve") == "i've"
        assert canonical("don't") == "don't"

    @given(st.text(alphabet="abcdefghij'", max_size=12))
    def test_idempotent(self, s):
        assert canonical(canonical(s)) == canonical(s)
