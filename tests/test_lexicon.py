"""Tests for the lexicon loader and the two baseline translators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipogram.lexicon import (
    Lexicon,
    LexiconEntry,
    _transfer_case,
    constraint_free_synonyms,
    load_dictionary,
    load_lexicon,
    translate_edelete,
    translate_synonym,
)
from lipogram.textcore import ALPHABET, ConstraintSet, strip_letters, tokenize, violates

E = ConstraintSet.from_string("e")

# Hand-checked sentence pair: stripping every e from the first yields the
# second exactly.
ORIGINAL = (
    "In my younger and more vulnerable years my father gave me some advice "
    "that I've been turning over in my mind ever since."
)
EDELETED = (
    "In my youngr and mor vulnrabl yars my fathr gav m som advic "
    "that I'v bn turning ovr in my mind vr sinc."
)


def write_lexicon(tmp_path, text):
    p = tmp_path / "lex.tsv"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadLexicon:
    def test_two_valid_lines(self, tmp_path):
        p = write_lexicon(
            tmp_path,
            "advice\tadvice\tguidance,tips\t42\n"
            "gave\tgive\t\t17\n",
        )
        lex = load_lexicon(p)
        assert len(lex) == 2
        assert lex.lookup("ADVICE").synonyms == ("guidance", "tips")
        assert lex.lookup("gave").lemma == "give"
        assert lex.lookup("gave").synonyms == ()

    def test_missing_column_names_line(self, tmp_path):
        p = write_lexicon(tmp_path, "good\tgood\t\t1\nbad_line_no_tabs\n")
        with pytest.raises(ValueError, match="line 2"):
            load_lexicon(p)

    def test_bad_frequency_names_line(self, tmp_path):
        p = write_lexicon(tmp_path, "a\ta\t\tnotanumber\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(p)

    def test_empty_file_is_valid(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, ""))
        assert len(lex) == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = write_lexicon(tmp_path, "# header\n\nword\tword\t\t3\n")
        assert len(load_lexicon(p)) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "nope.tsv")

    def test_duplicates_keep_first(self, tmp_path):
        p = write_lexicon(tmp_path, "w\tw\tfirst\t1\nw\tw\tsecond\t2\n")
        assert load_lexicon(p).lookup("w").synonyms == ("first",)

    def test_whitespace_in_synonym_rejected(self, tmp_path):
        p = write_lexicon(tmp_path, "w\tw\ttwo words\t1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(p)


class TestLoadDictionary:
    def test_basic(self, tmp_path):
        p = tmp_path / "dict.txt"
        p.write_text("# words\nthe\nWall\n\ncat\n", encoding="utf-8")
        assert load_dictionary(p) == {"the", "wall", "cat"}


def make_lex(*entries):
    return Lexicon({e.word: e for e in entries})


class TestConstraintFreeSynonyms:
    def test_filters_violating_synonyms(self):
        lex = make_lex(
            LexiconEntry("advice", "advice", ("input", "counsel", "tips"), 10)
        )
        # "counsel" has an e, the others do not
        assert constraint_free_synonyms("advice", E, lex) == ["input", "tips"]

    def test_frequency_then_lexicographic_order(self):
        lex = make_lex(
            LexiconEntry("people", "people", ("folks", "kin"), 30),
            LexiconEntry("kin", "kin", (), 7),
            LexiconEntry("folks", "folks", (), 2),
        )
        # kin(7) outranks folks(2)
        assert constraint_free_synonyms("people", E, lex) == ["kin", "folks"]

    def test_tie_breaks_lexicographically(self):
        lex = make_lex(LexiconEntry("people", "people", ("kin", "folks"), 30))
        # neither synonym has its own entry: both frequency 0
        assert constraint_free_synonyms("people", E, lex) == ["folks", "kin"]

    def test_lemma_synonyms_included(self):
        lex = make_lex(
            LexiconEntry("gave", "give", (), 12),
            LexiconEntry("give", "give", ("grant", "afford"), 40),
        )
        assert constraint_free_synonyms("gave", E, lex) == ["afford", "grant"]

    def test_unknown_word_gives_empty(self):
        assert constraint_free_synonyms("zzz", E, make_lex()) == []

    def test_all_returned_are_constraint_free(self):
        lex = make_lex(
            LexiconEntry("x", "x", ("seven", "five", "two", "ten"), 1)
        )
        for s in constraint_free_synonyms("x", E, lex):
            assert not violates(s, E)


class TestTranslateEdelete:
    def test_table_sentence(self):
        assert translate_edelete(ORIGINAL, E) == EDELETED

    def test_identity_when_constraint_free(self):
        text = "My mind is too full of this right now."
        assert translate_edelete(text, E) == text

    def test_eel_case(self):
        assert translate_edelete("Eel", E) == "l"

    def test_punctuation_untouched(self):
        assert translate_edelete("see: here, there!", E) == "s: hr, thr!"

    @given(st.text(max_size=120))
    def test_output_has_no_forbidden_letters_in_words(self, text):
        out = translate_edelete(text, E)
        assert all(not violates(w, E) for w in tokenize(out).words())


class TestTranslateSynonym:
    LEX = make_lex(
        LexiconEntry("advice", "advice", ("tips",), 9),
        LexiconEntry("gave", "give", (), 12),
        LexiconEntry("give", "give", ("afford", "grant"), 40),
        LexiconEntry("people", "people", ("folks",), 30),
    )

    def test_replaces_with_synonym(self):
        assert (
            translate_synonym("good advice here", E, self.LEX)
            == "good tips hr"
        )

    def test_fallback_strips_unknown_word(self):
        assert translate_synonym("vulnerable", E, self.LEX) == "vulnrabl"

    def test_constraint_free_words_untouched(self):
        text = "all of it is calm and still"
        assert translate_synonym(text, E, self.LEX) == text

    def test_capitalization_transfer_first_letter(self):
        assert translate_synonym("Advice", E, self.LEX) == "Tips"

    def test_capitalization_transfer_all_caps(self):
        assert translate_synonym("ADVICE", E, self.LEX) == "TIPS"

    def test_lemma_route(self):
        assert translate_synonym("gave", E, self.LEX) == "afford"

    def test_deterministic(self):
        out = [translate_synonym(ORIGINAL, E, self.LEX) for _ in range(3)]
        assert out[0] == out[1] == out[2]

    @given(st.text(max_size=120))
    def test_output_constraint_free(self, text):
        out = translate_synonym(text, E, self.LEX)
        assert all(not violates(w, E) for w in tokenize(out).words())

    def test_casing_cannot_bring_back_a_forbidden_letter(self, tmp_path):
        """A synonym is checked in the case it is written in: "groß" has
        no "s", but "GROSS" does, and "ﬁx" has no "f" or "i", but "FIX"
        and "Fix" do. The next synonym that stays legal is used ("ﬁx"
        ranks above "mend"), or the word's letters are stripped."""
        lex = load_lexicon(write_lexicon(
            tmp_path,
            "vast\tvast\tgroß\t5\nfix\tfix\tﬁx,mend\t5\nﬁx\tﬁx\t\t9\n",
        ))
        s = ConstraintSet.from_string("s")
        assert translate_synonym("VAST lawn", s, lex) == "VAT lawn"
        assert translate_synonym("vast lawn", s, lex) == "groß lawn"
        f = ConstraintSet.from_string("f")
        assert translate_synonym("FIX it", f, lex) == "MEND it"
        assert translate_synonym("Fix it", f, lex) == "Mend it"
        assert translate_synonym("fix it", f, lex) == "ﬁx it"


def edelete_by_tokens(paragraph, c):
    """The token-walk E-delete, kept as the oracle for the regex rewrite."""
    out = []
    for tok in tokenize(paragraph):
        out.append(strip_letters(tok.text, c) if tok.kind == "word" else tok.text)
    return "".join(out)


def synonym_by_tokens(paragraph, c, lex):
    """The token-walk synonym baseline, kept as the oracle."""
    out = []
    for tok in tokenize(paragraph):
        if tok.kind != "word" or not violates(tok.text, c):
            out.append(tok.text)
            continue
        cased = [
            _transfer_case(s, tok.text) for s in constraint_free_synonyms(tok.text, c, lex)
        ]
        legal = [s for s in cased if not violates(s, c)]
        out.append(legal[0] if legal else strip_letters(tok.text, c))
    return "".join(out)


class TestRegexRewriteMatchesTokenWalk:
    # "we've" has a synonym of its own, so splitting it at the apostrophe
    # would change the output.
    LEX = make_lex(
        *TestTranslateSynonym.LEX.entries.values(),
        LexiconEntry("we've", "we've", ("folks",), 5),
    )
    LEX_WORDS = [
        "advice", "Advice", "ADVICE", "gave", "Give", "people", "we've", "WE’VE",
    ]
    # Boundary characters weighted up; any other Unicode character can
    # still be drawn.
    PIECE = st.one_of(
        st.sampled_from(LEX_WORDS),
        st.text(
            alphabet=st.one_of(
                st.sampled_from("aeoxEZ'’ \t\n09-.éжλ中"), st.characters()
            ),
            max_size=6,
        ),
    )
    # Any subset of a-z, with "e" and the vowels, which the lexicon words
    # above violate, drawn more often.
    CONSTRAINTS = st.one_of(
        st.sampled_from(["e", "aeiou"]),
        st.sets(st.sampled_from(ALPHABET)).map("".join),
    ).map(ConstraintSet.from_string)

    @given(st.lists(PIECE, max_size=12).map("".join), CONSTRAINTS)
    def test_edelete(self, text, c):
        assert translate_edelete(text, c) == edelete_by_tokens(text, c)

    @given(st.lists(PIECE, max_size=12).map("".join), CONSTRAINTS)
    def test_synonym(self, text, c):
        assert translate_synonym(text, c, self.LEX) == synonym_by_tokens(
            text, c, self.LEX
        )
