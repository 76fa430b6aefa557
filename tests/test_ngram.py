"""Tests for the backoff n-gram model.

Count and score oracles are frozen from hand computation; serialization is
checked by byte-level determinism and exact round-trip score equality.
"""

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipogram.ngram import BOS, EOS, NGramModel, load, train

TOY = "the cat sat\n\nthe cat ran\n\na dog sat"


class TestTrainCounts:
    def test_bigram_hand_oracle(self):
        # "a b a b" padded to <s> a b a b </s>
        m = train("a b a b", order=2)
        assert m.count(("a", "b")) == 2
        assert m.count(("b", "a")) == 1
        assert m.count((BOS, "a")) == 1
        assert m.count(("b", EOS)) == 1
        assert m.count(("a",)) == 2
        assert m.count((BOS,)) == 1

    def test_unigram_order(self):
        m = train("a a a", order=1)
        assert m.count(("a",)) == 3
        assert m.count((EOS,)) == 1
        assert m.count((BOS,)) == 0  # no padding at order 1

    def test_vocabulary_always_has_markers(self):
        for order in (1, 2, 3):
            m = train("plain words here", order=order)
            assert BOS in m.vocabulary and EOS in m.vocabulary

    def test_paragraphs_are_units(self):
        m = train("a b\n\nc d", order=2)
        assert m.count(("b", "c")) == 0
        assert m.count(("b", EOS)) == 1
        assert m.count((BOS, "c")) == 1

    def test_lowercases_and_canonicalizes(self):
        m = train("The CAT. I’ve seen it.", order=1)
        assert m.count(("the",)) == 1
        assert m.count(("cat",)) == 1
        assert m.count(("i've",)) == 1
        assert "CAT" not in m.vocabulary

    def test_order_validation(self):
        with pytest.raises(ValueError):
            train("a b", order=0)
        with pytest.raises(ValueError):
            train("a b", order=6)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            train("a b", alpha=0.0)
        with pytest.raises(ValueError):
            train("a b", alpha=1.5)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            train("", order=2)
        with pytest.raises(ValueError):
            train("   \n\n  ", order=2)
        with pytest.raises(ValueError):
            train("123 !!! 456", order=2)

    def test_prefix_invariant(self):
        m = train(TOY, order=3)
        for k in (2, 3):
            for gram in m.tables[k - 1]:
                assert m.count(gram[:-1]) >= m.count(gram) > 0


class TestTokenLogscore:
    def test_ratio_one_is_exactly_zero(self):
        # count(a b) == count(a) == 2, so the ratio is 1.
        m = train("a b\n\na b", order=2)
        assert m.token_logscore(["a"], "b") == 0.0

    def test_attested_bigram_ratio(self):
        m = train("a b\n\na c", order=2)
        assert m.token_logscore(["a"], "b") == math.log(1 / 2)

    def test_unseen_token_floor(self):
        # Order 1 on "a b c": unigrams a, b, c, </s>, so T=4; vocabulary
        # {a, b, c, <s>, </s>} has V=5. Unseen scores log(1/(T+V)).
        m = train("a b c", order=1)
        assert m.total == 4
        assert len(m.vocabulary) == 5
        assert m.token_logscore([], "zzz") == math.log(1.0 / 9.0)

    def test_single_backoff_hand_oracle(self):
        # Trigram (x, y, z) unattested; bigram ratio count(y z)/count(y)
        # is 1/2. One backoff step costs log(0.4).
        m = train("y z\n\ny w", order=3, alpha=0.4)
        assert m.count(("x", "y", "z")) == 0
        assert m.count(("y", "z")) == 1
        assert m.count(("y",)) == 2
        got = m.token_logscore(["x", "y"], "z")
        assert got == math.log(0.4) + math.log(0.5)

    def test_double_backoff_association(self):
        # Wholly unseen context: two backoff steps stack right-associated,
        # log(a) + (log(a) + unigram), which is what repeated elementwise
        # addition over a score table produces as well.
        m = train(TOY, order=3, alpha=0.4)
        base = m.token_logscore([], "cat")
        assert base == math.log(m.count(("cat",)) / m.total)
        got = m.token_logscore(["qq", "rr"], "cat")
        assert got == math.log(0.4) + (math.log(0.4) + base)

    def test_context_truncated_to_model_order(self):
        m = train(TOY, order=2)
        long_ctx = ["ignored", "also", "the"]
        assert m.token_logscore(long_ctx, "cat") == m.token_logscore(["the"], "cat")

    @given(
        st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=3),
        st.sampled_from(["a", "b", "e", "zz"]),
    )
    @settings(max_examples=60)
    def test_score_never_positive(self, paras, context, token):
        corpus = "\n\n".join(" ".join(words) for words in paras)
        m = train(corpus, order=3)
        assert m.token_logscore(context, token) <= 0.0


class TestSequenceLogscore:
    def test_empty_sequence(self):
        m = train(TOY, order=3)
        assert m.sequence_logscore([]) == 0.0

    def test_single_token_definition(self):
        m = train(TOY, order=3)
        assert m.sequence_logscore(["cat"]) == m.token_logscore([BOS, BOS], "cat")

    def test_two_tokens_additivity(self):
        m = train(TOY, order=3)
        s1 = m.token_logscore([BOS, BOS], "the")
        s2 = m.token_logscore([BOS, "the"], "cat")
        assert m.sequence_logscore(["the", "cat"]) == s1 + s2


class TestContinuations:
    def test_bigram_continuations(self):
        m = train("a b a b", order=2)
        assert dict(m.continuations(("a",))) == {"b": 2}
        assert dict(m.continuations(("b",))) == {"a": 1, EOS: 1}

    def test_unattested_context_is_empty(self):
        m = train("a b a b", order=2)
        assert dict(m.continuations(("nope",))) == {}

    @given(
        words=st.lists(st.sampled_from("abcde"), min_size=1, max_size=30),
        order=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_tables_and_scores(self, words, order):
        m = train(" ".join(words), order=order)
        index = m.continuation_index
        for k in range(2, order + 1):
            contexts = {gram[:-1] for gram in m.tables[k - 1]}
            (lo,), (hi,) = index.spans(m.context_ids([("zz",) * (k - 1)]))
            assert lo == hi
            for ctx in contexts:
                cont = {
                    gram[-1]: count
                    for gram, count in m.tables[k - 1].items()
                    if gram[:-1] == ctx
                }
                assert dict(m.continuations(ctx)) == cont
                (lo,), (hi,) = index.spans(m.context_ids([ctx]))
                scores = dict(zip(
                    (m.tokens[i] for i in index.ids[lo:hi]), index.logs[lo:hi]
                ))
                # A full context whose longest attested suffix is ctx.
                full = ("zz",) * (order - k) + ctx
                assert scores == {t: m.token_logscore(full, t) for t in cont}
        unseen = ("zz",) * (order - 1)
        backoff = [m.token_logscore(unseen, t) for t in m.tokens + ("qq",)]
        assert m.backoff_logscores.tolist() == backoff
        assert set(m.tokens) == m.vocabulary
        assert all(m.token_ids[t] == i for i, t in enumerate(m.tokens))

    @given(
        paras=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        ),
        order=st.integers(1, 5),
        alpha=st.sampled_from([0.1, 0.4, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_indexed_scores_never_positive(self, paras, order, alpha):
        # The decoder's early stop relies on every per-step score being <= 0.
        corpus = "\n\n".join(" ".join(words) for words in paras)
        m = train(corpus, order=order, alpha=alpha)
        assert (m.continuation_index.logs <= 0.0).all()
        assert (m.backoff_logscores <= 0.0).all()


class TestSerialization:
    def test_header_and_sections(self, tmp_path):
        m = train("a b", order=2, alpha=0.4)
        path = tmp_path / "m.lm"
        m.save(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "NGRAM-LM v1 order=2 alpha=0.4"
        assert "" in lines[1:]  # blank separator between sections
        assert text.endswith("\n")

    def test_round_trip_scores_bit_exact(self, tmp_path):
        m = train(TOY, order=3)
        path = tmp_path / "m.lm"
        m.save(path)
        m2 = load(path)
        assert m2.order == m.order and m2.alpha == m.alpha
        assert m2.vocabulary == m.vocabulary
        rng = random.Random(0)
        pool = sorted(m.vocabulary) + ["zz", "qq"]
        for _ in range(100):
            seq = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            assert m2.sequence_logscore(seq) == m.sequence_logscore(seq)

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.lm", tmp_path / "b.lm"
        train(TOY, order=3).save(p1)
        train(TOY, order=3).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_save_is_identity(self, tmp_path):
        p1, p2 = tmp_path / "a.lm", tmp_path / "b.lm"
        train(TOY, order=3).save(p1)
        load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "m.lm"
        train(TOY, order=3).save(path)
        data = path.read_text()
        cut = tmp_path / "cut.lm"
        for fraction in (0.3, 0.5, 0.6, 0.75, 0.9):
            cut.write_text(data[: int(len(data) * fraction)])
            with pytest.raises(ValueError):
                load(cut)

    def test_missing_section_errors(self, tmp_path):
        path = tmp_path / "m.lm"
        train(TOY, order=3).save(path)
        head, _, _ = path.read_text().rpartition("\n\n")
        short = tmp_path / "short.lm"
        short.write_text(head + "\n")
        with pytest.raises(ValueError, match="sections"):
            load(short)

    def test_bad_header_errors(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("NGRAM-LM v2 order=2 alpha=0.4\n1\ta\n")
        with pytest.raises(ValueError, match="header"):
            load(path)
        path.write_text("something else\n1\ta\n")
        with pytest.raises(ValueError, match="header"):
            load(path)

    def test_malformed_line_errors(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("NGRAM-LM v1 order=1 alpha=0.4\nx\ta\n")
        with pytest.raises(ValueError, match="count"):
            load(path)
        path.write_text("NGRAM-LM v1 order=1 alpha=0.4\n1\ta b\n")
        with pytest.raises(ValueError, match="1-gram"):
            load(path)
        path.write_text("NGRAM-LM v1 order=1 alpha=0.4\n1 a\n")
        with pytest.raises(ValueError, match="malformed"):
            load(path)

    def test_gram_counted_above_its_prefix_errors(self, tmp_path):
        # Balanced sums and attested prefixes, but "a b" outnumbers "a":
        # token_logscore(["a"], "b") would be log 2 > 0.
        path = tmp_path / "bad.lm"
        path.write_text(
            "NGRAM-LM v1 order=2 alpha=0.4\n"
            "1\t<s>\n1\ta\n2\tb\n1\t</s>\n"
            "\n"
            "1\t<s> a\n2\ta b\n1\tb </s>\n"
        )
        with pytest.raises(ValueError, match="more than its prefix"):
            load(path)

    def test_gram_without_attested_prefix_errors(self, tmp_path):
        # Balanced sums, but no "x" unigram for "x y": the continuation
        # index opens a row only under an attested context.
        path = tmp_path / "orphan.lm"
        path.write_text(
            "NGRAM-LM v1 order=2 alpha=0.4\n"
            "1\t<s>\n1\ta\n1\t</s>\n"
            "\n"
            "1\t<s> a\n1\tx y\n"
        )
        with pytest.raises(ValueError, match="lacks an attested prefix"):
            load(path)

    @pytest.mark.parametrize("token", ["x-ray", "Foo", "café", "it’s"])
    def test_token_that_is_not_one_word_errors(self, tmp_path, token):
        # A balanced file that training could not write: the decoder would
        # search the token as one word, which its text is not.
        path = tmp_path / "token.lm"
        train("the cat sat\n\nthe dog sat", order=2).save(path)
        path.write_text(path.read_text().replace("dog", token))
        with pytest.raises(ValueError, match="not one lowercase word"):
            load(path)
        path.write_text(path.read_text().replace(token, "dog"))
        load(path)

    @given(
        paras=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        ),
        order=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40)
    def test_round_trip_property(self, paras, order):
        corpus = "\n\n".join(" ".join(words) for words in paras)
        m = train(corpus, order=order)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.lm"
            m.save(path)
            m2 = load(path)
        assert m2.tables == m.tables
        for para in paras:
            assert m2.sequence_logscore(para) == m.sequence_logscore(para)
