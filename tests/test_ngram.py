"""Tests for the backoff n-gram model.

Count and score oracles are frozen from hand computation; serialization is
checked by byte-level determinism and exact round-trip score equality. The
model's scores are read off its arrays (``continuation_index`` and
``backoff_logscores``) as the decoder reads them, and the arrays are
checked bit for bit against ``Reference`` (``ngram_reference.py``), the
dict-counting model they replaced.
"""

import hashlib
import math
import random
import tempfile
from collections import Counter
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ngram_reference import Reference

from lipogram.ngram import BOS, EOS, NGramModel, load, train
from lipogram.textcore import canonical_words

TOY = "the cat sat\n\nthe cat ran\n\na dog sat"


def gram_counts(m: NGramModel) -> Counter:
    """Every gram of every order with its count, 0 for any other."""
    return Counter({g: c for k in range(1, m.order + 1) for g, c in m.grams(k)})


def context_ids(m: NGramModel, context) -> np.ndarray:
    """The context's token ids as one row, -1 outside the vocabulary."""
    return np.array([[m.token_ids.get(t, -1) for t in context]], dtype=np.intp)


def indexed_continuations(m: NGramModel, context) -> dict:
    """The vocabulary tokens the continuation index holds after a context
    of 1 to order-1 tokens, with their logs."""
    index = m.continuation_index
    (lo,), (hi,) = index.spans(context_ids(m, context))
    return {
        m.tokens[i]: log
        for i, log in zip(index.ids[lo:hi].tolist(), index.logs[lo:hi].tolist())
        if i >= 0
    }


def indexed_logscore(m: NGramModel, context, token) -> float:
    """The score of ``token`` after the last order-1 tokens of ``context``,
    at least that many, read off the model's arrays as the decoder reads
    them: the log under the longest of the context's suffixes after which
    the token is attested, else its backoff score."""
    context = list(context)[len(context) - m.order + 1:] if m.order > 1 else []
    assert len(context) == m.order - 1
    for j in range(len(context), 0, -1):
        following = indexed_continuations(m, context[-j:])
        if token in following:
            return following[token]
    return float(m.backoff_logscores[m.token_ids.get(token, -1)])


def indexed_sequence_logscore(m: NGramModel, tokens) -> float:
    """The summed indexed scores of the tokens, left-padded with BOS."""
    history, total = [BOS] * (m.order - 1), 0.0
    for token in tokens:
        total += indexed_logscore(m, history, token)
        history.append(token)
    return total


class TestTrainCounts:
    def test_bigram_hand_oracle(self):
        # "a b a b" padded to <s> a b a b </s>
        c = gram_counts(train("a b a b", order=2))
        assert c[("a", "b")] == 2
        assert c[("b", "a")] == 1
        assert c[(BOS, "a")] == 1
        assert c[("b", EOS)] == 1
        assert c[("a",)] == 2
        assert c[(BOS,)] == 1

    def test_unigram_order(self):
        c = gram_counts(train("a a a", order=1))
        assert c[("a",)] == 3
        assert c[(EOS,)] == 1
        assert c[(BOS,)] == 0  # no padding at order 1

    def test_vocabulary_always_has_markers(self):
        for order in (1, 2, 3):
            m = train("plain words here", order=order)
            assert BOS in m.vocabulary and EOS in m.vocabulary

    def test_paragraphs_are_units(self):
        c = gram_counts(train("a b\n\nc d", order=2))
        assert c[("b", "c")] == 0
        assert c[("b", EOS)] == 1
        assert c[(BOS, "c")] == 1

    def test_lowercases_and_canonicalizes(self):
        m = train("The CAT. I’ve seen it.", order=1)
        c = gram_counts(m)
        assert c[("the",)] == 1
        assert c[("cat",)] == 1
        assert c[("i've",)] == 1
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
        c = gram_counts(m)
        for k in (2, 3):
            for gram, _ in m.grams(k):
                assert c[gram[:-1]] >= c[gram] > 0


class TestTokenLogscore:
    def test_ratio_one_is_exactly_zero(self):
        # count(a b) == count(a) == 2, so the ratio is 1.
        m = train("a b\n\na b", order=2)
        assert indexed_logscore(m, ["a"], "b") == 0.0

    def test_attested_bigram_ratio(self):
        m = train("a b\n\na c", order=2)
        assert indexed_logscore(m, ["a"], "b") == math.log(1 / 2)

    def test_unseen_token_floor(self):
        # Order 1 on "a b c": unigrams a, b, c, </s>, so T=4; vocabulary
        # {a, b, c, <s>, </s>} has V=5. Unseen scores log(1/(T+V)).
        m = train("a b c", order=1)
        assert m.total == 4
        assert len(m.vocabulary) == 5
        assert indexed_logscore(m, [], "zzz") == math.log(1.0 / 9.0)
        assert m.backoff_logscores[-1] == math.log(1.0 / 9.0)

    def test_single_backoff_hand_oracle(self):
        # Trigram (x, y, z) unattested; bigram ratio count(y z)/count(y)
        # is 1/2. One backoff step costs log(0.4).
        m = train("y z\n\ny w", order=3, alpha=0.4)
        c = gram_counts(m)
        assert c[("x", "y", "z")] == 0
        assert c[("y", "z")] == 1
        assert c[("y",)] == 2
        got = indexed_logscore(m, ["x", "y"], "z")
        assert got == math.log(0.4) + math.log(0.5)

    def test_double_backoff_association(self):
        # Wholly unseen context: two backoff steps stack right-associated,
        # log(a) + (log(a) + unigram), which is what repeated elementwise
        # addition over a score table produces as well.
        m = train(TOY, order=3, alpha=0.4)
        base = math.log(gram_counts(m)[("cat",)] / m.total)
        assert Reference.of(m).token_logscore([], "cat") == base
        got = indexed_logscore(m, ["qq", "rr"], "cat")
        assert got == math.log(0.4) + (math.log(0.4) + base)
        assert m.backoff_logscores[m.token_ids["cat"]] == got

    def test_context_truncated_to_model_order(self):
        # The index holds contexts of at most order-1 tokens, so only
        # those count; the reference truncates a longer context the same.
        m = train(TOY, order=2)
        long_ctx = ["ignored", "also", "the"]
        assert m.continuation_index.key_tables == ()
        got = indexed_logscore(m, ["the"], "cat")
        assert got == Reference.of(m).token_logscore(long_ctx, "cat") == 0.0

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
        assert indexed_logscore(m, [BOS, BOS] + context, token) <= 0.0


class TestSequenceLogscore:
    def test_empty_sequence(self):
        m = train(TOY, order=3)
        assert indexed_sequence_logscore(m, []) == 0.0
        assert Reference.of(m).sequence_logscore([]) == 0.0

    def test_single_token_definition(self):
        m = train(TOY, order=3)
        score = indexed_logscore(m, [BOS, BOS], "cat")
        assert Reference.of(m).sequence_logscore(["cat"]) == score
        # "cat" never follows <s>: two backoff steps to its unigram, 2 of 18.
        assert score == math.log(0.4) + (math.log(0.4) + math.log(2 / 18))

    def test_two_tokens_additivity(self):
        m = train(TOY, order=3)
        s1 = indexed_logscore(m, [BOS, BOS], "the")
        s2 = indexed_logscore(m, [BOS, "the"], "cat")
        assert Reference.of(m).sequence_logscore(["the", "cat"]) == s1 + s2
        assert (s1, s2) == (math.log(2 / 3), 0.0)


class TestContinuations:
    def test_bigram_continuations(self):
        m = train("a b a b", order=2)
        assert indexed_continuations(m, ("a",)) == {"b": 0.0}
        assert indexed_continuations(m, ("b",)) == {"a": math.log(0.5), EOS: math.log(0.5)}
        assert Reference.of(m).continuations(("b",)) == {"a": 1, EOS: 1}

    def test_unattested_context_is_empty(self):
        m = train("a b a b", order=2)
        assert indexed_continuations(m, ("nope",)) == {}
        assert Reference.of(m).continuations(("nope",)) == {}

    @given(
        words=st.lists(st.sampled_from("abcde"), min_size=1, max_size=30),
        order=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_tables_and_scores(self, words, order):
        m = train(" ".join(words), order=order)
        ref = Reference.train(" ".join(words), order, m.alpha)
        index = m.continuation_index
        for k in range(2, order + 1):
            grams = dict(m.grams(k))
            contexts = {gram[:-1] for gram in grams}
            (lo,), (hi,) = index.spans(context_ids(m, ("zz",) * (k - 1)))
            assert lo == hi
            for ctx in contexts:
                cont = {
                    gram[-1]: count
                    for gram, count in grams.items()
                    if gram[:-1] == ctx
                }
                assert ref.continuations(ctx) == cont
                (lo,), (hi,) = index.spans(context_ids(m, ctx))
                scores = dict(zip(
                    (m.tokens[i] for i in index.ids[lo:hi]), index.logs[lo:hi]
                ))
                # A full context whose longest attested suffix is ctx.
                full = ("zz",) * (order - k) + ctx
                assert scores == {t: ref.token_logscore(full, t) for t in cont}
        unseen = ("zz",) * (order - 1)
        backoff = [ref.token_logscore(unseen, t) for t in m.tokens + ("qq",)]
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
        for got, want in zip(index_arrays(m2), index_arrays(m), strict=True):
            assert_bits_equal(got, want)
        assert_bits_equal(m2.backoff_logscores, m.backoff_logscores)
        for _ in range(100):
            seq = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            assert indexed_sequence_logscore(m2, seq) == indexed_sequence_logscore(m, seq)

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

    def test_gram_ending_in_a_token_without_a_unigram_errors(self, tmp_path):
        # Balanced sums and an attested prefix, but no "zz" unigram: training
        # counts every padded position as one, and the continuation index
        # has no token id for "zz", so the model would count "a zz" that
        # the index never shows after "a".
        path = tmp_path / "orphan.lm"
        path.write_text(
            "NGRAM-LM v1 order=2 alpha=0.4\n"
            "1\t<s>\n1\ta\n1\t</s>\n"
            "\n"
            "1\t<s> a\n1\ta zz\n"
        )
        with pytest.raises(ValueError, match="'a zz' holds 'zz', which is no unigram"):
            load(path)
        path.write_text(path.read_text().replace("1\ta\n", "1\ta\n1\tzz\n").replace(
            "1\ta zz\n", "1\ta zz\n1\tzz </s>\n"
        ))
        assert indexed_continuations(load(path), ["a"]) == {"zz": 0.0}

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
        assert [m2.grams(k) for k in range(1, order + 1)] == [
            m.grams(k) for k in range(1, order + 1)
        ]
        ref = Reference.of(m2)
        for para in paras:
            assert indexed_sequence_logscore(m2, para) == indexed_sequence_logscore(m, para)
            assert indexed_sequence_logscore(m2, para) == ref.sequence_logscore(para)


def index_arrays(m: NGramModel) -> list[np.ndarray]:
    index = m.continuation_index
    arrays = [index.starts, index.ids, index.logs, index.token_rows]
    return arrays + [a for table in index.key_tables for a in table]


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(corpus: str, order: int, alpha: float, tmp: Path) -> None:
    m, ref = train(corpus, order=order, alpha=alpha), Reference.train(corpus, order, alpha)
    assert m.tokens == ref.tokens and m.ranked_words == ref.ranked_words
    assert m.vocabulary == ref.vocabulary and m.total == ref.total
    assert_bits_equal(m.backoff_logscores, ref.backoff_logscores())
    for got, want in zip(index_arrays(m), ref.index_arrays(), strict=True):
        assert_bits_equal(got, want)
    assert [dict(m.grams(k)) for k in range(1, order + 1)] == ref.tables
    grams = [gram for table in ref.tables for gram in table]
    absent = [("zz",), ("zz", EOS), (BOS, "zz"), (EOS, BOS), ("zz",) * order]
    for gram in grams + absent:
        if len(gram) < order:
            # A full context whose longest attested suffix is the gram.
            full = ("zz",) * (order - 1 - len(gram)) + gram
            want = {t: ref.token_logscore(full, t) for t in ref.continuations(gram)}
            assert indexed_continuations(m, gram) == want
    tokens = list(ref.tokens) + ["zz"]
    rng = random.Random(order)
    for gram in rng.sample(grams, min(len(grams), 2_000)) + absent:
        # An attested gram's context, and the same with one token swapped,
        # each filled up to a full context with a token outside the model.
        context, token = list(gram[-order:-1]), gram[-1]
        full = ["zz"] * (order - 1 - len(context)) + context
        assert indexed_logscore(m, full, token) == ref.token_logscore(full, token)
        if context:
            context[rng.randrange(len(context))] = rng.choice(tokens)
        full, token = ["zz"] * (order - 1 - len(context)) + context, rng.choice(tokens)
        assert indexed_logscore(m, full, token) == ref.token_logscore(full, token)
    m.save(tmp / "m.lm")
    assert (tmp / "m.lm").read_text(encoding="utf-8") == ref.text()


class TestAgainstReference:
    @given(
        paras=st.lists(
            st.lists(
                st.sampled_from(["a", "ab", "b", "ba", "I've", "it's", "The", "x", "42"]),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        ),
        order=st.integers(1, 5),
        alpha=st.sampled_from([0.1, 0.4, 0.75, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_corpora(self, paras, order, alpha):
        corpus = "\n\n".join(" ".join(words) for words in paras)
        if not canonical_words(corpus):
            return
        with tempfile.TemporaryDirectory() as tmp:
            assert_matches_reference(corpus, order, alpha, Path(tmp))

    def test_log_ratio_where_numpy_log_differs(self, tmp_path):
        # Some numpy builds (2.4 on x86-64) put np.log(13 / 705) one ulp off
        # math.log(13 / 705); the index holds the latter, as token_logscore.
        corpus = "\n\n".join(["a b"] * 13 + ["a"] * 692)
        assert_matches_reference(corpus, 2, 0.4, tmp_path)

    def test_order_5_past_the_packed_key_overflow(self, tmp_path):
        # Packing a 5-gram as five token ids in base n overflows int64 once
        # n > 6,208; the model keys a gram by its prefix's rank instead.
        rng = random.Random(5)
        words = [a + b + c for a in "abcdefghijklmnopqrstuvwxyz"
                 for b in "abcdefghijklmnopqrstuvwxyz" for c in "bcdfghjklm"]
        words = rng.sample(words, 6_400)
        paras = [" ".join(rng.sample(words, 40)) for _ in range(150)] + [" ".join(words)]
        corpus = "\n\n".join(paras)
        assert len(set(canonical_words(corpus))) + 2 > 6_208
        assert_matches_reference(corpus, 5, 0.4, tmp_path)


def test_bundled_novel_model_is_pinned(tmp_path):
    # The order-3 model of the bundled novel, as ``lipogram train`` writes it,
    # and the decoder's inputs read off it.
    novel = files("lipogram.data").joinpath("gatsby.txt").read_text(encoding="utf-8")
    m, ref = train(novel, order=3), Reference.train(novel, 3, 0.4)
    assert m.tokens == ref.tokens
    assert_bits_equal(m.backoff_logscores, ref.backoff_logscores())
    for got, want in zip(index_arrays(m), ref.index_arrays(), strict=True):
        assert_bits_equal(got, want)
    path = tmp_path / "model.ngram"
    m.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4e7b3cc09b1636b5225e376e45dda9c15d3ca855fdfb65d2911d7a177c4f9953"
    )
    loaded = load(path)
    assert (loaded.order, loaded.alpha, loaded.words) == (m.order, m.alpha, m.words)
    for got, want in zip(loaded.keys + loaded.counts, m.keys + m.counts, strict=True):
        assert_bits_equal(got, want)
