"""Metric oracles: hand-computed TF-IDF fixture, score formulas, report shape."""

import http.server
import json
import math
import socket
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipogram import decoder, metrics, passes
from lipogram.decoder import DecoderConfig, Hypothesis, multiselect
from lipogram.lexicon import Lexicon
from lipogram.metrics import (
    EmbedProviderError,
    RemoteEmbedder,
    TfidfEmbedder,
    build_idf,
    cosine_similarity,
    e_score,
    embed,
    evaluate_document,
    grammar_mistakes,
    most_similar,
    oov_score,
    prefix_similarities,
    readability,
    report_json,
    similarities,
    similarity_bound,
    text_features,
)
from lipogram.ngram import train
from lipogram.passes import trim_suffix
from lipogram.pipeline import Pipeline
from lipogram.textcore import (
    WORD_RE,
    ConstraintSet,
    canonical_words,
    strip_letters,
    tokenize,
)

E = ConstraintSet.from_string("e")
NONE = ConstraintSet()

# Three-document fixture corpus for all IDF hand computations.
DOCS = ["the cat sat", "the dog sat", "a bird"]
IDF = build_idf(DOCS)
EMBEDDER = TfidfEmbedder(IDF)

IDF_DF2 = math.log(4 / 3) + 1.0  # df=2 ("the", "sat")
IDF_DF1 = math.log(4 / 2) + 1.0  # df=1 (everything else attested)
IDF_DF0 = math.log(4 / 1) + 1.0  # unseen


class StubGrammar:
    def __init__(self, matches):
        self.matches = matches

    def check(self, text):
        return list(self.matches)


class FailingGrammar:
    def check(self, text):
        raise RuntimeError("provider unreachable")


class Recording:
    """The fixture embedder, keeping the texts of each embed_many call."""

    def __init__(self):
        self.calls = []

    def embed_many(self, texts):
        self.calls.append(list(texts))
        return EMBEDDER.embed_many(texts)


class TestFeatures:
    def test_unigrams_and_bigrams(self):
        feats = text_features("The cat sat")
        assert feats == {"the": 1, "cat": 1, "sat": 1, "the cat": 1, "cat sat": 1}

    def test_canonicalized(self):
        assert text_features("I’ve") == {"i've": 1}

    def test_empty(self):
        assert text_features("...") == {}


class TestIdf:
    def test_hand_values(self):
        assert IDF.n_documents == 3
        assert IDF.value("the") == IDF_DF2
        assert IDF.value("sat") == IDF_DF2
        assert IDF.value("cat") == IDF_DF1
        assert IDF.value("cat sat") == IDF_DF1
        assert IDF.value("never seen") == IDF_DF0

    def test_df_counts_documents_not_occurrences(self):
        idf = build_idf(["word word word", "other"])
        assert idf.value("word") == math.log(3 / 2) + 1.0


class TestEmbed:
    def test_hand_weights(self):
        v = embed("cat sat", IDF)
        raw = {"cat": IDF_DF1, "sat": IDF_DF2, "cat sat": IDF_DF1}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        assert set(v) == set(raw)
        for feat, w in raw.items():
            assert v[feat] == w / norm

    def test_bigram_feature_present(self):
        v = embed("cat sat", IDF)
        assert v["cat sat"] > 0

    def test_stored_norm_matches_computed(self):
        v = embed("the cat sat on the mat", IDF)
        computed = math.sqrt(sum(w * w for w in v.values()))
        assert abs(computed - 1.0) < 1e-9

    def test_wordless_text_is_zero_vector(self):
        assert embed("", IDF) == {}
        assert embed("12 ... !", IDF) == {}

    def test_identical_texts_identical_vectors(self):
        a = embed("the cat sat", IDF)
        b = embed("the cat sat", IDF)
        assert a == b

    def test_term_frequency_scales(self):
        v = embed("cat cat", IDF)
        # tf=2 unigram and tf=1 bigram "cat cat", both idf df1/df0.
        raw = {"cat": 2 * IDF_DF1, "cat cat": IDF_DF0}
        norm = math.sqrt(sum(w * w for w in raw.values()))
        assert v["cat"] == raw["cat"] / norm


class TestCosine:
    def test_self_similarity_one(self):
        v = embed("the cat sat", IDF)
        assert cosine_similarity(v, v) >= 1.0 - 1e-9
        assert cosine_similarity(v, v) <= 1.0

    def test_disjoint_zero(self):
        a = embed("cat", IDF)
        b = embed("dog", IDF)
        assert cosine_similarity(a, b) == 0.0

    def test_hand_two_feature_case(self):
        a = {"x": 1.0}
        r = math.sqrt(0.5)
        b = {"x": r, "y": r}
        assert cosine_similarity(a, b) == r
        assert abs(cosine_similarity(a, b) - 0.7071) < 5e-5

    def test_zero_vector_convention(self):
        z = {}
        v = embed("cat", IDF)
        assert cosine_similarity(z, v) == 0.0
        assert cosine_similarity(v, z) == 0.0
        assert cosine_similarity(z, z) == 0.0

    @given(
        st.lists(st.sampled_from(["cat", "dog", "sat", "bird", "the"]), max_size=6),
        st.lists(st.sampled_from(["cat", "dog", "sat", "bird", "a"]), max_size=6),
    )
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, ws1, ws2):
        a = embed(" ".join(ws1), IDF)
        b = embed(" ".join(ws2), IDF)
        s1, s2 = cosine_similarity(a, b), cosine_similarity(b, a)
        assert abs(s1 - s2) < 1e-12
        assert 0.0 <= s1 <= 1.0


class TestSimilarities:
    def test_one_call_source_first(self):
        texts = ["the cat sat", "a bird", "", "the dog sat"]
        embedder = Recording()
        got = similarities(embedder, "the cat sat", texts)
        assert embedder.calls == [["the cat sat", *texts]]
        source_vec = embed("the cat sat", IDF)
        assert got == [cosine_similarity(source_vec, embed(t, IDF)) for t in texts]


def nudged(values, ulps):
    """Each value moved by its count of ulps, up for a positive count and
    down for a negative one: an approximate score within the bound."""
    out = []
    for value, n in zip(values, ulps):
        for _ in range(abs(n)):
            value = math.nextafter(value, math.copysign(math.inf, n))
        out.append(value)
    return out


def exact_only(embedder, source, texts, approx=None, **options):
    """most_similar with the approximate scores dropped: every text scored."""
    return metrics.most_similar(embedder, source, texts, **options)


class TestMostSimilar:
    def test_exact_path_scores_every_text_in_one_call(self):
        embedder = Recording()
        texts = ["a bird", "the cat sat", "the cat sat", "the dog"]
        assert most_similar(embedder, "the cat sat", texts) == 1
        assert most_similar(embedder, "the cat sat", texts, last=True) == 2
        assert embedder.calls == [["the cat sat", *texts]] * 2

    def test_only_the_near_best_are_scored(self):
        embedder = Recording()
        texts = ["a bird", "the cat sat", "the cat sat", "the dog"]
        approx = [0.1, 0.9, 0.9, 0.5]
        assert most_similar(embedder, "the cat sat", texts, approx, last=True) == 2
        assert embedder.calls == [["the cat sat", "the cat sat", "the cat sat"]]

    def test_a_lone_near_best_text_is_not_scored(self):
        embedder = Recording()
        assert most_similar(embedder, "the cat", ["a", "b", "c"], [0.2, 0.7, 0.1]) == 1
        assert embedder.calls == []

    def test_bound_grows_with_the_longest_text(self):
        short, long = similarity_bound(["ab"]), similarity_bound(["ab", "x" * 1000])
        assert 0 < short < long < 2e-12
        assert similarity_bound(["x" * 1000]) == long

    @given(
        words=st.lists(st.sampled_from(["the", "cat", "sat", "dog", "zz", "I’ve"]), max_size=12),
        source=st.sampled_from(["the cat sat", "the cat sat the cat", "a bird", "zz", "..."]),
    )
    @settings(max_examples=150, deadline=None)
    def test_prefix_similarities_within_the_bound(self, words, source):
        text = " ".join(words)
        prefixes = [text[: m.end()] for m in WORD_RE.finditer(text)]
        got = prefix_similarities(EMBEDDER, source, text)
        assert len(got) == len(prefixes) == len(canonical_words(text))
        for approx, exact, prefix in zip(
            got, similarities(EMBEDDER, source, prefixes), prefixes
        ):
            assert abs(approx - exact) <= similarity_bound([prefix])


class TestNearTies:
    """Both fast paths pick what scoring every text with `similarities`
    picks, when their approximate scores are off by a few ulps: duplicate
    texts tie exactly, and a nudge can put the approximate best on
    another one."""

    TEXTS = ["the cat sat", "a bird", "the dog sat", "sat the cat", "zz"]
    WORDS = ["the", "cat", "sat", "dog", "zz", "qq"]

    @given(
        texts=st.lists(st.sampled_from(TEXTS), min_size=1, max_size=6),
        source=st.sampled_from(["the cat sat", "the dog", "qq"]),
        ulps=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    )
    @example(texts=["the cat sat"] * 2, source="the cat sat", ulps=[0, 1, 0, 0, 0, 0])
    @example(texts=["zz", "zz"], source="qq", ulps=[0, 1, 0, 0, 0, 0])
    @settings(max_examples=150, deadline=None)
    def test_multiselect(self, texts, source, ulps):
        exact = similarities(EMBEDDER, source, texts)
        candidates = [
            Hypothesis(tuple(t.split()), -1.0, sim, -1.0)
            for t, sim in zip(texts, nudged(exact, ulps))
        ]
        chosen = multiselect(candidates, source, EMBEDDER, IDF)
        assert chosen is candidates[exact.index(max(exact))]

    @given(
        words=st.lists(st.sampled_from(WORDS), max_size=8),
        tail=st.sampled_from(["", ".", " !", "...", "’"]),
        source=st.sampled_from(["the cat sat", "cat sat the cat", "qq"]),
        ulps=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
    )
    @example(words=["zz", "zz"], tail="", source="the cat sat", ulps=[1, 0] + [0] * 6)
    @example(words=["the", "cat"], tail=".", source="the cat", ulps=[0, 0] + [0] * 6)
    @example(words=[], tail="...", source="the cat", ulps=[0] * 8)
    @settings(max_examples=150, deadline=None)
    def test_trim_suffix(self, words, tail, source, ulps):
        text = " ".join(words) + tail
        if not text:
            return
        candidates = [text[: m.end()] for m in WORD_RE.finditer(text)]
        if not candidates or candidates[-1] != text:
            candidates.append(text)
        exact = similarities(EMBEDDER, source, candidates)
        expected = max(zip(exact, map(len, candidates), candidates))[2]
        approx = nudged(exact[: len(words)], ulps)
        with mock.patch.object(passes, "prefix_similarities", return_value=approx):
            assert trim_suffix(text, source, EMBEDDER) == expected
        assert trim_suffix(text, source, EMBEDDER) == expected


class TestEScore:
    def test_hand_count(self):
        assert e_score("the cat sat", E) == (1 / 3) * 100.0

    def test_empty_text(self):
        assert e_score("", E) == 0.0
        assert e_score("1234 !?", E) == 0.0

    def test_free_text(self):
        assert e_score("a big cat sat", E) == 0.0

    def test_case_insensitive(self):
        assert e_score("Ever", E) == 100.0

    @given(st.lists(st.sampled_from(["the", "cat", "seven", "dog", "tree"]), max_size=8))
    def test_stripped_text_scores_zero(self, words):
        text = " ".join(strip_letters(w, E) for w in words)
        assert e_score(text, E) == 0.0

    @given(st.lists(st.sampled_from(["the", "cat", "ever", "dog"]), min_size=1, max_size=8))
    def test_punctuation_invariance(self, words):
        plain = " ".join(words)
        noisy = ", ".join(words) + "!?..."
        assert e_score(noisy, E) == e_score(plain, E)


class TestOov:
    DICT = {"the", "wall", "cat", "i've"}

    def test_all_known(self):
        assert oov_score("the cat", self.DICT) == 0.0

    def test_hand_count(self):
        assert oov_score("bhind the wall", self.DICT) == (1 / 3) * 100.0

    def test_empty(self):
        assert oov_score("", self.DICT) == 0.0

    def test_lookup_is_canonical(self):
        assert oov_score("The CAT", self.DICT) == 0.0
        assert oov_score("I’ve", self.DICT) == 0.0

    @given(st.lists(st.sampled_from(["the", "cat", "zzq", "wall"]), min_size=1, max_size=8))
    def test_punctuation_invariance(self, words):
        plain = " ".join(words)
        noisy = "; ".join(words) + " ..."
        assert oov_score(noisy, self.DICT) == oov_score(plain, self.DICT)


class TestGrammarMistakes:
    def test_stub_counts(self):
        text = " ".join(["word"] * 50)
        out = grammar_mistakes(text, StubGrammar([object(), object()]))
        assert out == {"count": 2, "percent_of_words": 4.0}

    def test_pass_through_stub(self):
        assert grammar_mistakes("any text at all", StubGrammar([]))["count"] == 0

    def test_empty_text(self):
        out = grammar_mistakes("", StubGrammar([]))
        assert out == {"count": 0, "percent_of_words": 0.0}

    def test_provider_failure_propagates(self):
        with pytest.raises(RuntimeError, match="unreachable"):
            grammar_mistakes("text", FailingGrammar())


class TestReadability:
    def test_hand_formula(self):
        got = readability("The cat sat.")
        assert got == 206.835 - 1.015 * (3 / 1) - 84.6 * (3 / 3)
        assert abs(got - 119.19) < 1e-9

    def test_syllable_groups(self):
        # "reading" -> ea, i = 2 groups; "dry" -> y = 1.
        got = readability("Reading dry.")
        assert got == 206.835 - 1.015 * (2 / 1) - 84.6 * (3 / 2)

    def test_minimum_one_syllable(self):
        # "nth" has no vowel group but still counts one syllable.
        got = readability("Nth.")
        assert got == 206.835 - 1.015 * (1 / 1) - 84.6 * (1 / 1)

    def test_sentences_need_words(self):
        # Trailing "..." opens a wordless segment that must not count.
        one = readability("The cat sat.")
        assert readability("The cat sat...") == one

    def test_no_terminator_is_one_sentence(self):
        assert readability("the cat sat") == readability("the cat sat.")

    def test_longer_sentences_score_lower(self):
        short = readability("One two. Three four.")
        long = readability("One two three four.")
        assert long < short

    def test_wordless_errors(self):
        with pytest.raises(ValueError):
            readability("")
        with pytest.raises(ValueError):
            readability("12 34 !")

    def test_deterministic(self):
        t = "Some longer sentence, with clauses, for the counter."
        assert readability(t) == readability(t)


class TestEvaluateDocument:
    def test_self_evaluation_similarity_one(self):
        paras = DOCS
        report = evaluate_document(
            paras, paras, NONE, {"any"}, StubGrammar([]), EMBEDDER
        )
        for rec in report.paragraphs:
            assert rec["similarity"] >= 1.0 - 1e-9
            assert rec["e_score"] == 0.0

    def test_empty_document(self):
        report = evaluate_document([], [], E, set(), StubGrammar([]), EMBEDDER)
        assert report.paragraphs == [] and report.aggregates == {}

    def test_count_mismatch_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            evaluate_document(["a"], [], E, set(), StubGrammar([]), EMBEDDER)

    def test_two_paragraph_fixture(self):
        source = ["the cat sat", "the dog sat"]
        translated = ["that cat sat", ""]
        dictionary = {"that", "sat", "dog"}
        report = evaluate_document(
            source, translated, E, dictionary, StubGrammar([object()]), EMBEDDER
        )
        first, second = report.paragraphs
        assert first["index"] == 0 and second["index"] == 1

        vs = embed("the cat sat", IDF)
        vt = embed("that cat sat", IDF)
        assert first["similarity"] == cosine_similarity(vs, vt)
        assert first["e_score"] == 0.0
        assert first["oov"] == (1 / 3) * 100.0  # "cat" absent
        assert first["grammar_count"] == 1
        assert first["grammar_pct"] == (1 / 3) * 100.0
        assert first["readability"] == readability("that cat sat")

        assert second["similarity"] == 0.0
        assert second["e_score"] == 0.0
        assert second["oov"] == 0.0
        assert second["readability"] == 0.0  # wordless translation

        for key in ("similarity", "e_score", "oov", "grammar_count",
                    "grammar_pct", "readability"):
            mean = (first[key] + second[key]) / 2
            assert abs(report.aggregates[key] - mean) < 1e-9

    def test_one_embed_call_per_paragraph(self):
        # A remote provider pays one round trip per call.
        source = ["the cat sat", "the dog sat", "a bird"]
        translated = ["that cat sat", "", "a bird"]
        embedder = Recording()
        evaluate_document(source, translated, E, set(), StubGrammar([]), embedder)
        assert embedder.calls == [list(pair) for pair in zip(source, translated)]

    def test_report_json_schema(self):
        report = evaluate_document(
            ["the cat sat"], ["the cat sat"], NONE, {"the", "cat", "sat"},
            StubGrammar([]), EMBEDDER,
        )
        data = json.loads(report_json(report, {"letters": ""}))
        assert set(data) == {"paragraphs", "aggregates", "config_echo"}
        assert data["config_echo"] == {"letters": ""}
        rec = data["paragraphs"][0]
        assert set(rec) == {
            "index", "similarity", "e_score", "oov",
            "grammar_count", "grammar_pct", "readability",
        }


class _EmbedHandler(http.server.BaseHTTPRequestHandler):
    vectors = [[3.0, 4.0], [0.0, 0.0]]
    fail = False
    raw = None  # a reply body sent as it is, when set
    # When set, a function of one text to its vector, used in place of
    # ``vectors``; the texts of each request are then kept in ``requests``.
    dense = None
    requests: list = []
    statuses: list = []  # error statuses to send first, one per request
    hits = 0  # requests received

    def do_POST(self):
        type(self).hits += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if self.statuses:
            self.send_error(self.statuses.pop(0))
            return
        if self.path != "/embed" or self.fail:
            self.send_response(500)
            self.end_headers()
            return
        vectors = self.vectors[: len(body["texts"])]
        if self.dense is not None:
            self.requests.append(body["texts"])
            vectors = [self.dense(text) for text in body["texts"]]
        reply = self.raw or json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()


class TestRemoteEmbedder:
    def test_normalizes_dense_vectors(self, embed_server):
        _EmbedHandler.fail = False
        client = RemoteEmbedder(embed_server)
        v = client.embed_many(["anything"])[0]
        assert v == {"0": 0.6, "1": 0.8}

    def test_zero_vector_from_remote(self, embed_server):
        _EmbedHandler.fail = False
        vs = RemoteEmbedder(embed_server).embed_many(["a", "b"])
        assert vs[1] == {}
        assert cosine_similarity(vs[0], vs[1]) == 0.0

    def test_vectors_of_unequal_length_raise(self, embed_server):
        # Read position by position, these two would score a cosine of 1.0.
        _EmbedHandler.raw = b'{"vectors": [[1, 0, 0], [1]]}'
        try:
            with pytest.raises(EmbedProviderError, match="malformed"):
                RemoteEmbedder(embed_server).embed_many(["a", "b"])
        finally:
            _EmbedHandler.raw = None

    def test_unreachable_raises(self):
        client = RemoteEmbedder("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(EmbedProviderError):
            client.embed_many(["text"])

    def test_silent_provider_times_out(self):
        # The listening socket completes the connection but is never
        # accepted, so no answer ever comes.
        with socket.create_server(("127.0.0.1", 0)) as server:
            url = f"http://127.0.0.1:{server.getsockname()[1]}"
            with pytest.raises(EmbedProviderError):
                RemoteEmbedder(url, timeout=0.5).embed_many(["text"])

    def test_server_error_raises(self, embed_server):
        _EmbedHandler.fail = True
        try:
            with pytest.raises(EmbedProviderError):
                RemoteEmbedder(embed_server).embed_many(["text"])
        finally:
            _EmbedHandler.fail = False

    @pytest.mark.parametrize(
        "statuses, hits, ok",
        [([503], 2, True), ([503, 503, 503], 2, False), ([400], 1, False)],
    )
    def test_retries_once_after_a_server_error(self, embed_server, statuses, hits, ok):
        # A 5xx reply gets one retry; a 4xx reply is not sent again.
        _EmbedHandler.statuses, _EmbedHandler.hits = list(statuses), 0
        try:
            if ok:
                assert RemoteEmbedder(embed_server).embed_many(["text"])[0] == {"0": 0.6, "1": 0.8}
            else:
                with pytest.raises(EmbedProviderError):
                    RemoteEmbedder(embed_server).embed_many(["text"])
            assert _EmbedHandler.hits == hits
        finally:
            _EmbedHandler.statuses = []

    @pytest.mark.parametrize(
        "raw",
        [
            b"[1, 2]",
            b'"vectors"',
            b'{"vectors": [null]}',
            b'{"vectors": [["a"]]}',
            b'{"vectors": [[NaN]]}',
            b'{"vectors": [[Infinity, 1.0]]}',
            b'{"vectors": [[1e400]]}',
            b'{"vectors": [[' + b"9" * 400 + b']]}',
            b'{"vectors": [[true]]}',
            b'{"vectors": [{"0": 1.0}]}',
            b'{"vectors": [[1e200, 1e200]]}',
            b'{"vectors": []}',
        ],
    )
    def test_malformed_response_raises_provider_error(self, embed_server, raw):
        _EmbedHandler.raw = raw
        try:
            with pytest.raises(EmbedProviderError):
                RemoteEmbedder(embed_server).embed_many(["text"])
        finally:
            _EmbedHandler.raw = None


class TestRemotePipeline:
    """A remote embedder never takes the fast paths: a beam run makes one
    request per selection, one per trim and one per evaluated paragraph,
    each with the source first, and its output equals that of the same
    run with the fast paths patched out."""

    CORPUS = "\n\n".join([
        "the cat sat on the mat by the door",
        "my shy dog ran by the big old barn",
        "a quick brown fox jumps over the lazy dog",
    ])

    def run(self, url):
        paras = self.CORPUS.split("\n\n")
        pipeline = Pipeline(
            train(self.CORPUS), Lexicon({}), build_idf(paras), set(),
            select_embedder=RemoteEmbedder(url),
        )
        cfg = DecoderConfig(beam_width=6, candidates_k=4, candidate_vocab_size=20)
        outputs, failures = pipeline.translate(paras, NONE, "beam", cfg)
        pipeline.evaluate(paras, outputs, NONE)
        return paras, outputs, failures

    def test_requests_and_outputs(self, embed_server):
        words = sorted(set(canonical_words(self.CORPUS)))
        _EmbedHandler.dense = staticmethod(
            lambda text: [canonical_words(text).count(w) for w in words]
        )
        _EmbedHandler.requests = []
        try:
            paras, outputs, failures = self.run(embed_server)
            fast = _EmbedHandler.requests
            _EmbedHandler.requests = []
            with mock.patch.object(decoder, "most_similar", exact_only), \
                    mock.patch.object(passes, "most_similar", exact_only):
                assert self.run(embed_server)[1] == outputs
            exact = _EmbedHandler.requests
        finally:
            _EmbedHandler.dense = None
            _EmbedHandler.requests = []
        assert failures == 0
        assert fast == exact
        n = len(paras)
        assert len(fast) == 3 * n
        assert [texts[0] for texts in fast] == [p for p in paras for _ in range(2)] + paras
        for i, paragraph in enumerate(paras):
            selection, trim = fast[2 * i][1:], fast[2 * i + 1][1:]
            assert len(selection) == 4
            assert trim[-1][0].isupper()
            assert all(trim[-1].startswith(prefix) for prefix in trim)
        assert fast[2 * n:] == [[p, out] for p, out in zip(paras, outputs)]


class TestEmbedderInterfaces:
    def test_tfidf_embed_many_matches_embed(self):
        embedder = TfidfEmbedder(IDF)
        singles = [embed(d, IDF) for d in DOCS]
        batch = embedder.embed_many(DOCS)
        assert batch == singles
