"""Tests for entity, pronoun, punctuation, trim, and grammar passes."""

import http.server
import json
import logging
import socket
import threading
import urllib.parse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipogram.metrics import TfidfEmbedder, build_idf, cosine_similarity, embed
from lipogram.passes import (
    EntityMap,
    GrammarMatch,
    GrammarProviderError,
    LanguageToolClient,
    OfflineGrammar,
    apply_entity_map,
    build_entity_table,
    drop_term_runs,
    grammar_correct,
    make_grammar_provider,
    normalize_punctuation,
    resolve_pronouns,
    trim_suffix,
)
from lipogram.textcore import ConstraintSet, tokenize, violates

E = ConstraintSet.from_string("e")
NONE = ConstraintSet()


class TestBuildEntityTable:
    def test_miss_baker_gets_stable_stripped_alias(self):
        paragraphs = [
            "I nodded at Miss Baker politely.",
            "Later Miss Baker spoke again.",
        ]
        table = build_entity_table(paragraphs, E)
        assert table.aliases == {"Miss Baker": "Miss Bakr"}

    def test_constraint_free_entity_keeps_its_name(self):
        table = build_entity_table(["I saw Tom today."], E)
        assert table.aliases == {"Tom": "Tom"}

    def test_collision_gets_numeric_suffix_in_first_seen_order(self):
        table = build_entity_table(["We met Eve and then Ev arrived."], E)
        assert table.aliases == {"Eve": "v", "Ev": "v2"}

    def test_fully_stripped_alias_becomes_a_number(self):
        table = build_entity_table(
            ["They all knew Ree somehow."], ConstraintSet.from_string("re")
        )
        assert table.aliases == {"Ree": "2"}

    def test_sentence_start_capitals_are_not_entities(self):
        table = build_entity_table(["Gatsby smiled at us. Nobody moved."], E)
        assert "Gatsby" not in table.aliases

    def test_mid_sentence_occurrence_is_caught(self):
        paragraphs = ["Gatsby smiled at us.", "Then I saw Gatsby again."]
        table = build_entity_table(paragraphs, E)
        assert table.aliases == {"Gatsby": "Gatsby"}

    def test_honorific_qualifies_even_at_sentence_start(self):
        table = build_entity_table(["Mr. Wilson arrived by car."], E)
        assert table.aliases == {"Mr. Wilson": "Mr. Wilson"}

    def test_honorific_without_period(self):
        table = build_entity_table(["So Dr Hartmann waved at our party."], E)
        assert table.aliases == {"Dr Hartmann": "Dr Hartmann"}

    def test_maximal_run_is_one_entity(self):
        table = build_entity_table(["I knew Tom Buchanan at school."], E)
        assert list(table.aliases) == ["Tom Buchanan"]

    def test_pronoun_i_is_never_an_entity(self):
        table = build_entity_table(["And then I waved. Nobody saw how I've run."], E)
        assert table.aliases == {}

    def test_aliases_are_constraint_free(self):
        paragraphs = [
            "We saw Peter Keene near the East Egg crowd.",
            "Was Peter Keene with Miss Baker that night?",
        ]
        table = build_entity_table(paragraphs, E)
        for alias in table.aliases.values():
            assert not any(violates(w, E) for w in alias.split())

    def test_quoted_dialogue_opens_a_sentence(self):
        # Paragraph 36 of the novel: "You" opens quoted speech, so it is
        # not a name, and a later "he" after "you" must stay a pronoun.
        paragraph = (
            "\"How gorgeous! Let's go back, Tom. Tomorrow!\" Then she added "
            'irrelevantly, "You ought to see the baby."'
        )
        table = build_entity_table([paragraph], E)
        assert table.aliases == {"Tom": "Tom"}
        text = "you would know what he said"
        assert resolve_pronouns(text, table) == text

    def test_word_also_used_in_lowercase_is_not_an_entity(self):
        paragraphs = ["She said, Why not ask Tom?", "Nobody knew why."]
        assert build_entity_table(paragraphs, E).aliases == {"Tom": "Tom"}

    def test_lowercase_use_does_not_drop_a_multi_word_run(self):
        paragraphs = ["Later we drove to West Egg.", "It lay west of the egg."]
        table = build_entity_table(paragraphs, E)
        assert table.aliases == {"West Egg": "Wst gg"}

    def test_same_document_gives_identical_tables(self):
        paragraphs = ["I met Eve and Ev at Mr. Wilson's party."]
        first = build_entity_table(paragraphs, E)
        second = build_entity_table(paragraphs, E)
        assert first.aliases == second.aliases
        assert list(first.aliases) == list(second.aliases)


class TestApplyEntityMap:
    def test_longest_match_wins(self):
        emap = EntityMap({"Tom Buchanan": "X", "Tom": "Y"})
        assert apply_entity_map("Tom Buchanan met Tom.", emap) == "X met Y."

    def test_word_boundaries_respected(self):
        emap = EntityMap({"Tom": "Y"})
        assert apply_entity_map("The Tomb of Tom.", emap) == "The Tomb of Y."

    def test_unmapped_text_unchanged(self):
        emap = EntityMap({"Daisy": "Daisy"})
        text = "Nothing here mentions anybody."
        assert apply_entity_map(text, emap) == text

    def test_empty_map_is_identity(self):
        assert apply_entity_map("any text", EntityMap()) == "any text"

    def test_idempotent_for_unmapped_aliases(self):
        emap = EntityMap({"Miss Baker": "Miss Bakr"})
        once = apply_entity_map("I saw Miss Baker leave.", emap)
        assert once == "I saw Miss Bakr leave."
        assert apply_entity_map(once, emap) == once


class TestResolvePronouns:
    def test_single_antecedent_resolved(self):
        emap = EntityMap({"Gatsby": "Gatsby"})
        out = resolve_pronouns("Gatsby smiled at last. He waved back.", emap)
        assert out == "Gatsby smiled at last. Gatsby waved back."

    def test_two_entities_in_window_left_alone(self):
        emap = EntityMap({"Gatsby": "Gatsby", "Daisy": "Daisy"})
        text = "Gatsby saw Daisy at that party. He waved."
        assert resolve_pronouns(text, emap) == text

    def test_no_entity_in_window_left_alone(self):
        emap = EntityMap({"Gatsby": "Gatsby"})
        text = "Nobody was around. He waved anyway."
        assert resolve_pronouns(text, emap) == text

    def test_window_boundary_is_respected(self):
        # "Gatsby stood up." puts 3 words before the filler, so 22 fillers
        # leave Gatsby exactly 25 words back (in range) and 23 push it out.
        emap = EntityMap({"Gatsby": "Gatsby"})
        near = f"Gatsby stood up. {' '.join(['word'] * 22)} He waved."
        far = f"Gatsby stood up. {' '.join(['word'] * 23)} He waved."
        assert resolve_pronouns(near, emap).count("Gatsby") == 2
        assert resolve_pronouns(far, emap).count("Gatsby") == 1

    def test_alias_mention_counts_as_antecedent(self):
        emap = EntityMap({"Miss Baker": "Miss Bakr"})
        out = resolve_pronouns("Miss Bakr sat down, and soon she sang.", emap)
        assert out == "Miss Bakr sat down, and soon Miss Bakr sang."

    def test_lowercase_mention_counts_as_antecedent(self):
        emap = EntityMap({"Gatsby": "Gatsby"})
        out = resolve_pronouns("gatsby stood on that lawn and then he waved", emap)
        assert out == "gatsby stood on that lawn and then Gatsby waved"

    def test_replacement_counts_for_later_windows(self):
        emap = EntityMap({"Gatsby": "Gatsby"})
        out = resolve_pronouns("Gatsby waved. He ran. He fell.", emap)
        assert out == "Gatsby waved. Gatsby ran. Gatsby fell."

    def test_non_pronoun_words_untouched(self):
        emap = EntityMap({"Gatsby": "Gatsby"})
        text = "Gatsby held the helm there."
        assert resolve_pronouns(text, emap) == text


class TestNormalizePunctuation:
    def test_backticks_and_quote_runs(self):
        assert normalize_punctuation("``Hello ''") == '"Hello"'

    def test_comma_spacing(self):
        assert normalize_punctuation("a ,b") == "a, b"

    def test_space_before_terminal_punctuation_removed(self):
        assert normalize_punctuation("stop it !") == "stop it!"

    def test_space_inside_quotes_removed(self):
        assert normalize_punctuation('" Hello there "') == '"Hello there"'

    def test_empty_paragraphs_dropped(self):
        text = "one fine line\n\n   \n\nand two"
        assert normalize_punctuation(text) == "one fine line\n\nand two"

    def test_already_normalized_unchanged(self):
        text = 'She said, "stop it!" and left.'
        assert normalize_punctuation(text) == text

    @given(
        st.text(
            alphabet="ab c,.!?'`\"\n",
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_idempotent(self, text):
        once = normalize_punctuation(text)
        assert normalize_punctuation(once) == once


class TestDropTermRuns:
    ITEMS = ["alpha", "bravo", "china", "delta", "fox", "golf", "hotel", "india"]

    def test_run_of_eight_dropped(self):
        text = "I bought " + ", ".join(self.ITEMS) + " at last."
        out = drop_term_runs(text)
        assert "alpha" not in out and "india" not in out
        assert out.startswith("I bought")

    def test_run_of_seven_kept(self):
        text = "I bought " + ", ".join(self.ITEMS[:7]) + " at last."
        assert drop_term_runs(text) == text

    def test_threshold_configurable(self):
        text = "saw alpha, bravo, china today"
        assert "alpha" not in drop_term_runs(text, min_items=3)
        assert drop_term_runs(text, min_items=4) == text


class TestTrimSuffix:
    DOCS = [
        "the cat sat on the mat",
        "a dog ran far away",
        "birds fly south in autumn",
    ]

    def embedder(self):
        return TfidfEmbedder(build_idf(self.DOCS))

    def test_appended_gibberish_removed(self):
        out = trim_suffix(
            "the cat sat on the mat xylophone quartz",
            "the cat sat on the mat",
            self.embedder(),
        )
        assert out == "the cat sat on the mat"

    def test_optimal_text_unchanged(self):
        text = "a dog ran far away"
        assert trim_suffix(text, text, self.embedder()) == text

    def test_single_word(self):
        assert trim_suffix("cat", "the cat", self.embedder()) == "cat"

    def test_all_zero_similarity_keeps_full_text(self):
        out = trim_suffix("zz qq xx", "the cat sat", self.embedder())
        assert out == "zz qq xx"

    def test_cut_lands_on_word_end_before_punctuation(self):
        out = trim_suffix("good dog. zz qq", "good dog", self.embedder())
        assert out == "good dog"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            trim_suffix("", "source", self.embedder())

    def test_matches_bruteforce_argmax(self):
        import random

        embedder = self.embedder()
        pool = "the cat sat dog ran mat far sun zz qq".split()
        rng = random.Random(99)
        for _ in range(25):
            words = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            text = " ".join(words)
            source = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            got = trim_suffix(text, source, embedder)
            prefixes = [
                " ".join(words[: i + 1]) for i in range(len(words))
            ]
            source_vec = embed(source, embedder.idf)
            best, best_key = None, None
            for prefix in prefixes:
                sim = cosine_similarity(source_vec, embed(prefix, embedder.idf))
                key = (sim, len(prefix))
                if best_key is None or key > best_key:
                    best, best_key = prefix, key
            assert got == best

    @given(
        text=st.text(alphabet="ab Z'’-.,é1\n", min_size=1, max_size=40),
        source=st.sampled_from(["the cat sat", "a dog", "ab b"]),
    )
    @example("a'b'' c’d -e. 'f", "a dog")
    @settings(max_examples=200, deadline=None)
    def test_candidates_end_where_tokenize_words_end(self, text, source):
        # The token walk trim_suffix used before reading match ends.
        ends, pos = [], 0
        for tok in tokenize(text):
            pos += len(tok.text)
            if tok.kind == "word":
                ends.append(pos)
        expected = [text[:end] for end in ends]
        if not expected or expected[-1] != text:
            expected.append(text)

        seen = []
        embedder = self.embedder()

        class Recording:
            def embed_many(self, texts):
                seen.append(list(texts))
                return embedder.embed_many(texts)

        got = trim_suffix(text, source, Recording())
        assert seen == [[source] + expected]
        sims = [
            cosine_similarity(embed(source, embedder.idf), embed(c, embedder.idf))
            for c in expected
        ]
        assert got == max(zip(sims, map(len, expected), expected))[2]

    def test_never_less_similar_than_full_text(self):
        embedder = self.embedder()
        source = "the cat sat"
        text = "the cat sat zz on mat qq"
        trimmed = trim_suffix(text, source, embedder)
        source_vec = embed(source, embedder.idf)
        assert cosine_similarity(
            source_vec, embed(trimmed, embedder.idf)
        ) >= cosine_similarity(source_vec, embed(text, embedder.idf))


class StubGrammar:
    def __init__(self, matches):
        self.matches = matches

    def check(self, text):
        return self.matches


class FailingGrammar:
    def check(self, text):
        raise GrammarProviderError("connection refused")


class TestGrammarCorrect:
    def test_constraint_free_suggestion_applied(self):
        provider = StubGrammar([GrammarMatch(0, 1, "an")])
        assert grammar_correct("a apple", NONE, provider) == "an apple"

    def test_forbidden_suggestion_skipped(self):
        provider = StubGrammar([GrammarMatch(0, 4, "the")])
        assert grammar_correct("that dog", E, provider) == "that dog"

    def test_no_suggestions_unchanged(self):
        assert grammar_correct("all good", E, OfflineGrammar()) == "all good"

    def test_suggestion_judged_by_violates(self):
        """A suggestion is skipped exactly when ``violates`` says it breaks
        the constraint: under "i", "İstanbul" lowercases to "i" plus a
        combining dot, so it is skipped, and an ASCII one still applies."""
        i = ConstraintSet.from_string("i")
        assert violates("İstanbul", i)
        provider = StubGrammar([GrammarMatch(0, 3, "İstanbul")])
        assert grammar_correct("xyz road", i, provider) == "xyz road"
        provider = StubGrammar([GrammarMatch(0, 3, "Oslo")])
        assert grammar_correct("xyz road", i, provider) == "Oslo road"

    def test_overlapping_suggestions_first_wins(self):
        provider = StubGrammar(
            [GrammarMatch(0, 4, "gold"), GrammarMatch(2, 4, "silk")]
        )
        assert grammar_correct("grey coat", NONE, provider) == "gold coat"

    def test_replacement_without_value_skipped(self):
        provider = StubGrammar([GrammarMatch(0, 4, None)])
        assert grammar_correct("grey coat", NONE, provider) == "grey coat"

    def test_unreachable_provider_passes_through_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lipogram.passes"):
            out = grammar_correct("still still here", E, FailingGrammar())
        assert out == "still still here"
        assert any("grammar" in rec.message for rec in caplog.records)

    @given(
        text=st.sampled_from(["a cat sat", "the cat sat", "my dog and my cat sit"]),
        offset=st.integers(-12, 12),
        length=st.integers(-12, 12),
        replacement=st.text(alphabet="xyz ", max_size=4),
    )
    @example(text="a cat sat", offset=2, length=-1, replacement="X")
    @example(text="the cat sat", offset=4, length=-2, replacement="dog")
    @example(text="the cat sat", offset=-1, length=2, replacement="a")
    @settings(max_examples=200, deadline=None)
    def test_applied_suggestion_replaces_exactly_its_span(
        self, text, offset, length, replacement
    ):
        """A suggestion replaces text[offset:offset + length]; one whose
        span is negative or runs past the text is skipped."""
        out = grammar_correct(
            text, NONE, StubGrammar([GrammarMatch(offset, length, replacement)])
        )
        if 0 <= offset and 0 <= length and offset + length <= len(text):
            assert out == text[:offset] + replacement + text[offset + length:]
        else:
            assert out == text

    @given(
        replacement=st.text(alphabet="aerst ", min_size=1, max_size=8),
        offset=st.integers(0, 10),
        length=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_adversarial_suggestions_never_violate(self, replacement, offset, length):
        text = "my dog and my cat sit"
        provider = StubGrammar([GrammarMatch(offset, length, replacement)])
        out = grammar_correct(text, E, provider)
        assert not any(violates(w, E) for w in out.split())


class _GrammarHandler(http.server.BaseHTTPRequestHandler):
    captured = {}
    status = 200
    raw = None  # a reply body sent as it is, when set
    statuses: list = []  # error statuses to send first, one per request
    hits = 0  # requests received

    def do_POST(self):
        type(self).hits += 1
        length = int(self.headers["Content-Length"])
        form = urllib.parse.parse_qs(self.rfile.read(length).decode("utf-8"))
        type(self).captured = {"path": self.path, "form": form}
        if self.statuses:
            self.send_error(self.statuses.pop(0))
            return
        if self.status != 200:
            self.send_error(self.status)
            return
        body = self.raw or json.dumps(
            {
                "matches": [
                    {
                        "offset": 0,
                        "length": 1,
                        "replacements": [{"value": "an"}, {"value": "one"}],
                    },
                    {"offset": 2, "length": 5, "replacements": []},
                ]
            }
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def grammar_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _GrammarHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _GrammarHandler.status = 200
    _GrammarHandler.raw = None
    _GrammarHandler.statuses, _GrammarHandler.hits = [], 0
    yield f"http://127.0.0.1:{server.server_port}"
    _GrammarHandler.raw = None
    _GrammarHandler.statuses = []
    server.shutdown()
    thread.join()


class TestLanguageToolClient:
    def test_parses_matches_and_sends_form(self, grammar_server):
        client = LanguageToolClient(grammar_server)
        matches = client.check("a apple on sale")
        assert matches == [
            GrammarMatch(0, 1, "an"),
            GrammarMatch(2, 5, None),
        ]
        assert _GrammarHandler.captured["path"] == "/v2/check"
        assert _GrammarHandler.captured["form"]["text"] == ["a apple on sale"]
        assert _GrammarHandler.captured["form"]["language"] == ["en-US"]

    def test_http_error_raises_provider_error(self, grammar_server):
        _GrammarHandler.status = 500
        with pytest.raises(GrammarProviderError):
            LanguageToolClient(grammar_server).check("text")

    @pytest.mark.parametrize(
        "statuses, hits, ok",
        [([503], 2, True), ([503, 503, 503], 2, False), ([400], 1, False)],
    )
    def test_retries_once_after_a_server_error(self, grammar_server, statuses, hits, ok):
        # A 5xx reply gets one retry; a 4xx reply is not sent again.
        _GrammarHandler.statuses = list(statuses)
        client = LanguageToolClient(grammar_server)
        if ok:
            assert client.check("a apple") == [GrammarMatch(0, 1, "an"), GrammarMatch(2, 5, None)]
        else:
            with pytest.raises(GrammarProviderError):
                client.check("a apple")
        assert _GrammarHandler.hits == hits

    @pytest.mark.parametrize(
        "raw",
        [
            b"[]",
            b'{"matches": ["x"]}',
            b'{"matches": {"offset": 0}}',
            b'{"matches": [{"offset": 0, "length": 1, "replacements": ["an"]}]}',
            b'{"matches": [{"offset": 0, "length": 1, "replacements": "an"}]}',
            b'{"matches": [{"offset": 0, "length": 1, "replacements": [{"value": 5}]}]}',
            b'{"matches": [{"offset": "0", "length": 1}]}',
            b'{"matches": [{"offset": 0}]}',
            b'{"matches": [{"offset": 0, "length": null}]}',
        ],
    )
    def test_malformed_response_raises_provider_error(self, grammar_server, raw):
        _GrammarHandler.raw = raw
        with pytest.raises(GrammarProviderError):
            LanguageToolClient(grammar_server).check("text")
        # grammar_correct keeps the text instead of failing the run.
        client = LanguageToolClient(grammar_server)
        assert grammar_correct("a apple", E, client) == "a apple"

    def test_unreachable_raises_provider_error(self):
        with pytest.raises(GrammarProviderError):
            LanguageToolClient("http://127.0.0.1:9").check("text")

    def test_silent_provider_times_out(self):
        # The listening socket completes the connection but is never
        # accepted, so no answer ever comes.
        with socket.create_server(("127.0.0.1", 0)) as server:
            url = f"http://127.0.0.1:{server.getsockname()[1]}"
            client = LanguageToolClient(url, timeout=0.5)
            with pytest.raises(GrammarProviderError):
                client.check("text")
            assert grammar_correct("a apple", E, client) == "a apple"

    def test_factory_selects_provider(self, grammar_server):
        assert isinstance(make_grammar_provider(""), OfflineGrammar)
        assert isinstance(make_grammar_provider(None), OfflineGrammar)
        client = make_grammar_provider(grammar_server)
        assert isinstance(client, LanguageToolClient)
