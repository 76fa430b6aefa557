"""Tests for the constrained beam-search decoder.

The oracle tests compare the beam's top score against exhaustive
enumeration on tiny instances where enumeration is feasible; scoring
equalities are asserted exactly because the engine is built to match
the model's arithmetic bit for bit.
"""

import itertools
import math
import random
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ngram_reference import Reference

from lipogram import decoder, metrics
from lipogram.decoder import (
    MAX_BEAM_CELLS,
    MAX_LOCKSTEP_CELLS,
    ConstraintTables,
    DecodeFailure,
    _BeamEngine,
    _Paragraph,
    _batch_pair_rows,
    _history_cells,
    _lockstep_batches,
    DecoderConfig,
    EmptyVocabulary,
    Hypothesis,
    SearchWords,
    beam_search,
    build_candidate_vocab,
    multiselect,
    parse_config_file,
    top_k,
)
from lipogram.lexicon import Lexicon, LexiconEntry, load_lexicon
from lipogram.metrics import (
    TfidfEmbedder,
    build_idf,
    cosine_similarity,
    embed,
    similarities,
    similarity_bound,
)
from lipogram.ngram import BOS, EOS, train
from lipogram.textcore import (
    ALPHABET,
    ConstraintSet,
    canonical_words,
    split_paragraphs,
    violates,
)

EMPTY_LEX = Lexicon({})
NO_CONSTRAINT = ConstraintSet()
NO_DOCS = build_idf([])  # for tests that read only the tail and the vocabulary
POOL = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]


def tables_of(c, model, idf, M):
    """The ConstraintTables of (c, M) over the SearchWords of (model, idf)."""
    return ConstraintTables(c, SearchWords(model, idf), M)


def vocab_of(source, c, lex, model, M, idf=NO_DOCS):
    """build_candidate_vocab under the ConstraintTables of (c, model, idf, M)."""
    return build_candidate_vocab(source, tables_of(c, model, idf, M), lex)


def search(source, c, cfg, model, idf, lex=EMPTY_LEX):
    """beam_search of source alone under the ConstraintTables of (c, model,
    idf) and the tail size cfg.candidate_vocab_size; a failure is raised."""
    tables = tables_of(c, model, idf, cfg.candidate_vocab_size)
    [found] = beam_search((source,), tables, cfg, lex)
    if isinstance(found, Exception):
        raise found
    return found


def engine_of(sources, c, cfg, model, idf, M):
    """The engine for the sources, each over its vocabulary, under the
    tables of (c, model, idf, M)."""
    tables = tables_of(c, model, idf, M)
    vocabs = [build_candidate_vocab(source, tables, EMPTY_LEX) for source in sources]
    return _BeamEngine(sources, vocabs, cfg, tables)


def has_repeated_ngram(seq, n):
    grams = [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]
    return len(grams) != len(set(grams))


def unreachable_k(engine):
    """A top-k size no pool can reach, so run() never stops early and
    returns every pooled hypothesis."""
    return engine.cfg.beam_width * max(p.max_len for p in engine.paragraphs) + 1


def exhaustive_best(model, vocab, lmin, lmax, n):
    """Highest reference sequence_logscore over every legal sequence, or
    None."""
    ref, best = Reference.of(model), None
    for length in range(lmin, lmax + 1):
        for seq in itertools.product(vocab, repeat=length):
            if has_repeated_ngram(seq, n):
                continue
            score = ref.sequence_logscore(list(seq))
            if best is None or score > best:
                best = score
    return best


def toy_lexicon():
    entries = {
        "cat": LexiconEntry("cat", "cat", ("kitty", "tomcat"), 5),
        "dog": LexiconEntry("dog", "dog", ("hound", "pup"), 4),
    }
    return Lexicon(entries)


class TestDecoderConfig:
    def test_defaults(self):
        cfg = DecoderConfig()
        assert cfg.beam_width == 20
        assert cfg.candidates_k == 10
        assert cfg.no_repeat_ngram == 3
        assert cfg.min_ratio == 0.5
        assert cfg.max_ratio == 1.5
        assert cfg.temperature == 0.90
        assert cfg.lambda_lm == 1.0
        assert cfg.lambda_sim == 5.0
        assert cfg.candidate_vocab_size == 500
        assert cfg.mode == "deterministic"
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidates_k": 0},
            {"beam_width": 3, "candidates_k": 4},
            {"min_ratio": 0.0},
            {"min_ratio": 1.2, "max_ratio": 1.0},
            {"no_repeat_ngram": 1},
            {"temperature": 0.0},
            {"lambda_lm": -0.5},
            {"lambda_sim": -1.0},
            {"candidate_vocab_size": -1},
            {"mode": "greedy"},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecoderConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["min_ratio", "max_ratio", "temperature", "lambda_lm", "lambda_sim"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DecoderConfig(**{field: value})

    def test_from_mapping_coerces_types(self):
        cfg = DecoderConfig.from_mapping(
            {"beam_width": "8", "candidates_k": "4",
             "lambda_sim": "2.5", "mode": "sampled"}
        )
        assert cfg.beam_width == 8
        assert cfg.candidates_k == 4
        assert cfg.lambda_sim == 2.5
        assert cfg.mode == "sampled"

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            DecoderConfig.from_mapping({"beamwidth": "8"})

    def test_from_mapping_rejects_bad_value(self):
        with pytest.raises(ValueError, match="invalid value"):
            DecoderConfig.from_mapping({"beam_width": "wide"})


class TestParseConfigFile:
    def test_parses_values_comments_and_spacing(self, tmp_path):
        path = tmp_path / "decoder.cfg"
        path.write_text(
            "# decoder settings\n"
            "\n"
            "beam_width = 12\n"
            "candidates_k=6\n"
            "  temperature =  0.7  \n",
            encoding="utf-8",
        )
        cfg, extras = parse_config_file(path)
        assert cfg.beam_width == 12
        assert cfg.candidates_k == 6
        assert cfg.temperature == 0.7
        assert extras == {}

    def test_reserved_keys_routed_to_extras(self, tmp_path):
        path = tmp_path / "decoder.cfg"
        path.write_text(
            "beam_width = 4\n"
            "candidates_k = 2\n"
            "grammar.endpoint = http://localhost:8081\n"
            "embed.endpoint =\n"
            "sweep.extras = ae,th\n",
            encoding="utf-8",
        )
        cfg, extras = parse_config_file(path)
        assert cfg.beam_width == 4
        assert extras == {
            "grammar.endpoint": "http://localhost:8081",
            "embed.endpoint": "",
            "sweep.extras": "ae,th",
        }

    def test_unknown_key_errors_with_path(self, tmp_path):
        path = tmp_path / "decoder.cfg"
        path.write_text("not_a_key = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_missing_equals_errors_with_line(self, tmp_path):
        path = tmp_path / "decoder.cfg"
        path.write_text("beam_width 12\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(path)

    @pytest.mark.parametrize("key, first, second", [
        ("beam_width", "10", "30"),
        ("sweep.extras", "ae", "th"),
        ("beam_width", "10", "10"),
    ])
    def test_repeated_key_errors_with_both_lines(self, tmp_path, key, first, second):
        path = tmp_path / "decoder.cfg"
        path.write_text(f"{key}={first}\n# again\n {key} = {second}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            parse_config_file(path)
        assert str(info.value) == f"{path}: line 3: duplicate key {key!r} (first on line 1)"

    def test_bad_value_errors(self, tmp_path):
        path = tmp_path / "decoder.cfg"
        path.write_text("min_ratio = soon\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid value"):
            parse_config_file(path)

    def test_readme_example_parses_to_defaults(self, tmp_path):
        # The example under "Configuration" lists every default, so it
        # must be a file the parser accepts and that changes nothing.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Configuration")[1]
        example = section.split("```")[1]
        path = tmp_path / "decoder.cfg"
        path.write_text(example, encoding="utf-8")
        assert parse_config_file(path) == (DecoderConfig(), {})


class TestBuildCandidateVocab:
    CORPUS = "the cat sat on the mat\n\nthe dog sat on the rug\n\na cat ran"

    def test_source_words_first_in_order(self):
        model = train(self.CORPUS)
        vocab = vocab_of("the cat sat", NO_CONSTRAINT, EMPTY_LEX, model, 0)
        assert vocab == ["the", "cat", "sat"]

    def test_constraint_filters_source_words(self):
        model = train(self.CORPUS)
        vocab = vocab_of(
            "the cat sat", ConstraintSet.from_string("h"), EMPTY_LEX, model, 0
        )
        assert vocab == ["cat", "sat"]

    def test_synonyms_follow_source_words(self):
        model = train(self.CORPUS)
        vocab = vocab_of("a cat ran", NO_CONSTRAINT, toy_lexicon(), model, 0)
        assert vocab == ["a", "cat", "ran", "kitty", "tomcat"]

    def test_a_synonym_that_is_not_one_word_is_skipped(self):
        # The tokenizer splits "x-ray" and cuts "café", "mp3", "'pup" and
        # "\u212aat" (a Kelvin sign, which lowercases to "k") short; only
        # "Kitty" and "it’s" are one canonical word each.
        synonyms = ("x-ray", "café", "mp3", "\u212aat", "Kitty", "it’s", "'pup")
        lex = Lexicon({"cat": LexiconEntry("cat", "cat", synonyms, 5)})
        vocab = vocab_of("a cat", NO_CONSTRAINT, lex, train(self.CORPUS), 0)
        assert vocab == ["a", "cat", "kitty", "it's"]

    def test_model_words_fill_by_frequency_then_alpha(self):
        model = train(self.CORPUS)
        vocab = vocab_of("a cat", NO_CONSTRAINT, EMPTY_LEX, model, 3)
        # Top 3 by count then alphabet: the=4, then cat, on (sat is cut
        # by the cap); "cat" then collapses into the source words.
        assert vocab == ["a", "cat", "the", "on"]

    def test_model_word_cap_applies_before_dedupe(self):
        model = train(self.CORPUS)
        everything = vocab_of("a cat", NO_CONSTRAINT, EMPTY_LEX, model, 100)
        assert set(everything) == {
            "a", "cat", "the", "on", "sat", "mat", "dog", "rug", "ran"
        }

    def test_empty_vocabulary_raises(self):
        model = train(self.CORPUS)
        with pytest.raises(EmptyVocabulary):
            vocab_of(
                "a cat", ConstraintSet.from_string("aeiou"), EMPTY_LEX, model, 100
            )


def full_sort_vocab(source, c, lex, model, M):
    """The candidate vocabulary as first defined: the legal unigram table
    sorted in full by (count desc, word), cut at M after filtering."""
    from lipogram.lexicon import constraint_free_synonyms
    from lipogram.textcore import canonical, tokenize

    ordered = []
    for word in dict.fromkeys(canonical(w) for w in tokenize(source).words()):
        if not violates(word, c) and word not in ordered:
            ordered.append(word)
    for word in dict.fromkeys(canonical(w) for w in tokenize(source).words()):
        for synonym in constraint_free_synonyms(word, c, lex):
            if canonical(synonym) not in ordered:
                ordered.append(canonical(synonym))
    legal = sorted(
        (-count, word)
        for (word,), count in model.grams(1)
        if word not in (BOS, EOS) and not violates(word, c)
    )
    for _, word in legal[:M]:
        if word not in ordered:
            ordered.append(word)
    return ordered


class TestEarlyStoppingVocab:
    """The ranked-list scan that stops after M legal words gives exactly
    the list of the full sort."""

    MODEL = train(
        "the cat sat on the mat and the dog sat by the door\n\n"
        "a quick brown fox jumps over my lazy dog\n\n"
        "by my rhythm shy gypsy lynx fly dry nymphs cry\n\n"
        "we ate it all at noon and so it was"
    )
    SOURCES = ["the cat sat", "my shy dog ran by", "a fox", "zzz the quick"]

    @given(
        letters=st.one_of(
            st.just("aeiou"),
            st.sets(st.sampled_from(ALPHABET), max_size=6).map("".join),
        ),
        M=st.one_of(st.just(0), st.integers(0, 60)),
        source=st.sampled_from(SOURCES),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort(self, letters, M, source):
        c = ConstraintSet.from_string(letters)
        lex = toy_lexicon()
        try:
            got = vocab_of(source, c, lex, self.MODEL, M)
        except EmptyVocabulary:
            got = []
        assert got == full_sort_vocab(source, c, lex, self.MODEL, M)

    def test_m_beyond_legal_count_takes_every_legal_word(self):
        c = ConstraintSet.from_string("aeiou")
        vocab = vocab_of("my shy", c, EMPTY_LEX, self.MODEL, 10_000)
        legal = [w for (w,), _ in self.MODEL.grams(1) if w not in (BOS, EOS)
                 and not violates(w, c)]
        assert sorted(vocab) == sorted(set(legal) | {"my", "shy"})

    def test_ranked_words_order(self):
        uni = dict(self.MODEL.grams(1))
        ranked = [self.MODEL.words[i] for i in self.MODEL.ranked]
        assert BOS not in ranked and EOS not in ranked
        assert ranked == sorted(ranked, key=lambda w: (-uni[(w,)], w))
        assert self.MODEL.ranked.tolist() == list(Reference.of(self.MODEL).ranked)


def argsort_picks(rank, k):
    """The selection as first written: a full stable argsort of -rank,
    cut after k entries and at the first non-finite one."""
    picks = []
    for i in np.argsort(-rank, kind="stable"):
        if len(picks) == k or not np.isfinite(rank[i]):
            break
        picks.append(int(i))
    return picks


def lane_picks(rank, k):
    """argsort_picks of each lane's flattened block of a 3-D rank, as
    (lane, index) lists."""
    lanes, picks = [], []
    for lane, block in enumerate(rank):
        got = argsort_picks(block.ravel(), k)
        lanes += [lane] * len(got)
        picks += got
    return lanes, picks


def reaching(rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the 3-D ``rank`` (lanes, rows, columns) at or above
    their lane's k-th highest rank and above -inf, as (lane, row * columns
    + column, rank) arrays in flat order: all that ``top_k`` needs to pick
    each lane's k best.

    Each lane's k-th highest rank is found with one partition of a copy of
    its block, NaN counting as -inf; the bound is at least ``-finfo.max``,
    so no -inf entry ever reaches it.
    """
    n_lanes = len(rank)
    block = np.fmax(rank.reshape(n_lanes, -1), -np.inf)  # a copy, NaN as -inf
    bound = np.full(n_lanes, -np.finfo(float).max)
    n = block.shape[1]
    if n >= k:
        block.partition(n - k, axis=1)
        np.maximum(block[:, n - k], bound, out=bound)
    found = np.flatnonzero(rank >= bound[:, None, None])
    lanes, at = np.divmod(found, n)
    return lanes, at, rank.ravel()[found]


def dense_scores(engine, batch, rows, step):
    """The reference scorer, patched in for ``_BeamEngine._sparse_scores``:
    every cell of every row, on (rows, V) matrices, then Gumbel noise on
    each sampled lane's real cells. Returns the cells that reach their
    lane's beam_width-th highest rank (``reaching``) as (lane, row-in-lane
    * V + word, rank) arrays, and their LM, dot, sum-of-squares,
    similarity and combined scores as a (5, cells) array.

    The similarity matrix holds the bigram squares first; the scratch
    matrix holds the square roots, then the weighted similarity, then in
    sampled mode the rank.
    """
    cfg, ln, V, B = engine.cfg, batch.lanes, batch.V, rows.B
    L = len(ln.ids)
    R = L * B
    mats = np.empty((6, R, V))
    lm, dot, ssq, sim, comb, rank = mats
    _, ((pairs, values), source_bigrams), writes = engine._pairs(batch, rows)
    logs, squares = values.T
    backoff, src_uni, idf_sq = np.moveaxis(ln.table[:, :, :3], -1, 0)

    np.copyto(lm.reshape(L, B, V), backoff[:, None])
    for cells, logs in [(pairs, logs)] + writes:
        lm.ravel()[cells] = logs
    lm += rows.beam[0, :, None]
    np.copyto(dot.reshape(L, B, V), src_uni[:, None])
    dot += rows.beam[1, :, None]
    np.copyto(ssq.reshape(L, B, V), idf_sq[:, None])
    ssq += rows.beam[2, :, None]
    if step > 1:
        bigram_sq = sim
        bigram_sq.fill(engine._default_sq)
        bigram_sq.ravel()[pairs] = squares
        ssq += bigram_sq
        # Source bigrams are sparse; everywhere else the term is 0.
        dot.ravel()[source_bigrams[0]] += source_bigrams[1]
        follower_sq = bigram_sq.ravel()[rows.followed]
        # Repeated-feature corrections: tf goes k -> k+1, adding idf^2 * 2k
        # on top of the fresh-feature idf^2 baseline (0 for the words a
        # beam does not hold).
        held = (np.arange(R) * V)[:, None] + rows.history
        ssq.ravel()[held] += (
            idf_sq.ravel()[(np.arange(R) // B * V)[:, None] + rows.history]
            * (2 * np.bincount(held.ravel(), minlength=R * V)[held])
        )
        ssq.ravel()[rows.followed] += follower_sq * (2 * rows.counts)

    # Cells past a lane's vocabulary hold the zero padding, so they may
    # divide 0 by 0; they rank at -inf below.
    with np.errstate(invalid="ignore"):
        engine._mix(lm, dot, ssq, sim, comb, rank)
    comb.ravel()[rows.bans] = -np.inf
    padded = np.arange(V) >= ln.widths[:, None]
    np.copyto(comb.reshape(L, B, V), -np.inf, where=padded[:, None])
    comb[~rows.live] = -np.inf

    if ln.rngs[0] is not None:
        # Gumbel noise is drawn only for a lane's real cells; every other
        # cell ranks at -inf already.
        np.divide(comb, cfg.temperature, out=rank)
        drawn = rank.reshape(L, B, V)
        for i, (rng, n, width) in enumerate(zip(ln.rngs, rows.n_beams, ln.widths)):
            drawn[i, :n, :width] += rng.gumbel(size=n * width).reshape(n, width)
    else:
        rank = comb
    lanes, at, ranked = reaching(rank.reshape(L, B, V), cfg.beam_width)
    return lanes, at, ranked, mats[:5].reshape(5, -1)[:, lanes * (B * V) + at]


def top_k_lists(rank, k):
    lanes, picks, values = reaching(rank, k)
    keep, places = top_k(lanes, picks, values, k)
    kept = lanes[keep].tolist()
    assert places.tolist() == [kept[:i].count(lane) for i, lane in enumerate(kept)]
    return kept, picks[keep].tolist()


# Few distinct levels, so exact ties across the k boundary are common.
TIED = st.sampled_from([-np.inf, -2.5, -1.0, -1.0 + 2**-40, 0.0, 0.75, 3.0])


def blocks(values, max_lanes=4, max_rows=6, max_cols=8):
    """3-D (lanes, rows, columns) arrays of the given values."""
    return st.tuples(
        st.integers(1, max_lanes), st.integers(1, max_rows), st.integers(1, max_cols)
    ).flatmap(
        lambda shape: st.lists(
            values, min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda v: np.array(v, dtype=float).reshape(shape))
    )


class TestTopK:
    """top_k picks each lane's entries as a stable argsort of its
    flattened block would, cut after k and at the first non-finite one."""

    @given(rank=blocks(TIED), k=st.integers(1, 40))
    @settings(max_examples=400, deadline=None)
    def test_ties_and_bans_match_stable_argsort(self, rank, k):
        assert top_k_lists(rank, k) == lane_picks(rank, k)

    @given(
        comb=blocks(TIED),
        k=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        temperature=st.sampled_from([0.9, 1.0, 0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_gumbel_ranks_match_stable_argsort(self, comb, k, seed, temperature):
        rng = np.random.default_rng(seed)
        rank = comb / temperature + rng.gumbel(size=comb.shape)
        assert top_k_lists(rank, k) == lane_picks(rank, k)

    @given(
        finite=st.lists(st.integers(0, 10), min_size=1, max_size=4),
        k=st.integers(11, 30),
    )
    def test_fewer_finite_entries_than_k(self, finite, k):
        rank = np.full((len(finite), 5, 5), -np.inf)
        for lane, n in enumerate(finite):
            rank[lane].ravel()[:n] = 1.0
        assert top_k_lists(rank, k) == (
            [lane for lane, n in enumerate(finite) for _ in range(n)],
            [i for n in finite for i in range(n)],
        )

    def test_non_finite_ranks(self):
        rank = np.array([[[1.0, np.nan, 2.0, -np.inf, 2.0]]])
        assert top_k_lists(rank, 5) == lane_picks(rank, 5) == ([0, 0, 0], [2, 4, 0])
        rank = np.array([[[1.0, np.inf, 2.0]], [[1.0, 0.5, 2.0]]])
        assert top_k_lists(rank, 2) == lane_picks(rank, 2) == ([1, 1], [2, 0])
        rank = np.array([[[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0]]])
        assert top_k_lists(rank, 2) == lane_picks(rank, 2) == ([], [])
        rank = np.array([[[np.nan, 1.0], [0.5, np.nan], [-np.inf, 0.0]]])
        assert top_k_lists(rank, 2) == lane_picks(rank, 2) == ([0, 0], [1, 2])

    @given(
        blocks_=st.lists(blocks(TIED, max_lanes=1, max_cols=10), min_size=1, max_size=4),
        rows=st.integers(1, 6),
        k=st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_padded_lanes_pick_as_alone(self, blocks_, rows, k):
        """Lanes padded to a common (rows, columns) shape with -inf, as the
        engine stacks them, pick exactly what each picks alone, with each
        index mapped from its own width to the padded one."""
        width = max(b.shape[2] for b in blocks_)
        rows = max(rows, max(b.shape[1] for b in blocks_))
        rank = np.full((len(blocks_), rows, width), -np.inf)
        want_lanes, want_picks = [], []
        for lane, block in enumerate(blocks_):
            _, n_rows, n_cols = block.shape
            rank[lane, :n_rows, :n_cols] = block[0]
            for pick in top_k_lists(block, k)[1]:
                want_lanes.append(lane)
                want_picks.append(pick // n_cols * width + pick % n_cols)
        assert top_k_lists(rank, k) == (want_lanes, want_picks)


class TestOracleEquivalence:
    def test_beam_matches_exhaustive_optimum_exactly(self):
        """With lambda_sim=0 and a huge beam, top score == true optimum."""
        for i in range(50):
            rng = random.Random(1000 + i)
            n_words = rng.randint(2, 5)
            vocab = POOL[:n_words]
            paras = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
                for _ in range(rng.randint(2, 4))
            ]
            model = train("\n\n".join(paras), order=rng.choice([2, 3]))
            source = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            n = rng.choice([2, 3])
            cfg = DecoderConfig(
                beam_width=1000,
                candidates_k=1,
                no_repeat_ngram=n,
                lambda_sim=0.0,
                candidate_vocab_size=50,
            )
            idf = build_idf(paras)
            source_len = len(source.split())
            lmin = math.ceil(0.5 * source_len)
            lmax = math.floor(1.5 * source_len)
            oracle = exhaustive_best(model, vocab, lmin, lmax, n)
            try:
                top = search(source, NO_CONSTRAINT, cfg, model, idf)[0]
            except DecodeFailure:
                assert oracle is None, f"instance {i}: beam failed, oracle {oracle}"
                continue
            assert top.combined == oracle, f"instance {i}"
            assert top.lm_score == Reference.of(model).sequence_logscore(list(top.tokens))
            assert top.combined == top.lm_score  # lambda_sim is zero


class TestScoringInvariants:
    CORPUS = "big cat sat on a mat\n\nbig dog ran to a cat\n\na cat sat"

    def decode(self, **overrides):
        model = train(self.CORPUS)
        paras = self.CORPUS.split("\n\n")
        embedder = TfidfEmbedder(build_idf(paras))
        params = {"beam_width": 16, "candidates_k": 8, "candidate_vocab_size": 20}
        params.update(overrides)
        cfg = DecoderConfig(**params)
        hyps = search("big cat sat on a mat", NO_CONSTRAINT, cfg, model, embedder.idf)
        return hyps, model, embedder

    def test_combined_is_weighted_sum(self):
        hyps, _, _ = self.decode(lambda_lm=1.0, lambda_sim=5.0)
        for h in hyps:
            assert abs(h.combined - (1.0 * h.lm_score + 5.0 * h.sim_score)) < 1e-12

    def test_lm_score_matches_model_exactly(self):
        hyps, model, _ = self.decode()
        ref = Reference.of(model)
        for h in hyps:
            assert h.lm_score == ref.sequence_logscore(list(h.tokens))

    def test_incremental_similarity_matches_reembedding(self):
        hyps, _, embedder = self.decode()
        source_vec = embed("big cat sat on a mat", embedder.idf)
        for h in hyps:
            full = cosine_similarity(source_vec, embed(h.text(), embedder.idf))
            assert abs(h.sim_score - full) < 1e-9

    def test_results_sorted_by_combined_desc(self):
        hyps, _, _ = self.decode()
        assert all(
            hyps[i].combined >= hyps[i + 1].combined for i in range(len(hyps) - 1)
        )

    def test_pure_similarity_objective_reconstructs_source(self):
        hyps, _, _ = self.decode(lambda_lm=0.0, lambda_sim=1.0, beam_width=200,
                                 candidates_k=10, candidate_vocab_size=0)
        top = hyps[0]
        assert top.tokens == ("big", "cat", "sat", "on", "a", "mat")
        assert top.sim_score >= 1.0 - 1e-9

    def test_no_repeat_ngram_holds_on_outputs(self):
        hyps, _, _ = self.decode(no_repeat_ngram=2)
        for h in hyps:
            assert not has_repeated_ngram(h.tokens, 2)


class TestPoolScores:
    """Every pooled hypothesis, not only the returned top ones, carries the
    scores a full recomputation from its tokens gives: the LM score bit for
    bit and the similarity to 1e-9, including hypotheses that repeat words
    and bigrams, where the tf > 1 sum-of-squares corrections apply. The
    engine runs three sources in one batch with an unreachable k, so every
    lane goes to its maximum length and every pooled hypothesis comes
    back.

    The IDF table is built from other documents than the model: two of the
    model's three paragraphs, and one with words the model lacks ("qi",
    "pup"), which the sources use too. So the step's pairs include LM
    continuations that are no IDF bigram and IDF bigrams that are no LM
    continuation, each with the other value filled in, and vocabularies
    include words only the IDF table knows."""

    def test_every_pooled_hypothesis_rescored(self):
        repeated_bigrams = 0
        reached = {"lm only": 0, "idf only": 0, "idf word": 0}
        real = _BeamEngine._pairs

        def recording(engine, batch, rows):
            """``_pairs``, counting the pairs of the step by kind."""
            found = real(engine, batch, rows)
            (cells, _), _ = found[1]
            row, second = np.divmod(cells, batch.V)
            lane = row // rows.B
            for r, j, w in zip(row, lane, second):
                para = engine.paragraphs[batch.lanes.ids[j]]
                k = rows.keys[r] - batch.lanes.keys[j]
                first = para.vocab[k] if k < len(para.vocab) else BOS
                lm = para.vocab[w] in ref.continuations((first,))
                idf = f"{first} {para.vocab[w]}" in engine.tables.words.idf.values
                reached["lm only"] += lm and not idf
                reached["idf only"] += idf and not lm
            return found

        for i in range(20):
            rng = random.Random(2000 + i)
            words = POOL[: rng.randint(2, 4)]
            paras = [
                " ".join(rng.choice(words) for _ in range(rng.randint(3, 8)))
                for _ in range(3)
            ]
            model = train("\n\n".join(paras), order=rng.choice([2, 3, 4]))
            ref = Reference.of(model)
            more = words + ["qi", "pup"]
            idf = build_idf(
                paras[:2] + [" ".join(rng.choice(more) for _ in range(rng.randint(3, 8)))]
            )
            sources = [
                " ".join(rng.choice(more) for _ in range(rng.randint(3, 7)))
                for _ in range(3)
            ]
            cfg = DecoderConfig(beam_width=12, candidates_k=1, no_repeat_ngram=6)
            engine = engine_of(sources, NO_CONSTRAINT, cfg, model, idf, 10)
            reached["idf word"] += sum(
                w in idf.values and w not in model.ids
                for p in engine.paragraphs for w in p.vocab
            )
            with mock.patch.object(_BeamEngine, "_pairs", recording):
                pools = engine.run(unreachable_k(engine))
            for source, pool in zip(sources, pools):
                source_vec = embed(source, idf)
                for h in pool:
                    assert h.lm_score == ref.sequence_logscore(list(h.tokens))
                    full = cosine_similarity(source_vec, embed(h.text(), idf))
                    assert abs(h.sim_score - full) < 1e-9, (i, h.tokens)
                    repeated_bigrams += has_repeated_ngram(h.tokens, 2)
        assert repeated_bigrams > 0
        assert min(reached.values()) > 0, reached


def reference_search(source, c, cfg, model, idf):
    """beam_search of one source as it was without the early stop: every
    engine run gets an unreachable k and goes to the maximum length."""
    engine = engine_of([source], c, cfg, model, idf, cfg.candidate_vocab_size)
    k = unreachable_k(engine)
    if cfg.mode == "deterministic":
        [found] = engine.run(k)
        if isinstance(found, DecodeFailure):
            raise found
        return found[: cfg.candidates_k]
    winners = []
    for i in range(cfg.candidates_k):
        [found] = engine.run(k, [(0, np.random.default_rng([cfg.seed, i]))])
        if not isinstance(found, DecodeFailure):
            winners.append(found[0])
    if not winners:
        raise DecodeFailure("every sampled run failed")
    winners.sort(key=lambda h: (-h.combined, h.tokens))
    return winners


def outcome(search, *args):
    try:
        return search(*args)
    except (EmptyVocabulary, DecodeFailure) as exc:
        return type(exc)


class TestEarlyStop:
    """The search stops once no later hypothesis can enter the top k. The
    result must equal a search that runs every beam to the maximum length:
    the same hypotheses, tokens and all three scores, in the same order.
    Up to three sources run in one batch, sometimes under a cell budget
    that splits them into batches of one."""

    WORDS = ["aa", "ab", "bc", "cd", "de", "ea", "bd", "ce"]

    @given(
        paras=st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
            min_size=1, max_size=4,
        ),
        sources=st.lists(
            st.lists(st.sampled_from(WORDS + ["zz"]), min_size=1, max_size=7),
            min_size=1, max_size=3,
        ),
        letters=st.sets(st.sampled_from("abcde"), max_size=2),
        order=st.integers(1, 4),
        alpha=st.sampled_from([0.4, 1.0]),
        widths=st.integers(1, 6).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(1, w))
        ),
        lambdas=st.sampled_from(
            [(1.0, 5.0), (1.0, 0.0), (0.0, 1.0), (0.5, 2.0), (0.0, 0.0)]
        ),
        no_repeat=st.integers(2, 4),
        max_ratio=st.sampled_from([1.5, 3.0]),
        mode=st.sampled_from(["deterministic", "sampled"]),
        seed=st.integers(0, 3),
        budget=st.sampled_from([MAX_LOCKSTEP_CELLS, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_search_to_maximum_length(
        self, paras, sources, letters, order, alpha, widths, lambdas,
        no_repeat, max_ratio, mode, seed, budget,
    ):
        texts = [" ".join(p) for p in paras]
        model = train("\n\n".join(texts), order=order, alpha=alpha)
        idf = build_idf(texts)
        beam_width, candidates_k = widths
        cfg = DecoderConfig(
            beam_width=beam_width, candidates_k=candidates_k,
            no_repeat_ngram=no_repeat, max_ratio=max_ratio,
            lambda_lm=lambdas[0], lambda_sim=lambdas[1],
            candidate_vocab_size=10, mode=mode, seed=seed,
        )
        c = ConstraintSet.from_string("".join(letters))
        sources = [" ".join(s) for s in sources]
        tables = tables_of(c, model, idf, cfg.candidate_vocab_size)
        with mock.patch.object(decoder, "MAX_LOCKSTEP_CELLS", budget):
            batched = beam_search(tuple(sources), tables, cfg, EMPTY_LEX)
        for source, found in zip(sources, batched):
            got = type(found) if isinstance(found, Exception) else found
            assert got == outcome(reference_search, source, c, cfg, model, idf)

    def test_stop_ends_the_search_early(self):
        """On a long source the top few are settled well before the
        maximum length, so the stopping search takes fewer steps."""
        corpus = "aa bb cc dd ee\n\nbb cc aa ee dd\n\ncc dd ee aa bb"
        model = train(corpus)
        idf = build_idf(corpus.split("\n\n"))
        source = " ".join(["aa bb cc dd ee"] * 4)
        cfg = DecoderConfig(beam_width=8, candidates_k=2)
        engine = engine_of([source], NO_CONSTRAINT, cfg, model, idf, 10)
        max_len = engine.paragraphs[0].max_len
        steps = []
        pairs = engine._pairs

        def counted_pairs(*args):  # called once per lockstep step
            steps.append(None)
            return pairs(*args)

        engine._pairs = counted_pairs
        [fast] = engine.run(cfg.candidates_k)
        fast_steps = len(steps)
        steps.clear()
        [full] = engine.run(unreachable_k(engine))
        assert fast == full[: cfg.candidates_k]
        assert len(steps) == max_len
        assert fast_steps < max_len


class TestSparseStep:
    """The step scores only the cells that can reach a lane's top
    beam_width. Its searches, in both modes, must equal those with the
    dense reference scorer patched in: every pooled hypothesis (an
    unreachable k keeps them all), with its tokens and all three scores,
    in the same order."""

    # 200 two- and three-letter words, for corpora of 40-200 of them.
    POOL = [a + b for a in "bcdfghklmnprst" for b in "aiou"] + [
        a + b + c for a in "bdfgkmprt" for b in "aiou" for c in "lnrs"
    ]

    @staticmethod
    def corpus(rng, n_words):
        """Paragraphs over the first n_words of the pool, each word used at
        least once; most words are rare, so many share a backoff score."""
        words = TestSparseStep.POOL[:n_words]
        tokens = words + [rng.choice(words[: max(4, n_words // 8)]) for _ in range(n_words)]
        tokens += rng.choices(words, k=n_words)
        rng.shuffle(tokens)
        cut = sorted(rng.sample(range(1, len(tokens)), 4))
        return [" ".join(tokens[a:b]) for a, b in zip([0] + cut, cut + [len(tokens)])]

    def test_sparse_scorer_equals_the_dense_one(self):
        skipped = {"deterministic": [], "sampled": []}
        real = _BeamEngine._generic_cells

        def counting(engine, batch, rows, step, threshold, noise):
            found = real(engine, batch, rows, step, threshold, noise)
            generic = batch.lanes.n_generic[rows.layout.lane][rows.live].sum()
            skipped[engine.cfg.mode].append(int(generic) - len(found))
            return found

        @given(
            seed=st.integers(0, 2**32 - 1),
            n_words=st.integers(40, len(self.POOL)),
            n_sources=st.integers(1, 3),
            order=st.integers(1, 4),
            widths=st.integers(1, 6).flatmap(
                lambda w: st.tuples(st.just(w), st.integers(1, w))
            ),
            lambdas=st.sampled_from([(1.0, 5.0), (1.0, 0.0), (0.0, 1.0), (0.5, 2.0)]),
            no_repeat=st.integers(2, 4),
            budget=st.sampled_from([MAX_LOCKSTEP_CELLS, 1]),
            mode=st.sampled_from(["deterministic", "sampled"]),
            temperature=st.sampled_from([0.3, 0.9, 2.0]),
        )
        @settings(max_examples=300, deadline=None)
        def check(
            seed, n_words, n_sources, order, widths, lambdas, no_repeat, budget,
            mode, temperature,
        ):
            rng = random.Random(seed)
            texts = self.corpus(rng, n_words)
            model = train("\n\n".join(texts), order=order)
            idf = build_idf(texts)
            # Sources repeat words, and reach past the corpus's words.
            sources = [
                " ".join(rng.choices(self.POOL[: n_words + 10], k=rng.randint(2, 12)))
                for _ in range(n_sources)
            ]
            beam_width, candidates_k = widths
            cfg = DecoderConfig(
                beam_width=beam_width, candidates_k=candidates_k,
                no_repeat_ngram=no_repeat, lambda_lm=lambdas[0], lambda_sim=lambdas[1],
                candidate_vocab_size=n_words, mode=mode, temperature=temperature,
            )
            engine = engine_of(sources, NO_CONSTRAINT, cfg, model, idf, n_words)
            k = unreachable_k(engine)

            def lanes():
                """A fresh generator per lane and run, as beam_search makes."""
                if mode == "deterministic":
                    return None
                return [
                    (p, np.random.default_rng([seed, r]))
                    for p in range(n_sources) for r in range(candidates_k)
                ]

            with mock.patch.object(decoder, "MAX_LOCKSTEP_CELLS", budget):
                with mock.patch.object(_BeamEngine, "_generic_cells", counting):
                    sparse = engine.run(k, lanes())
                with mock.patch.object(_BeamEngine, "_sparse_scores", dense_scores):
                    dense = engine.run(k, lanes())
            assert sparse == dense

        check()
        assert sum(skipped["deterministic"]) > 0
        assert sum(skipped["sampled"]) > 0


class TestLengthBounds:
    def test_fractional_ratios_round_inward(self):
        corpus = "aa bb cc\n\nbb cc aa\n\ncc aa bb"
        model = train(corpus)
        idf = build_idf(corpus.split("\n\n"))
        cfg = DecoderConfig(
            beam_width=8, candidates_k=4, min_ratio=0.7, max_ratio=1.2,
            candidate_vocab_size=10,
        )
        hyps = search("aa bb cc", NO_CONSTRAINT, cfg, model, idf)
        # ceil(0.7*3)=3 and floor(1.2*3)=3: every output has exactly 3 tokens.
        assert hyps and all(len(h.tokens) == 3 for h in hyps)

    def test_impossible_window_is_a_decode_failure(self):
        corpus = "aa bb cc\n\nbb cc aa"
        model = train(corpus)
        idf = build_idf(corpus.split("\n\n"))
        cfg = DecoderConfig(
            beam_width=4, candidates_k=2, min_ratio=0.5, max_ratio=0.55,
            candidate_vocab_size=10,
        )
        # ceil(0.5*3)=2 > floor(0.55*3)=1: no legal length exists.
        with pytest.raises(DecodeFailure):
            search("aa bb cc", NO_CONSTRAINT, cfg, model, idf)

    def test_strangled_search_is_a_decode_failure(self):
        # One word and bigram no-repeat: "aa aa aa" needs (aa, aa) twice,
        # so no beam ever reaches the minimum length of 3.
        corpus = "aa aa aa aa aa"
        model = train(corpus)
        idf = build_idf([corpus])
        cfg = DecoderConfig(
            beam_width=4, candidates_k=2, no_repeat_ngram=2,
            candidate_vocab_size=5,
        )
        with pytest.raises(DecodeFailure):
            search("aa aa aa aa aa", NO_CONSTRAINT, cfg, model, idf)


class TestDeterminismAndSampling:
    CORPUS = "the cat sat on the mat\n\nthe dog ran\n\na cat and a dog"

    def run_once(self, mode="deterministic", seed=0):
        model = train(self.CORPUS)
        idf = build_idf(self.CORPUS.split("\n\n"))
        cfg = DecoderConfig(
            beam_width=8, candidates_k=4, candidate_vocab_size=10,
            mode=mode, seed=seed,
        )
        return search("the cat sat", NO_CONSTRAINT, cfg, model, idf)

    def test_deterministic_mode_is_repeatable(self):
        assert self.run_once() == self.run_once()

    def test_sampled_mode_is_repeatable_for_a_seed(self):
        first = self.run_once(mode="sampled", seed=7)
        second = self.run_once(mode="sampled", seed=7)
        assert first == second
        assert 1 <= len(first) <= 4

    def test_sampled_outputs_obey_search_contract(self):
        for h in self.run_once(mode="sampled", seed=3):
            assert 2 <= len(h.tokens) <= 4  # ceil(0.5*3) .. floor(1.5*3)
            assert not has_repeated_ngram(h.tokens, 3)


class TestBeamWidthMonotonicity:
    def test_wider_beams_never_score_worse(self):
        """The top combined score is nondecreasing in beam width."""
        for i in range(40):
            rng = random.Random(5000 + i)
            n_words = rng.randint(3, 8)
            vocab = POOL[:n_words]
            paras = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 8)))
                for _ in range(rng.randint(2, 5))
            ]
            model = train("\n\n".join(paras), order=rng.choice([2, 3]))
            source = " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
            lam_sim = rng.choice([0.0, 1.0, 5.0])
            n = rng.choice([2, 3])
            idf = build_idf(paras)
            previous = None
            for width in (1, 2, 4, 8, 16):
                cfg = DecoderConfig(
                    beam_width=width, candidates_k=1, no_repeat_ngram=n,
                    lambda_sim=lam_sim, candidate_vocab_size=50,
                )
                try:
                    score = search(source, NO_CONSTRAINT, cfg, model, idf)[0].combined
                except DecodeFailure:
                    continue
                if previous is not None:
                    assert score >= previous - 1e-12, f"instance {i} width {width}"
                previous = score


class TestBeamSearchGuards:
    CORPUS = "the cat sat\n\nthe dog ran"

    def test_wordless_source_rejected(self):
        model = train(self.CORPUS)
        idf = build_idf(self.CORPUS.split("\n\n"))
        with pytest.raises(ValueError, match="no words"):
            search("1234 !!", NO_CONSTRAINT, DecoderConfig(), model, idf)

    def test_empty_vocabulary_propagates(self):
        model = train(self.CORPUS)
        idf = build_idf(self.CORPUS.split("\n\n"))
        with pytest.raises(EmptyVocabulary):
            search("the cat", ConstraintSet.from_string("aeiou"),
                   DecoderConfig(), model, idf)


class TestMultiselect:
    DOCS = ["the cat sat on the mat", "the dog ran far", "a bird flew home"]

    def embedder(self):
        return TfidfEmbedder(build_idf(self.DOCS))

    @staticmethod
    def hyp(text):
        return Hypothesis(tuple(text.split()), -1.0, 0.0, -1.0)

    def test_picks_most_similar_candidate(self):
        candidates = [
            self.hyp("a bird flew home"),
            self.hyp("the cat sat on the mat"),
            self.hyp("the dog ran far"),
        ]
        chosen = multiselect(candidates, "the cat sat on the mat", self.embedder())
        assert chosen is candidates[1]

    def test_exhaustive_argmax_agreement(self):
        candidates = [self.hyp(d) for d in self.DOCS] + [
            self.hyp("the cat sat"),
            self.hyp("dog far ran the"),
        ]
        source = "the dog ran far away"
        embedder = self.embedder()
        chosen = multiselect(candidates, source, embedder)
        source_vec = embed(source, embedder.idf)
        sims = [
            cosine_similarity(source_vec, embed(h.text(), embedder.idf))
            for h in candidates
        ]
        assert (
            cosine_similarity(source_vec, embed(chosen.text(), embedder.idf))
            == max(sims)
        )

    def test_tie_keeps_earliest(self):
        candidates = [self.hyp("the cat sat"), self.hyp("the cat sat")]
        chosen = multiselect(candidates, "the cat sat", self.embedder())
        assert chosen is candidates[0]

    def test_single_candidate_returned(self):
        only = self.hyp("the dog ran")
        assert multiselect([only], "anything here", self.embedder()) is only

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            multiselect([], "the cat", self.embedder())

    def test_one_embed_call_source_first(self):
        # A remote provider pays one round trip per call.
        candidates = [self.hyp(d) for d in self.DOCS]
        seen = []
        embedder = self.embedder()

        class Recording:
            def embed_many(self, texts):
                seen.append(list(texts))
                return embedder.embed_many(texts)

        multiselect(candidates, "the dog ran far away", Recording())
        assert seen == [["the dog ran far away", *self.DOCS]]

    def test_sim_scores_are_used_only_under_the_search_table(self):
        candidates = [self.hyp(d) for d in self.DOCS]
        embedder = self.embedder()
        same_values = TfidfEmbedder(build_idf(self.DOCS))
        with mock.patch.object(
            decoder, "most_similar", wraps=metrics.most_similar
        ) as spy:
            multiselect(candidates, "the cat", embedder, embedder.idf)
            multiselect(candidates, "the cat", same_values, embedder.idf)
            multiselect(candidates, "the cat", embedder)
        assert [call.args[3] for call in spy.call_args_list] == [
            [h.sim_score for h in candidates], None, None
        ]

    # A synonym the tokenizer splits ("x-ray", "ray-ray") or cuts short
    # ("café") would be one feature to the search but other features to
    # embed; only "xray" is one canonical word.
    XRAY_PARAS = ["the scan of a ray", "x ray of the bone", "a mail to the cat"]
    XRAY_LEX = Lexicon({
        "scan": LexiconEntry("scan", "scan", ("x-ray", "ray-ray", "xray", "café"), 3)
    })

    def xray_search(self):
        """A search of a source made of "scan" and the pieces of its
        synonyms, weighted toward similarity; returns (source, tables,
        its candidates)."""
        tables = tables_of(
            ConstraintSet.from_string("n"), train("\n\n".join(self.XRAY_PARAS), order=2),
            build_idf(self.XRAY_PARAS), 0,
        )
        source = "ray scan scan ray scan"
        cfg = DecoderConfig(
            beam_width=6, candidates_k=6, candidate_vocab_size=0, lambda_lm=0.2
        )
        [found] = beam_search((source,), tables, cfg, self.XRAY_LEX)
        return source, tables, found

    def test_sim_scores_are_used_only_when_tokens_are_words(self):
        source, tables, found = self.xray_search()
        assert all(canonical_words(h.text()) == list(h.tokens) for h in found)
        embedder = TfidfEmbedder(tables.words.idf)
        with mock.patch.object(
            decoder, "most_similar", wraps=metrics.most_similar
        ) as spy:
            multiselect(found, source, embedder, tables.words.idf)
        assert spy.call_args.args[3] == [h.sim_score for h in found]

    def test_a_synonym_that_is_not_one_word_is_scored_exactly(self):
        # "x-ray" and "ray-ray" are not search words, so no candidate
        # holds one, and the pick from sim_score is the pick from scoring
        # every text.
        source, tables, found = self.xray_search()
        assert {t for h in found for t in h.tokens} <= {"ray", "xray"}
        embedder = TfidfEmbedder(tables.words.idf)
        sims = similarities(embedder, source, [h.text() for h in found])
        chosen = multiselect(found, source, embedder, tables.words.idf)
        assert chosen is found[sims.index(max(sims))]


class TestSimScorePrecondition:
    """multiselect may rank by ``sim_score`` only because every returned
    hypothesis's sim_score lies within ``similarity_bound`` of the
    similarity the built-in embedder over the search's IDF table gives
    its text: checked on random searches in both modes, including
    hypotheses that repeat words and bigrams."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["deterministic", "sampled"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sim_scores_within_the_bound(self, seed, mode):
        rng = random.Random(seed)
        words = POOL[: rng.randint(2, 6)]
        paras = [
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 9)))
            for _ in range(rng.randint(1, 4))
        ]
        model = train("\n\n".join(paras), order=rng.choice([2, 3]))
        tables = tables_of(
            ConstraintSet.from_string(rng.choice(["", "h", "ab"])),
            model, build_idf(paras), 8,
        )
        sources = [
            " ".join(rng.choice(POOL) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        ]
        cfg = DecoderConfig(
            beam_width=6, candidates_k=3, candidate_vocab_size=8, mode=mode,
            seed=rng.randint(0, 9), no_repeat_ngram=rng.choice([2, 3, 6]),
        )
        embedder = TfidfEmbedder(tables.words.idf)
        for source, found in zip(sources, beam_search(sources, tables, cfg, EMPTY_LEX)):
            if isinstance(found, Exception):
                continue
            for h in found:
                (exact,) = similarities(embedder, source, [h.text()])
                assert abs(h.sim_score - exact) <= similarity_bound([h.text()])

    # Synonyms the tokenizer splits or cuts short: "x-ray" into two
    # words, "mp3" and "café" each into a shorter one.
    LEX = Lexicon({
        "hh": LexiconEntry("hh", "hh", ("x-ray", "bb-dd", "mp3"), 3),
        "gg": LexiconEntry("gg", "gg", ("café", "dd-ee", "ee"), 2),
    })
    SOURCE_WORDS = ["hh", "gg", "x", "ray", "ray", "x ray", "mp", "caf", "bb dd", "dd ee"]

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["deterministic", "sampled"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiselect_picks_as_scoring_every_text(self, seed, mode):
        """With lexicon synonyms that are not one word, which the search
        leaves out, every hypothesis's tokens are its text's words, its
        sim_score is within the bound, and multiselect picks the first
        candidate of highest `similarities` score. The sources repeat the
        synonyms' pieces, and the language model weighs little, so that
        such a synonym would reach the final list if it were searched."""
        rng = random.Random(seed)
        words = POOL[: rng.randint(2, 6)]
        paras = [
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 9)))
            for _ in range(rng.randint(1, 4))
        ]
        model = train("\n\n".join(paras), order=rng.choice([2, 3]))
        M = rng.choice([0, 8])
        tables = tables_of(
            ConstraintSet.from_string(rng.choice(["h", "g", "gh"])),
            model, build_idf([*paras, "x ray mp bb dd caf"]), M,
        )
        sources = [
            " ".join(rng.choice(self.SOURCE_WORDS) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        ]
        cfg = DecoderConfig(
            beam_width=6, candidates_k=rng.choice([3, 6]), candidate_vocab_size=M,
            mode=mode, seed=rng.randint(0, 9), lambda_lm=rng.choice([0.0, 0.2]),
        )
        embedder = TfidfEmbedder(tables.words.idf)
        for source, found in zip(sources, beam_search(sources, tables, cfg, self.LEX)):
            if isinstance(found, Exception):
                continue
            texts = [h.text() for h in found]
            for h, text in zip(found, texts):
                assert canonical_words(text) == list(h.tokens)
                (exact,) = similarities(embedder, source, [text])
                assert abs(h.sim_score - exact) <= similarity_bound([text])
            sims = similarities(embedder, source, texts)
            chosen = multiselect(found, source, embedder, tables.words.idf)
            assert chosen is found[sims.index(max(sims))]


class TestDecodeFuzz:
    WORDS = ["cat", "dog", "cot", "tad", "god", "act"]
    CORPUS = "\n\n".join(
        [
            "cat dog cot tad",
            "dog god act cat",
            "cot cat dog act tad",
            "god tad cot dog",
        ]
    )

    @given(
        source_ix=st.lists(st.integers(0, 5), min_size=2, max_size=5),
        letters=st.sets(st.sampled_from("adg"), max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_outputs_respect_constraint_lengths_and_order(self, source_ix, letters):
        model = train(self.CORPUS)
        idf = build_idf(self.CORPUS.split("\n\n"))
        source = " ".join(self.WORDS[i] for i in source_ix)
        c = ConstraintSet.from_string("".join(letters))
        cfg = DecoderConfig(
            beam_width=6, candidates_k=3, candidate_vocab_size=10
        )
        try:
            hyps = search(source, c, cfg, model, idf)
        except (EmptyVocabulary, DecodeFailure):
            return
        source_len = len(source_ix)
        lmin = math.ceil(0.5 * source_len)
        lmax = math.floor(1.5 * source_len)
        assert 1 <= len(hyps) <= 3
        for h in hyps:
            assert lmin <= len(h.tokens) <= lmax
            assert not any(violates(t, c) for t in h.tokens)
            assert not has_repeated_ngram(h.tokens, 3)
        assert sorted(hyps, key=lambda h: -h.combined) == hyps


def per_paragraph_build(source, vocab, model, idf):
    """The engine set-up built for one paragraph straight from the
    model's counts and the IDF table's values, with no shared tables: the
    oracle for the arrays gathered from ConstraintTables. Returns the LM-bigram rows (one per
    vocabulary word, then BOS) and the IDF-bigram-square rows as dense
    matrices with NaN where no pair is stored, the backoff vector, the
    unigram idf vector, and the source's unigram and bigram weights."""
    n = len(vocab)
    index = {w: i for i, w in enumerate(vocab)}
    log_alpha, ref = math.log(model.alpha), Reference.of(model)
    backoff = []
    for w in vocab:
        score = ref._score((), w)
        for _ in range(model.order - 1):
            score = log_alpha + score
        backoff.append(score)
    lm = np.full((n + 1, n), np.nan)
    if model.order > 1:
        for row, first in enumerate(list(vocab) + [BOS]):
            for second, count in ref.continuations((first,)).items():
                if second in index:
                    score = math.log(count / ref.count((first,)))
                    for _ in range(model.order - 2):
                        score = log_alpha + score
                    lm[row, index[second]] = score
    bigram_sq = np.full((n, n), np.nan)
    for feat, value in idf.values.items():
        first, sep, second = feat.partition(" ")
        if sep and first in index and second in index:
            bigram_sq[index[first], index[second]] = value * value
    src_uni = np.zeros(n)
    src_bi = np.full((n, n), np.nan)
    for feat, weight in embed(source, idf).items():
        first, sep, second = feat.partition(" ")
        if not sep:
            if feat in index:
                src_uni[index[feat]] = weight * idf.value(feat)
        elif first in index and second in index:
            src_bi[index[first], index[second]] = weight * idf.value(feat)
    idf_uni = np.array([idf.value(w) for w in vocab])
    return lm, bigram_sq, np.array(backoff), idf_uni, src_uni, src_bi


def dense(pair_rows, keys, n_cols, plane=0):
    """One plane of the values of the pair rows of these keys, as a
    matrix with NaN where no pair is stored."""
    out = np.full((len(keys), n_cols), np.nan)
    rows, seconds, values = pair_rows.pairs(keys)
    out[rows, seconds] = values[:, plane]
    return out


def filled(lm, bigram_sq, backoff, default):
    """The pair planes a paragraph's pair block must hold, from the
    per-paragraph build's LM and IDF-bigram-square matrices: a pair in
    either, each plane filled where only the other has it, with what a
    cell outside every pair gets (the second word's backoff score, the
    default idf squared). BOS has no IDF bigrams."""
    sq = np.vstack((bigram_sq, np.full((1, len(backoff)), np.nan)))
    pair = ~np.isnan(lm) | ~np.isnan(sq)
    return (
        np.where(np.isnan(lm) & pair, backoff, lm),
        np.where(np.isnan(sq) & pair, default**2, sq),
    )


def paragraph_arrays(paras, tables):
    """Each paragraph's arrays, its pair rows read at its own keys of one
    gather of the whole batch: the LM and IDF-bigram-square planes of its
    pair block, its backoff, idf, source-word and source-bigram arrays.
    The key past every paragraph must have no pairs in either block, a
    paragraph's source words must be its words of non-zero source weight,
    and the last row of source words must hold none."""
    offsets, pairs, _, sources = _batch_pair_rows(paras, tables)
    K = offsets[-1] + 1  # the keys of each block
    for block in range(2):
        assert len(pairs.pairs(offsets[-1:] + block * K)[0]) == 0
    assert sources.shape == (len(paras) + 1, max(len(p.vocab) for p in paras))
    assert not sources[-1].any()
    arrays = []
    for i, (para, first) in enumerate(zip(paras, offsets)):
        n = len(para.vocab)
        keys = first + np.arange(n + 1)  # the vocabulary, then BOS
        assert sources[i].nonzero()[0].tolist() == np.flatnonzero(para.src_uni).tolist()
        arrays.append((
            dense(pairs, keys, n),
            dense(pairs, keys, n, plane=1),
            para.backoff,
            para.idf_uni,
            para.src_uni,
            dense(pairs, keys[:-1] + K, n),
        ))
    return arrays


class TestConstraintTables:
    """The paragraph arrays gathered from ConstraintTables equal the
    per-paragraph build bit for bit, as dense matrices."""

    # Words with and without each vowel, so constraints leave tails of
    # every size; "kitty", "hound" and "zyzzyva" are unknown to the model,
    # "qi" and "pup" appear only in the IDF documents.
    MODEL_WORDS = ["the", "cat", "sat", "on", "my", "shy", "dog", "fly",
                   "by", "it's", "rhythm", "a", "tomcat", "sky"]
    IDF_WORDS = MODEL_WORDS + ["qi", "pup"]
    SOURCE_WORDS = MODEL_WORDS + ["qi", "pup", "kitty", "hound", "zyzzyva"]

    @given(
        paras=st.lists(
            st.lists(st.sampled_from(MODEL_WORDS), min_size=1, max_size=8),
            min_size=1, max_size=5,
        ),
        docs=st.lists(
            st.lists(st.sampled_from(IDF_WORDS), min_size=0, max_size=6),
            min_size=1, max_size=5,
        ),
        sources=st.lists(
            st.lists(st.sampled_from(SOURCE_WORDS), min_size=1, max_size=8),
            min_size=1, max_size=3,
        ),
        letters=st.one_of(
            st.sampled_from(["", "aeiou", "aeiouy", "t"]),
            st.sets(st.sampled_from("aeiosty"), max_size=3).map("".join),
        ),
        M=st.one_of(st.just(0), st.integers(1, 20)),
        order=st.integers(1, 4),
        alpha=st.sampled_from([0.4, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_gathered_arrays_equal_per_paragraph_build(
        self, paras, docs, sources, letters, M, order, alpha
    ):
        model = train("\n\n".join(" ".join(p) for p in paras), order=order,
                      alpha=alpha)
        idf = build_idf([" ".join(d) for d in docs])
        c = ConstraintSet.from_string(letters)
        sources = [" ".join(source) for source in sources]
        lex = toy_lexicon()
        tables = tables_of(c, model, idf, M)
        decoded = []  # (source, vocabulary) of the sources with one
        for s in sources:
            try:
                decoded.append((s, build_candidate_vocab(s, tables, lex)))
            except EmptyVocabulary:
                pass
        if not decoded:
            return
        # A model word's id is its number in the model.
        assert all(tables.words.ids[t] == i for i, t in enumerate(model.words))
        cfg = DecoderConfig(candidate_vocab_size=M)
        expected = []
        for s, v in decoded:
            lm, bigram_sq, backoff, *rest = per_paragraph_build(s, v, model, idf)
            expected.append((*filled(lm, bigram_sq, backoff, idf.default), backoff, *rest))
        # Tables of another constraint and M (none, and no tail) give the
        # same arrays.
        for built in (tables, ConstraintTables(NO_CONSTRAINT, tables.words, 0)):
            batch = [_Paragraph(s, v, cfg, built) for s, v in decoded]
            for arrays, want in zip(paragraph_arrays(batch, built), expected):
                for got, value in zip(arrays, want):
                    assert np.array_equal(got, value, equal_nan=True)

    MARKER_MODEL = train("the cat sat on my mat\n\nmy shy sky\n\nby the by", order=3)

    @given(
        letters=st.one_of(
            st.sampled_from(["", "s", "aeiou", "e"]),
            st.sets(st.sampled_from("aeiosty"), max_size=3).map("".join),
        ),
        M=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_markers_are_never_legal_and_tail_follows_the_ranking(self, letters, M):
        # "<s>" and "</s>" pass every constraint without "s" by their letters;
        # they are illegal by id, and the tail is the first M legal words of
        # the reference's count-then-alphabetical ranking.
        model, idf = self.MARKER_MODEL, build_idf(["the cat sat"])
        c = ConstraintSet.from_string(letters)
        tables = tables_of(c, model, idf, M)
        ids = tables.words.ids
        assert not tables.legal[[ids[BOS], ids[EOS]]].any()
        ranked = [model.words[i] for i in Reference.of(model).ranked]
        assert tables.tail == [w for w in ranked if not violates(w, c)][:M]
        assert BOS not in tables.tail and EOS not in tables.tail

    def test_fewer_legal_words_than_m_take_them_all(self):
        model = train("my shy sky\n\nby my fly\n\nthe cat sat")
        tables = tables_of(
            ConstraintSet.from_string("aeiou"), model, build_idf(["my"]), 50
        )
        assert sorted(tables.tail) == ["by", "fly", "my", "shy", "sky"]

    def test_vocabulary_must_be_legal_under_the_tables(self):
        model = train("the cat sat\n\nmy shy sky")
        idf = build_idf(["the cat"])
        tables = tables_of(ConstraintSet.from_string("e"), model, idf, 5)
        with pytest.raises(ValueError, match="constraint"):
            _Paragraph("the cat", ["the", "cat"], DecoderConfig(), tables)

    def test_beam_search_rejects_tables_of_another_tail_size(self):
        model = train("the cat sat\n\nmy shy sky")
        tables = tables_of(ConstraintSet.from_string("e"), model,
                           build_idf(["the cat"]), 499)
        with pytest.raises(ValueError, match="candidate_vocab_size"):
            beam_search(("a cat sat",), tables, DecoderConfig(), EMPTY_LEX)


class TestLockstep:
    """A call's sources are decoded in lockstep batches. Whatever the batch
    (its size, its other lanes, their vocabulary sizes and failures), each
    source's result equals its decode as a batch of one."""

    WORDS = ["aa", "ab", "bc", "cd", "de", "ea", "bd", "ce", "by", "dy"]
    LEX = Lexicon({
        "aa": LexiconEntry("aa", "aa", ("yy", "dd"), 3),
        "cd": LexiconEntry("cd", "cd", ("cy",), 2),
    })

    @given(
        paras=st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
            min_size=1, max_size=4,
        ),
        sources=st.lists(
            st.one_of(
                st.lists(st.sampled_from(WORDS + ["zz", "yy"]), min_size=1, max_size=12)
                .map(" ".join),
                st.just("12 !!"),  # no words
            ),
            min_size=1, max_size=6,
        ),
        letters=st.sampled_from(["", "e", "a", "aeiou"]),
        order=st.integers(1, 4),
        M=st.integers(0, 12),
        widths=st.integers(1, 6).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(1, w))
        ),
        ratios=st.sampled_from([(0.5, 1.5), (0.5, 0.55), (1.0, 3.0)]),
        no_repeat=st.integers(2, 3),
        mode=st.sampled_from(["deterministic", "sampled"]),
        budget=st.sampled_from([1, 40, 150, MAX_LOCKSTEP_CELLS]),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_lane_equals_its_lone_decode(
        self, paras, sources, letters, order, M, widths, ratios, no_repeat,
        mode, budget,
    ):
        texts = [" ".join(p) for p in paras]
        model = train("\n\n".join(texts), order=order)
        beam_width, candidates_k = widths
        cfg = DecoderConfig(
            beam_width=beam_width, candidates_k=candidates_k,
            min_ratio=ratios[0], max_ratio=ratios[1], no_repeat_ngram=no_repeat,
            candidate_vocab_size=M, mode=mode, seed=len(sources),
        )
        tables = tables_of(
            ConstraintSet.from_string(letters), model, build_idf(texts), M
        )

        def shown(found):
            return (type(found), str(found)) if isinstance(found, Exception) else found

        with mock.patch.object(decoder, "MAX_LOCKSTEP_CELLS", budget):
            batched = beam_search(tuple(sources), tables, cfg, self.LEX)
        alone = [beam_search((s,), tables, cfg, self.LEX)[0] for s in sources]
        assert len(batched) == len(sources)
        assert [shown(f) for f in batched] == [shown(f) for f in alone]

    def test_failures_are_returned_in_place(self):
        model = train("aa bb cc dd\n\nbb cc dd aa")
        tables = tables_of(ConstraintSet.from_string("a"), model,
                           build_idf(["aa bb"]), 0)
        cfg = DecoderConfig(beam_width=4, candidates_k=2, candidate_vocab_size=0,
                            min_ratio=0.5, max_ratio=0.55)
        found = beam_search(
            ("bb cc dd bb cc dd", "!!", "aa", "bb cc dd", "cc dd bb cc dd bb"),
            tables, cfg, EMPTY_LEX,
        )
        assert isinstance(found[1], ValueError)  # no words
        assert isinstance(found[2], EmptyVocabulary)
        assert isinstance(found[3], DecodeFailure)  # lengths 2..1: none
        assert all(isinstance(h, Hypothesis) for i in (0, 4) for h in found[i])

    def test_a_string_is_not_a_batch(self):
        model = train("aa bb")
        tables = tables_of(NO_CONSTRAINT, model, NO_DOCS, 10)
        with pytest.raises(TypeError):
            beam_search("aa bb", tables, DecoderConfig(candidate_vocab_size=10),
                        EMPTY_LEX)


class TestLockstepBatches:
    @given(
        widths=st.lists(st.integers(1, 600), max_size=30),
        beam_width=st.integers(1, 40),
        budget=st.integers(1, 100_000),
    )
    def test_batches_stay_within_the_cell_budget(self, widths, beam_width, budget):
        batches = _lockstep_batches(widths, beam_width, budget)
        # Every lane once, in order, in consecutive runs.
        assert [i for b in batches for i in b] == list(range(len(widths)))
        for b in batches:
            assert len(b) >= 1
            cells = len(b) * beam_width * max(widths[i] for i in b)
            assert len(b) == 1 or cells <= budget
        # A batch stops only when the next lane would break the budget.
        for b, after in zip(batches, batches[1:]):
            grown = list(b) + [after[0]]
            assert len(grown) * beam_width * max(widths[i] for i in grown) > budget

    def test_the_engine_runs_those_batches(self):
        model = train("aa bb cc dd ee\n\nbb cc dd ee aa")
        tables = tables_of(NO_CONSTRAINT, model, NO_DOCS, 10)
        cfg = DecoderConfig(beam_width=4, candidates_k=2, candidate_vocab_size=10)
        sources = ["aa bb cc", "bb cc dd ee", "cc", "dd ee aa bb", "ee aa"]
        vocabs = [build_candidate_vocab(s, tables, EMPTY_LEX) for s in sources]
        sizes = []
        real = _BeamEngine._run_batch

        def recording(self, lanes, k, buffer):
            sizes.append(len(lanes))
            assert len(lanes) * cfg.beam_width * max(
                len(vocabs[p]) for p, _ in lanes
            ) <= decoder.MAX_LOCKSTEP_CELLS or len(lanes) == 1
            return real(self, lanes, k, buffer)

        with mock.patch.object(_BeamEngine, "_run_batch", recording):
            for budget in (1, 2 * 4 * 5, MAX_LOCKSTEP_CELLS):
                with mock.patch.object(decoder, "MAX_LOCKSTEP_CELLS", budget):
                    _BeamEngine(sources, vocabs, cfg, tables).run(2)
        assert sizes == [1] * 5 + [2, 2, 1] + [5]


class TestTranslateFailures:
    """Pipeline.translate empties exactly the paragraphs beam_search
    reports as failed, and lets any other exception through."""

    CORPUS = "\n\n".join([
        "the cat sat on the mat by the door",
        "my shy dog ran by the big old barn",
        "a quick brown fox jumps over the lazy dog",
    ])

    def pipeline(self):
        from lipogram.pipeline import Pipeline

        paras = self.CORPUS.split("\n\n")
        return Pipeline(train(self.CORPUS), EMPTY_LEX, build_idf(paras), set())

    def test_empties_land_where_the_decodes_failed(self):
        pipeline = self.pipeline()
        c = ConstraintSet.from_string("e")
        # Lengths ceil(0.5 n)..floor(0.55 n): none for three words, one
        # for eleven or twelve.
        cfg = DecoderConfig(beam_width=6, candidates_k=3, min_ratio=0.5,
                            max_ratio=0.55, candidate_vocab_size=30)
        paragraphs = [
            "my shy dog ran by the big old barn and on",
            "1923 -- !!",
            "a cat sat",
            "my dog ran by a big old barn that day in fog",
        ]
        outputs, failures = pipeline.translate(paragraphs, c, "beam", cfg)
        assert failures == 2
        assert outputs[1] == outputs[2] == ""
        for i in (0, 3):
            assert outputs[i]
            assert outputs[i] == pipeline.translate([paragraphs[i]], c, "beam", cfg)[0][0]

    def test_other_errors_propagate(self, monkeypatch):
        import lipogram.pipeline

        def broken(*args):
            raise ValueError("a bug, not a failed decode")

        monkeypatch.setattr(lipogram.pipeline, "multiselect", broken)
        with pytest.raises(ValueError, match="a bug"):
            self.pipeline().translate(
                ["the cat sat on the mat"], ConstraintSet.from_string("e"), "beam"
            )


class TestTranslateProperty:
    """Pipeline.translate, whatever the method, mode, paragraphs and
    constraint, returns one output per input, each free of the forbidden
    letters, and raises nothing."""

    CORPUS = TestTranslateFailures.CORPUS
    WORDS = CORPUS.split() + ["kitty", "hound", "pup"]

    def pipeline(self):
        from lipogram.pipeline import Pipeline

        paras = self.CORPUS.split("\n\n")
        return Pipeline(train(self.CORPUS), toy_lexicon(), build_idf(paras), set())

    @given(
        paragraphs=st.lists(
            st.one_of(
                st.text(max_size=30),
                st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
            ),
            min_size=1, max_size=4,
        ),
        letters=st.sets(st.sampled_from(ALPHABET), max_size=6).map("".join),
        method=st.sampled_from(["edelete", "synonym", "beam"]),
        mode=st.sampled_from(["deterministic", "sampled"]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_legal_output_per_paragraph(
        self, paragraphs, letters, method, mode, seed
    ):
        from lipogram.metrics import e_score

        c = ConstraintSet.from_string(letters)
        cfg = DecoderConfig(beam_width=4, candidates_k=2, candidate_vocab_size=8,
                            mode=mode, seed=seed)
        outputs, failures = self.pipeline().translate(paragraphs, c, method, cfg)
        assert len(outputs) == len(paragraphs)
        assert 0 <= failures <= len(paragraphs)
        for output in outputs:
            assert e_score(output, c) == 0.0


class TestHistoryCells:
    """The one scan of each row's history gives the follower cells and
    their counts, and the repeat bans, of a brute-force walk over it."""

    @given(
        rows=st.integers(0, 4).flatmap(
            lambda length: st.lists(
                st.lists(st.integers(0, 3), min_size=length, max_size=length),
                min_size=1, max_size=5,
            )
        ),
        padded=st.integers(0, 2),
        n=st.integers(2, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, rows, padded, n):
        # A row without a beam holds the first row's history, ending in 0;
        # before the first step, every history is empty.
        rows = rows + [rows[0][:-1] + [0] if rows[0] else []] * padded
        width = 5
        history = np.array(rows, dtype=np.intp)
        followed, counts, bans = _history_cells(history, width, n)

        followers, banned = {}, set()
        for r, row in enumerate(rows):
            for p in range(len(row) - 1):
                if row[p] == row[-1]:
                    cell = r * width + row[p + 1]
                    followers[cell] = followers.get(cell, 0) + 1
            grams = {tuple(row[i:i + n]) for i in range(len(row) - n + 1)}
            for token in range(width):
                if n <= len(row) and tuple(row[1 - n:]) + (token,) in grams:
                    banned.add(r * width + token)
        assert followed.tolist() == sorted(followers)
        assert counts.tolist() == [followers[c] for c in sorted(followers)]
        assert set(bans.tolist()) == banned


class TestSetUpLevel:
    """ConstraintTables are built once per constraint set, whatever the
    number of paragraphs decoded under it, and kept for the next call."""

    CORPUS = "\n\n".join([
        "the cat sat on the mat by the door",
        "my shy dog ran by the big old barn",
        "a quick brown fox jumps over the lazy dog",
        "we ate it all at noon and so it was good",
        "the dog and the cat sat in the sun all day",
    ])

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real_init = ConstraintTables.__init__

        def counting(self, c, *args):
            calls.append(c.as_string())
            real_init(self, c, *args)

        monkeypatch.setattr(ConstraintTables, "__init__", counting)
        return calls

    @pytest.fixture()
    def word_builds(self, monkeypatch):
        calls = []
        real_init = SearchWords.__init__

        def counting(self, *args):
            calls.append(args)
            real_init(self, *args)

        monkeypatch.setattr(SearchWords, "__init__", counting)
        return calls

    def pipeline(self):
        from lipogram.pipeline import Pipeline

        paras = self.CORPUS.split("\n\n")
        return Pipeline(train(self.CORPUS), EMPTY_LEX, build_idf(paras), set())

    @pytest.mark.parametrize("n_paragraphs", [1, 3, 5])
    def test_one_build_per_translate_call(self, builds, n_paragraphs):
        pipeline = self.pipeline()
        paras = self.CORPUS.split("\n\n")[:n_paragraphs]
        c = ConstraintSet.from_string("e")
        outputs, _ = pipeline.translate(paras, c, "beam")
        assert len(outputs) == n_paragraphs
        assert builds == ["e"]
        pipeline.translate(paras, ConstraintSet.from_string("o"), "beam")
        assert builds == ["e", "o"]

    def test_last_tables_are_reused(self, builds, word_builds):
        """Calls under one constraint set and M build once; a new set or a
        new M builds anew. The SearchWords are built once."""
        pipeline = self.pipeline()
        paras = self.CORPUS.split("\n\n")[:2]
        e, o = ConstraintSet.from_string("e"), ConstraintSet.from_string("o")
        first, _ = pipeline.translate(paras, e, "beam")
        again, _ = pipeline.translate(paras, e, "beam")
        assert first == again
        assert builds == ["e"]
        pipeline.translate(paras, o, "beam")
        pipeline.translate(paras, o, "beam")
        assert builds == ["e", "o"]
        pipeline.translate(paras, e, "beam")
        assert builds == ["e", "o", "e"]
        pipeline.translate(paras, e, "beam", DecoderConfig(candidate_vocab_size=7))
        assert builds == ["e", "o", "e", "e"]
        pipeline.translate(paras, e, "beam", DecoderConfig(candidate_vocab_size=7))
        assert builds == ["e", "o", "e", "e"]
        assert len(word_builds) == 1

    @pytest.mark.parametrize("n_paragraphs", [1, 4])
    def test_one_build_per_sweep_set(self, builds, word_builds, n_paragraphs):
        """A sweep builds tables once per set, over one SearchWords."""
        from lipogram.sweep import default_constraint_sets, run_sweep

        sets = default_constraint_sets()[:3] + default_constraint_sets()[-1:]
        points = run_sweep(self.CORPUS, sets, n_paragraphs, self.pipeline())
        assert len(points) == len(sets)
        assert builds == [c.as_string() for _, c in sets]
        assert len(word_builds) == 1


class TestBeamCellCap:
    def test_at_the_cap(self):
        cfg = DecoderConfig(beam_width=MAX_BEAM_CELLS // 1000,
                            candidate_vocab_size=1000)
        assert cfg.beam_width * cfg.candidate_vocab_size == MAX_BEAM_CELLS

    def test_past_the_cap_names_both_fields(self):
        with pytest.raises(ValueError) as err:
            DecoderConfig(beam_width=MAX_BEAM_CELLS // 1000,
                          candidate_vocab_size=1001)
        assert "beam_width" in str(err.value)
        assert "candidate_vocab_size" in str(err.value)


class TestStepCallBudget:
    """The lockstep step costs about as much per numpy call as per cell it
    scores, so its calls are budgeted. A search of the bundled novel's
    first eight paragraphs (876 words, 130 steps) under "e" with the
    default config counts, per step, the C-level and Python-level calls
    (``sys.setprofile``'s ``c_call`` and ``call`` events) made inside
    ``_BeamEngine._run_batch``: 86.8 and 40.3 with numpy 2.4. The bounds
    are about 10% above those counts; the outputs are pinned elsewhere
    (``tests/test_decode_digest.py``, the lone-decode property). The
    counts depend on numpy's Python wrappers, so a failure names the
    numpy version."""

    C_CALLS, PY_CALLS = 95, 45
    PARAGRAPHS = range(8)

    def test_calls_per_step_stay_within_budget(self):
        text = files("lipogram.data").joinpath("gatsby.txt").read_text(encoding="utf-8")
        paragraphs = split_paragraphs(text)
        cfg = DecoderConfig()
        tables = tables_of(
            ConstraintSet.from_string("e"), train(text), build_idf(paragraphs),
            cfg.candidate_vocab_size,
        )
        sources = tuple(paragraphs[i] for i in self.PARAGRAPHS)
        events = {"c_call": 0, "call": 0, "steps": 0}
        scorer = _BeamEngine._sparse_scores.__code__

        def profile(frame, event, arg):
            if event in events:
                events[event] += 1
            if event == "call" and frame.f_code is scorer:
                events["steps"] += 1

        real = _BeamEngine._run_batch

        def profiled(engine, *args):
            sys.setprofile(profile)
            try:
                return real(engine, *args)
            finally:
                sys.setprofile(None)

        with mock.patch.object(_BeamEngine, "_run_batch", profiled):
            found = beam_search(sources, tables, cfg, EMPTY_LEX)
        assert not any(isinstance(f, Exception) for f in found)
        per_step = (events["c_call"] / events["steps"], events["call"] / events["steps"])
        print(f"numpy {np.__version__}: {per_step[0]:.1f} C-level and "
              f"{per_step[1]:.1f} Python-level calls per step over {events['steps']} steps")
        assert per_step[0] <= self.C_CALLS, f"numpy {np.__version__}: {per_step}"
        assert per_step[1] <= self.PY_CALLS, f"numpy {np.__version__}: {per_step}"


class TestBatchSetUpMemory:
    """A batch's set-up memory is budgeted. ``_batch_pair_rows`` over the
    bundled novel's first twelve paragraphs, with the bundled lexicon and
    the default config (M = 500), peaks at 2.78 MiB under "e" and 5.14 MiB
    under "z" (``tracemalloc``, numpy 2.4), the same on every run. The
    bounds are about 10% above those peaks; building the pair rows from
    one per-entry array of first keys, grouped once, peaked at 3.77 and
    7.08 MiB. The peaks depend on numpy's temporaries, so a failure names
    the numpy version."""

    PARAGRAPHS = range(12)
    PEAK_MIB = {"e": 3.05, "z": 5.65}

    @pytest.mark.parametrize("letters", sorted(PEAK_MIB))
    def test_pair_rows_peak_stays_within_budget(self, letters):
        data = files("lipogram.data")
        text = data.joinpath("gatsby.txt").read_text(encoding="utf-8")
        paragraphs = split_paragraphs(text)
        lex = load_lexicon(data.joinpath("lexicon.tsv"))
        cfg = DecoderConfig()
        tables = tables_of(
            ConstraintSet.from_string(letters), train(text), build_idf(paragraphs),
            cfg.candidate_vocab_size,
        )
        sources = [paragraphs[i] for i in self.PARAGRAPHS]
        vocabs = [build_candidate_vocab(source, tables, lex) for source in sources]
        paras = _BeamEngine(sources, vocabs, cfg, tables).paragraphs
        tracemalloc.start()
        try:
            _batch_pair_rows(paras, tables)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        print(f"numpy {np.__version__}: _batch_pair_rows peaked at {peak:.2f} MiB")
        assert peak <= self.PEAK_MIB[letters], f"numpy {np.__version__}: {peak:.2f} MiB"
