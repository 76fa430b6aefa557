"""Acceptance gate: twelve numbered criteria, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. Heavy artifacts (the trained model, the 200-paragraph
translations, the 50-paragraph default sweep) are session fixtures shared
by the criteria that need them. Oracles are re-implemented here from
scratch rather than imported from the other test modules, so a bug in a
shared helper cannot hide a bug in the code under test. The one
exception is the n-gram scorer: criterion 7 scores with ``Reference``
(``ngram_reference.py``), the tests' own stupid-backoff scorer, which
reads only the model's n-gram counts.

Two criteria are known to fail for this implementation and are asserted
faithfully rather than loosened; the assertion messages carry the measured
values. See the README's caveats section.
"""

import math
import random
import re
import time
from importlib.resources import files
from pathlib import Path

import pytest
from ngram_reference import Reference
from scipy.stats import spearmanr

from lipogram.cli import main as cli_main
from lipogram.decoder import (
    ConstraintTables,
    DecodeFailure,
    DecoderConfig,
    EmptyVocabulary,
    Hypothesis,
    SearchWords,
    beam_search,
    build_candidate_vocab,
    multiselect,
)
from lipogram.lexicon import Lexicon, load_dictionary, load_lexicon
from lipogram.metrics import TfidfEmbedder, build_idf, cosine_similarity, e_score, embed
from lipogram.ngram import train
from lipogram.passes import trim_suffix
from lipogram.pipeline import Pipeline
from lipogram.sweep import default_constraint_sets, fit_decay, run_sweep
from lipogram.textcore import ConstraintSet, letter_frequencies, split_paragraphs, tokenize

E = ConstraintSet.from_string("e")
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def gatsby_text():
    return files("lipogram.data").joinpath("gatsby.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def gatsby_paragraphs(gatsby_text):
    return split_paragraphs(gatsby_text)


@pytest.fixture(scope="session")
def pipeline(gatsby_text, gatsby_paragraphs):
    data = files("lipogram.data")
    model = train(gatsby_text, order=3)
    lexicon = load_lexicon(Path(str(data.joinpath("lexicon.tsv"))))
    dictionary = load_dictionary(Path(str(data.joinpath("dictionary.txt"))))
    idf = build_idf(gatsby_paragraphs)
    return Pipeline(model, lexicon, idf, dictionary)


@pytest.fixture(scope="session")
def translations_200(pipeline, gatsby_paragraphs):
    """Documents for the first 200 paragraphs, letters {e}, all methods."""
    sources = gatsby_paragraphs[:200]
    results = {}
    start = time.perf_counter()
    for method in ("edelete", "synonym", "beam"):
        outputs, failures = pipeline.translate(sources, E, method)
        results[method] = ("\n\n".join(outputs), failures)
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def default_sweep(pipeline, gatsby_text):
    """The default 27-set sweep over the first 50 paragraphs."""
    start = time.perf_counter()
    points = run_sweep(gatsby_text, default_constraint_sets(), 50, pipeline)
    return points, time.perf_counter() - start


# ---------------------------------------------------------------- criteria


def test_criterion_01_constraint_soundness(translations_200):
    results, elapsed = translations_200
    scores = {m: e_score(doc, E) for m, (doc, _) in results.items()}
    assert scores == {"edelete": 0.0, "synonym": 0.0, "beam": 0.0}, scores
    assert elapsed < 300.0, f"translation took {elapsed:.0f}s, budget 300s"


def test_criterion_02_original_e_score(gatsby_paragraphs):
    document = "\n\n".join(gatsby_paragraphs[:200])
    measured = e_score(document, E)
    assert 34.5 <= measured <= 40.5, f"measured original E-score {measured:.2f}"


def test_criterion_03_letter_frequency_anchor(gatsby_text):
    freq_e = letter_frequencies(gatsby_text).freq("e")
    assert 0.11 <= freq_e <= 0.13, f"measured freq(e) {freq_e:.5f}"


def test_criterion_04_decay_ordering(default_sweep):
    points, elapsed = default_sweep
    assert len(points) == 27
    xs = [p.exclusion_fraction for p in points]
    ys = [p.mean_similarity for p in points]
    rho = spearmanr(xs, ys)[0]
    assert rho <= -0.8, f"Spearman {rho:.4f}"
    assert elapsed < 1800.0, f"sweep took {elapsed:.0f}s, budget 1800s"


def test_criterion_05_plateau_property(default_sweep, gatsby_text):
    points, _ = default_sweep
    freqs = letter_frequencies(gatsby_text)
    rarest = sorted(ALPHABET, key=freqs.freq)[:16]
    sims = {p.label: p.mean_similarity for p in points}
    values = [sims[letter] for letter in rarest]
    spread = max(values) - min(values)
    assert spread <= 0.08, (
        f"16-rarest similarity spread {spread:.4f} "
        f"(range {min(values):.3f}..{max(values):.3f} over {''.join(rarest)})"
    )


def test_criterion_06_vowel_collapse(default_sweep):
    points, _ = default_sweep
    aeiou = next(p for p in points if p.label == "aeiou")
    assert aeiou.mean_similarity < 0.1, f"aeiou mean sim {aeiou.mean_similarity:.4f}"


def _enumerate_best(ref, vocab, n_min, n_max, no_repeat):
    """Independent exhaustive optimum of the pure-LM objective, scored by
    the reference model."""

    def has_repeat(tokens):
        if len(tokens) < no_repeat + 1:
            return False
        grams = [
            tuple(tokens[i : i + no_repeat])
            for i in range(len(tokens) - no_repeat + 1)
        ]
        return len(grams) != len(set(grams))

    best = None
    stack = [()]
    while stack:
        prefix = stack.pop()
        if n_min <= len(prefix) <= n_max:
            score = ref.sequence_logscore(list(prefix))
            if best is None or score > best:
                best = score
        if len(prefix) < n_max:
            for word in vocab:
                cand = prefix + (word,)
                if not has_repeat(list(cand)):
                    stack.append(cand)
    return best


def test_criterion_07_beam_oracle_equivalence():
    words = ["bat", "cat", "dog", "sun", "mat", "fog", "pig", "run"]
    checked = 0
    for i in range(50):
        rng = random.Random(4200 + i)
        vocab_words = rng.sample(words, rng.randint(2, 8))
        paras = [
            " ".join(rng.choice(vocab_words) for _ in range(rng.randint(2, 6)))
            for _ in range(rng.randint(2, 4))
        ]
        corpus = "\n\n".join(paras)
        model = train(corpus, order=rng.choice([2, 3]))
        source = " ".join(rng.choice(vocab_words) for _ in range(rng.randint(1, 3)))
        c = ConstraintSet.from_string("")
        cfg = DecoderConfig(
            beam_width=4096,
            candidates_k=1,
            lambda_sim=0.0,
            no_repeat_ngram=rng.choice([2, 3]),
        )
        lexicon = Lexicon({})
        tables = ConstraintTables(
            c, SearchWords(model, build_idf(paras)), cfg.candidate_vocab_size
        )
        [candidates] = beam_search((source,), tables, cfg, lexicon)
        if isinstance(candidates, Exception):
            raise candidates
        assert candidates, (i, source)

        vocab = build_candidate_vocab(source, tables, lexicon)
        s = len(tokenize(source).words())
        n_min = math.ceil(cfg.min_ratio * s)
        n_max = math.floor(cfg.max_ratio * s)
        oracle = _enumerate_best(
            Reference.of(model), vocab, max(1, n_min), n_max, cfg.no_repeat_ngram
        )
        assert candidates[0].combined == oracle, (i, source, candidates[0])
        assert candidates[0].lm_score == oracle
        checked += 1
    assert checked == 50


_WORD_END_RE = re.compile(r"[A-Za-z][A-Za-z']*")


def test_criterion_08_suffix_trim_oracle():
    pool = "the cat sat on a mat big dog ran fast zz qq qux blorp".split()
    rng = random.Random(88)
    for i in range(100):
        source = " ".join(rng.choice(pool) for _ in range(rng.randint(2, 7)))
        n = rng.randint(1, 9)
        words = [rng.choice(pool) for _ in range(n)]
        text = ""
        for w in words:
            text += w + rng.choice([" ", ", ", ". "])
        text = text.rstrip()
        idf = build_idf([source, " ".join(pool)])
        embedder = TfidfEmbedder(idf)

        src_vec = embed(source, idf)
        best = None
        cuts = [text[: m.end()] for m in _WORD_END_RE.finditer(text)] + [text]
        for cand in cuts:
            sim = cosine_similarity(src_vec, embed(cand, idf))
            key = (sim, len(cand))
            if best is None or key > best[0]:
                best = (key, cand)
        assert trim_suffix(text, source, embedder) == best[1], (i, text, source)


def test_criterion_09_multiselect_argmax():
    pool = "sun moon star sky sea sand rock tree leaf wind".split()
    rng = random.Random(515)
    for i in range(60):
        idf = build_idf([" ".join(pool)])
        embedder = TfidfEmbedder(idf)
        source = " ".join(rng.choice(pool) for _ in range(rng.randint(2, 5)))
        cands = [
            Hypothesis(
                tokens=tuple(rng.choice(pool) for _ in range(rng.randint(1, 5))),
                lm_score=0.0,
                sim_score=0.0,
                combined=0.0,
            )
            for _ in range(rng.randint(1, 8))
        ]
        chosen = multiselect(cands, source, embedder)
        src_vec = embed(source, idf)
        sims = [cosine_similarity(src_vec, embed(h.text(), idf)) for h in cands]
        assert sims[cands.index(chosen)] == max(sims), (i, cands, sims)


def test_criterion_10_determinism(tmp_path):
    mini = tmp_path / "mini.txt"
    mini.write_text(
        "a big cat sat on that mat today and it was glad\n\n"
        "that dog ran to a cart fast and took it back\n\n"
        "it was a fine day for a walk in that park\n",
        encoding="utf-8",
    )
    tr_args = ["translate", "--letters", "e", "--method", "beam", "--paragraphs", "6"]
    sw_args = ["sweep", "--corpus", str(mini), "--paragraphs", "2"]
    for args, names in (
        (tr_args, ["translation.txt"]),
        (sw_args, ["sweep.csv", "sweep.svg", "sweep.dat", "report.json"]),
    ):
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / (args[0] + tag)
            assert cli_main(args + ["--out", str(out)]) == 0
            runs.append({n: (out / n).read_bytes() for n in names})
        assert runs[0] == runs[1], args[0]


def test_criterion_11_fit_recovery():
    xs = [0.01 + 0.02 * i for i in range(20)]
    points = []
    from lipogram.sweep import SweepPoint

    for i, x in enumerate(xs):
        points.append(
            SweepPoint(
                label=f"p{i}",
                letters=f"p{i}",
                exclusion_fraction=x,
                mean_similarity=2.0 * math.exp(-3.0 * x),
                mean_e_score=0.0,
                mean_oov=0.0,
                mean_grammar_count=0.0,
                n_paragraphs=1,
            )
        )
    fit = fit_decay(points)
    assert fit.exponential is not None
    assert abs(fit.exponential.a - 2.0) / 2.0 < 0.01, fit.exponential
    assert abs(fit.exponential.b - 3.0) / 3.0 < 0.01, fit.exponential
    assert fit.exponential.r2 > 0.999, fit.exponential


def test_criterion_12_length_bounds():
    pool = "ox ax elk cod ram hen fox owl cub eel".split()
    rng = random.Random(1212)
    cfg = DecoderConfig(beam_width=4, candidates_k=3, candidate_vocab_size=30)
    assert cfg.min_ratio == 0.5 and cfg.max_ratio == 1.5
    lexicon = Lexicon({})
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 3000:
        attempts += 1
        vocab_words = rng.sample(pool, rng.randint(3, 6))
        paras = [
            " ".join(rng.choice(vocab_words) for _ in range(rng.randint(3, 7)))
            for _ in range(2)
        ]
        model = train("\n\n".join(paras), order=2)
        idf = build_idf(paras)
        source = " ".join(rng.choice(vocab_words) for _ in range(rng.randint(1, 6)))
        letters = rng.choice(["", "z", "q", rng.choice(ALPHABET)])
        c = ConstraintSet.from_string(letters)
        s = len(tokenize(source).words())
        try:
            tables = ConstraintTables(c, SearchWords(model, idf), cfg.candidate_vocab_size)
            [candidates] = beam_search((source,), tables, cfg, lexicon)
            if isinstance(candidates, Exception):
                raise candidates
        except (DecodeFailure, EmptyVocabulary, ValueError):
            continue
        lo, hi = math.ceil(0.5 * s), math.floor(1.5 * s)
        for hyp in candidates:
            length = len(hyp.tokens)
            assert lo <= length <= hi, (source, letters, hyp.tokens)
        checked += 1
    assert checked >= 1000, f"only {checked} decodes checked"
