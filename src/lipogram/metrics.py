"""Evaluation metrics and the deterministic embedding provider.

Similarity uses a TF-IDF embedding over word unigrams and bigrams with L2
normalization; it is deterministic and dependency-free, and an optional
remote provider with the same interface can stand in when configured.
An embedding is a plain dict of feature -> weight with unit L2 norm, and
``{}`` is the zero vector. `similarities` is the one exact scorer of texts
against a source: evaluation calls it, and candidate selection and
trimming pick through `most_similar`, the one selection rule. Given
approximate scores (the search's ``sim_score``, or `prefix_similarities`'
one-pass scores of a text's prefixes), `most_similar` re-scores with
`similarities` only the texts within twice `similarity_bound`, a proven
bound on the rounding drift, of the best one, so its pick is the one
scoring every text exactly would make.
The remaining metrics: E-score (percent of word tokens touching a forbidden
letter), OOV rate against a configured dictionary, grammar mistakes via a
pluggable checker, and Flesch Reading Ease for readability. Each of these
four takes an optional ``words``, which must be ``textcore.words(text)``,
so that `evaluate_document` splits each paragraph into words once.
"""

from __future__ import annotations

import json
import math
import re
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import textcore
from .textcore import WORD_RE, ConstraintSet, canonical, violates

Feature = str


def text_features(text: str) -> Counter:
    """Term frequencies of canonical word unigrams and adjacent bigrams."""
    words = textcore.canonical_words(text)
    feats = Counter(words)
    feats.update(" ".join(pair) for pair in zip(words, words[1:]))
    return feats


@dataclass(frozen=True)
class IdfTable:
    """Inverse document frequencies over a reference corpus.

    idf = ln((N+1)/(df+1)) + 1 where N is the document count; features
    never seen in the reference corpus get the df=0 value.
    """

    values: Mapping[Feature, float]
    n_documents: int
    default: float

    def value(self, feature: Feature) -> float:
        return self.values.get(feature, self.default)


def build_idf(documents: Iterable[str]) -> IdfTable:
    """One document per entry; blank documents still count toward N."""
    df: Counter = Counter()
    n = 0
    for doc in documents:
        n += 1
        df.update(set(text_features(doc)))
    values = {
        feat: math.log((n + 1) / (count + 1)) + 1.0 for feat, count in df.items()
    }
    return IdfTable(values, n, math.log(n + 1) + 1.0)


def embed(text: str, idf: IdfTable) -> dict[Feature, float]:
    """TF-IDF embedding of the text; no word tokens gives the zero vector."""
    feats = text_features(text)
    value, default = idf.values.get, idf.default
    raw = {feat: tf * value(feat, default) for feat, tf in feats.items()}
    norm = math.sqrt(sum(w * w for w in raw.values()))
    return {f: w / norm for f, w in raw.items()}


class TfidfEmbedder:
    """The built-in embedding provider: pure function of (text, idf)."""

    def __init__(self, idf: IdfTable):
        self.idf = idf

    def embed(self, text: str) -> dict[Feature, float]:
        return embed(text, self.idf)

    def embed_many(self, texts: Sequence[str]) -> list[dict[Feature, float]]:
        return [self.embed(t) for t in texts]


class RemoteEmbedder:
    """HTTP embedding provider: POST /embed {"texts": [...]} -> vectors.

    Dense responses, all of one length, are converted to sparse vectors
    keyed by dimension index and L2-normalized, so cosine_similarity works
    unchanged.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout

    def embed(self, text: str) -> dict[Feature, float]:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[dict[Feature, float]]:
        payload = json.dumps({"texts": list(texts)}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint + "/embed",
            data=payload,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                body = json.load(resp)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise EmbedProviderError(
                f"embedding endpoint {self.endpoint!r} failed: {exc}"
            ) from exc
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if (
            not isinstance(vectors, list)
            or len(vectors) != len(texts)
            or not all(map(_is_finite_vector, vectors))
            or len({len(v) for v in vectors}) > 1
        ):
            raise EmbedProviderError(
                f"embedding endpoint {self.endpoint!r} returned a malformed response"
            )
        out = []
        for dense in vectors:
            norm = math.sqrt(sum(x * x for x in dense))
            if not math.isfinite(norm):
                raise EmbedProviderError(
                    f"embedding endpoint {self.endpoint!r} returned a vector "
                    "too long to normalize"
                )
            out.append(
                {str(i): x / norm for i, x in enumerate(dense) if x != 0.0}
                if norm
                else {}
            )
        return out


def _is_finite_vector(value) -> bool:
    """A JSON list of finite numbers (booleans excluded)."""
    if not isinstance(value, list):
        return False
    try:
        return all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in value
        )
    except OverflowError:  # an integer beyond float range
        return False


class EmbedProviderError(RuntimeError):
    """The remote embedding endpoint could not be used."""


def cosine_similarity(a: dict[Feature, float], b: dict[Feature, float]) -> float:
    """Dot product of normalized vectors, clamped to [0, 1]; zero -> 0.0."""
    if len(b) < len(a):
        a, b = b, a
    dot = sum(w * b.get(f, 0.0) for f, w in a.items())
    return min(1.0, max(0.0, dot))


def similarities(embedder, source: str, texts: Sequence[str]) -> list[float]:
    """Cosine similarity of each text to the source.

    One ``embed_many([source, *texts])`` call, so a remote provider pays
    one round trip per scored source.
    """
    source_vec, *vectors = embedder.embed_many([source, *texts])
    return [cosine_similarity(source_vec, v) for v in vectors]


def most_similar(
    embedder,
    source: str,
    texts: Sequence[str],
    approx: Sequence[float] | None = None,
    *,
    last: bool = False,
) -> int:
    """The index of the text most similar to the source by `similarities`;
    ties go to the first such text, or with ``last`` to the last.

    Without ``approx`` every text is scored. ``approx`` holds each text's
    similarity as computed from the built-in embedder's features by
    another path, within `similarity_bound` of the exact one: then only
    the texts not strictly below ``max(approx) - 2 * bound`` are kept.
    If s is exact and a approximate, every text i dropped has
    s_i <= a_i + bound < max(a) - bound <= s_j for the j of max(a), so it
    scores strictly below a kept text, and the pick and its tie rule are
    those of scoring every text. A lone kept text is the pick unscored.
    """
    picks = range(len(texts))
    if approx is not None:
        floor = max(approx) - 2 * similarity_bound(texts)
        picks = [i for i in picks if not approx[i] < floor]
        if len(picks) == 1:
            return picks[0]
    sims = similarities(embedder, source, [texts[i] for i in picks])
    best = max(sims)
    ties = [i for i, s in zip(picks, sims) if s == best]
    return ties[-1] if last else ties[0]


# The drift bound. Two paths score one text against one stored source
# unit vector: the exact one, `embed` then `cosine_similarity`, and an
# incremental one that adds each word's terms to a running dot and sum
# of squares (the search's ``sim_score``, `prefix_similarities`). Every
# term of each sum is positive, since idf = ln((N+1)/(df+1)) + 1 >= 1
# and tf >= 1, and the source's weights are positive. With u = 2**-53
# and g(k) = k*u / (1 - k*u), a sum of s positive terms, each with
# relative error <= g(a), has relative error <= g(a + s - 1) in any
# order, and a product, quotient or square root adds its inputs' errors
# and one rounding (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3). A text of W words has at most 2W features.
# - Exact: weights tf*idf g(1), their squares g(3), their sum g(2W+2),
#   the norm g(2W+3), the unit weights g(2W+5), the cosine's products
#   g(2W+6) and their sum g(4W+5).
# - Incremental: per word at most four sum-of-squares terms (unigram,
#   bigram and two repeat corrections), each g(2), so g(4W+1); at most
#   two dot terms, each g(1), so g(2W); the root g(4W+2) and the
#   quotient g(6W+3).
# The true cosine is at most 1 and clamping to [0, 1] moves no two
# values apart, so the paths differ by at most g(4W+5) + g(6W+3) <=
# g(10W+8). Words are at least one character long and one apart, so
# W <= (n+1)/2 for n characters and 10W+8 <= 5n+13. The bound takes
# twice that, g(10n+26): 1.1e-12 for a 1,000-character text, against a
# measured drift under 7e-16 on the benchmark workloads, while distinct
# candidates' scores lie far further apart.
_UNIT_ROUNDOFF = 2.0**-53


def similarity_bound(texts: Sequence[str]) -> float:
    """The most an approximate similarity of any of these texts may lie
    from its exact one (the derivation is above)."""
    k = 10 * max(map(len, texts), default=0) + 26
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def prefix_similarities(
    embedder: TfidfEmbedder, source: str, text: str
) -> list[float]:
    """The similarity to the source under the built-in embedder of each
    prefix of the text that ends at a word end, shortest first, within
    `similarity_bound` of `similarities`.

    One pass over ``textcore.canonical_words(text)``: each word adds its
    unigram and, after the first, its bigram; a feature going from count
    k to k + 1 adds its source weight times idf to the running dot and
    idf^2 * (2k + 1) to the running sum of squares. The source is
    embedded once, by the embedder's ``embed_many``.
    """
    [source_vec] = embedder.embed_many([source])
    value, default = embedder.idf.values.get, embedder.idf.default
    counts: dict[Feature, int] = {}
    dot = ssq = 0.0
    out = []
    previous = None
    for word in textcore.canonical_words(text):
        feats = (word,) if previous is None else (word, f"{previous} {word}")
        for feat in feats:
            weight = value(feat, default)
            k = counts.get(feat, 0)
            counts[feat] = k + 1
            dot += source_vec.get(feat, 0.0) * weight
            ssq += weight * weight * (2 * k + 1)
        out.append(min(1.0, max(0.0, dot / math.sqrt(ssq))))
        previous = word
    return out


def e_score(
    text: str, c: ConstraintSet, *, words: Sequence[str] | None = None
) -> float:
    """Percent of word tokens containing a forbidden letter; empty -> 0.0."""
    if words is None:
        words = textcore.words(text)
    if not words:
        return 0.0
    bad = sum(1 for w in words if violates(w, c))
    return bad / len(words) * 100.0


def oov_score(
    text: str, dictionary: set[str], *, words: Sequence[str] | None = None
) -> float:
    """Percent of word tokens absent from the dictionary; empty -> 0.0."""
    if words is None:
        words = textcore.words(text)
    if not words:
        return 0.0
    missing = sum(1 for w in words if canonical(w) not in dictionary)
    return missing / len(words) * 100.0


def grammar_mistakes(
    text: str, provider, *, words: Sequence[str] | None = None
) -> dict:
    """Count provider matches; provider failures propagate as errors."""
    matches = provider.check(text)
    count = len(matches)
    if words is None:
        words = textcore.words(text)
    percent = count / len(words) * 100.0 if words else 0.0
    return {"count": count, "percent_of_words": percent}


_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
_SYLLABLE_RE = re.compile(r"[aeiouy]+")


def _syllables(word: str) -> int:
    return max(1, len(_SYLLABLE_RE.findall(word.lower())))


def readability(text: str, *, words: Sequence[str] | None = None) -> float:
    """Flesch Reading Ease from word, sentence, and syllable counts.

    Sentences are [.!?]-delimited segments containing at least one word
    (minimum one). Syllables count vowel groups, minimum one per word.
    Raises ValueError on wordless text.
    """
    if words is None:
        words = textcore.words(text)
    if not words:
        raise ValueError("readability needs at least one word")
    sentences = sum(
        1 for seg in _SENTENCE_SPLIT_RE.split(text) if WORD_RE.search(seg)
    )
    sentences = max(1, sentences)
    syllables = sum(_syllables(w) for w in words)
    return (
        206.835
        - 1.015 * (len(words) / sentences)
        - 84.6 * (syllables / len(words))
    )


@dataclass
class EvaluationReport:
    """Per-paragraph metric records plus aggregate means."""

    paragraphs: list[dict]
    aggregates: dict

    def as_dict(self, config_echo: Mapping | None = None) -> dict:
        return {
            "paragraphs": self.paragraphs,
            "aggregates": self.aggregates,
            "config_echo": dict(config_echo or {}),
        }


_AGGREGATE_KEYS = (
    "similarity",
    "e_score",
    "oov",
    "grammar_count",
    "grammar_pct",
    "readability",
)


def evaluate_document(
    source_paragraphs: Sequence[str],
    translated_paragraphs: Sequence[str],
    c: ConstraintSet,
    dictionary: set[str],
    provider,
    embedder,
) -> EvaluationReport:
    """Score each translated paragraph against its source.

    Similarity compares the embedder's vectors of source and translation
    (see `similarities`); the other metrics are computed on the
    translation alone. Wordless translations get readability 0.0 rather
    than an error, since strong constraints legitimately produce empty
    output.
    """
    if len(source_paragraphs) != len(translated_paragraphs):
        raise ValueError(
            f"paragraph count mismatch: {len(source_paragraphs)} source vs "
            f"{len(translated_paragraphs)} translated"
        )
    records = []
    for i, (src, out) in enumerate(zip(source_paragraphs, translated_paragraphs)):
        (similarity,) = similarities(embedder, src, [out])
        words = textcore.words(out)
        grammar = grammar_mistakes(out, provider, words=words)
        records.append(
            {
                "index": i,
                "similarity": similarity,
                "e_score": e_score(out, c, words=words),
                "oov": oov_score(out, dictionary, words=words),
                "grammar_count": grammar["count"],
                "grammar_pct": grammar["percent_of_words"],
                "readability": readability(out, words=words) if words else 0.0,
            }
        )
    if records:
        aggregates = {
            key: sum(r[key] for r in records) / len(records)
            for key in _AGGREGATE_KEYS
        }
    else:
        aggregates = {}
    return EvaluationReport(records, aggregates)


def report_json(report: EvaluationReport, config_echo: Mapping | None = None) -> str:
    """Stable JSON rendering of a report (sorted keys, indented)."""
    return json.dumps(report.as_dict(config_echo), sort_keys=True, indent=2)
