"""Document-level consistency and post-processing passes.

Named entities are detected heuristically (capitalization plus honorifics)
in one scan over each paragraph's words (`textcore.WORD_RE` matches), and
mapped to constraint-free aliases that stay identical across the whole
document; the entity table is a plain dict from surface form to alias.
Pronouns are resolved only when a single antecedent is in range, because a
wrong name is worse than a pronoun. The other passes cut
hallucinated suffixes and apply grammar suggestions that do not break the
letter constraint. The beam pipeline skips `apply_entity_map`,
`drop_term_runs` and `normalize_punctuation`, which never change its
unpunctuated lowercase output; `perfbench/tracer.py` wraps them by name.
"""

from __future__ import annotations

import json
import logging
import re
import urllib.error
import urllib.parse
import urllib.request
from typing import NamedTuple, Sequence

from . import textcore
from .metrics import TfidfEmbedder, fetch, most_similar, prefix_similarities
from .textcore import WORD_RE, ConstraintSet, strip_letters

log = logging.getLogger(__name__)

HONORIFICS = ("Mr", "Mrs", "Miss", "Dr")
PRONOUNS = frozenset(
    {"he", "she", "him", "her", "his", "hers", "they", "them", "their"}
)
DEFAULT_WINDOW = 25

# The pronoun "I" capitalizes everywhere, so it never marks an entity.
_SELF_RE = re.compile(r"I(?:['’]|$)")


# Text between two words that opens a sentence: a sentence-ending mark, or
# a lone double quote after whitespace, which opens quoted speech. (Words
# take every ASCII letter, so the text between two words holds none.)
_SENTENCE_BREAK_RE = re.compile(r'[.!?]|(?<=\s)"(?!\S)')


def _entity_spans(paragraph: str) -> list[str]:
    """Entity surface strings in one paragraph, in order of appearance.

    One pass over the paragraph's words. An entity is a maximal run of
    capitalized words that does not start a sentence, or an honorific
    (Mr/Mrs/Miss/Dr, optional period) followed by capitalized words; the
    run's exact source substring is returned. A run goes on while the next
    word is capitalized, not an honorific and not "I" or "I'...", and
    follows it after exactly one space (after ". " for a lone honorific).
    A sentence starts at the first word, and at a word whose text since
    the last word holds . ! or ?, or a lone " after whitespace.
    """
    spans: list[str] = []
    start = last = None  # the open run's first offset; the last word's end
    bare = False  # the open run is an honorific alone, not yet a span
    for m in WORD_RE.finditer(paragraph):
        word, gap = m.group(), paragraph[last:m.start()]
        name = word[0].isupper() and not _SELF_RE.match(word)
        honorific = word in HONORIFICS
        if start is not None and name and not honorific and (
            gap == " " or (bare and gap == ". ")
        ):
            if not bare:
                spans.pop()
            spans.append(paragraph[start:m.end()])
            bare = False
        elif honorific or (name and not (last is None or _SENTENCE_BREAK_RE.search(gap))):
            start, bare = m.start(), honorific
            if not bare:
                spans.append(word)
        else:
            start = None
        last = m.end()
    return spans


def build_entity_table(paragraphs: Sequence[str], c: ConstraintSet) -> dict[str, str]:
    """Detect entities document-wide and assign stable aliases.

    Returns a plain dict from each entity surface form to its alias, in
    order of first appearance. A single capitalized word that the document
    also uses in lowercase ("Why", "You") is an ordinary word, not an
    entity. The alias is the entity with forbidden letters stripped;
    colliding or empty aliases get a numeric suffix ("2", "3", ...) in
    first-seen order.
    """
    words = {w for paragraph in paragraphs for w in textcore.words(paragraph)}
    surfaces: list[str] = []
    seen: set[str] = set()
    for paragraph in paragraphs:
        for surface in _entity_spans(paragraph):
            if surface not in seen:
                seen.add(surface)
                if not (WORD_RE.fullmatch(surface) and surface.lower() in words):
                    surfaces.append(surface)

    aliases: dict[str, str] = {}
    used: set[str] = set()
    for surface in surfaces:
        base = strip_letters(surface, c).strip()
        alias = base
        suffix = 2
        while not alias or alias in used:
            alias = f"{base}{suffix}"
            suffix += 1
        used.add(alias)
        aliases[surface] = alias
    return aliases


def apply_entity_map(text: str, aliases: dict[str, str]) -> str:
    """Replace entity surface forms with their aliases, longest match first."""
    if not aliases:
        return text
    ordered = sorted(aliases, key=len, reverse=True)
    pattern = re.compile(
        r"(?<![A-Za-z])(?:" + "|".join(re.escape(s) for s in ordered) + r")(?![A-Za-z])"
    )
    return pattern.sub(lambda m: aliases[m.group(0)], text)


def _word_forms(aliases: dict[str, str]) -> dict[str, list[tuple[str, ...]]]:
    """Lowercased word sequences that count as a mention of each entity."""
    forms: dict[str, list[tuple[str, ...]]] = {}
    for surface, alias in aliases.items():
        mentions = []
        for form in (surface, alias):
            words = tuple(w.lower() for w in textcore.words(form))
            if words and words not in mentions:
                mentions.append(words)
        forms[surface] = mentions
    return forms


def resolve_pronouns(text: str, aliases: dict[str, str]) -> str:
    """Swap a pronoun for an entity alias when the antecedent is unambiguous.

    One substitution over the text's words, with the entity table of
    `build_entity_table`. A third-person pronoun is replaced only when
    exactly one entity is mentioned (by surface or alias) within the
    preceding DEFAULT_WINDOW words, a replaced pronoun counting as its
    alias's words; any other situation leaves the pronoun alone.
    """
    if not aliases:
        return text
    forms = _word_forms(aliases)
    words_before: list[str] = []

    def resolve(m: re.Match) -> str:
        word = m.group()
        if word.lower() in PRONOUNS:
            recent = words_before[-DEFAULT_WINDOW:]
            mentioned = [
                surface
                for surface, seqs in forms.items()
                if any(_contains_run(recent, seq) for seq in seqs)
            ]
            if len(mentioned) == 1:
                word = aliases[mentioned[0]]
        words_before.extend(w.lower() for w in textcore.words(word))
        return word

    return WORD_RE.sub(resolve, text)


def _contains_run(haystack: list[str], needle: tuple[str, ...]) -> bool:
    n = len(needle)
    return any(
        tuple(haystack[i:i + n]) == needle for i in range(len(haystack) - n + 1)
    )


def normalize_punctuation(text: str) -> str:
    """Canonical quotes and spacing; drops paragraphs left empty.

    Applies, in order: `` and runs of 2+ single quotes become a double
    quote; whitespace before , . ! ? is removed; a comma directly before
    a word gets exactly one following space; spaces just inside paired
    double quotes are removed.
    """
    paragraphs = []
    for paragraph in re.split(r"\n[ \t]*\n", text):
        fixed = paragraph.replace("``", '"')
        fixed = re.sub(r"'{2,}", '"', fixed)
        fixed = re.sub(r"[ \t]+([,.!?])", r"\1", fixed)
        fixed = re.sub(r",[ \t]*(?=[A-Za-z])", ", ", fixed)
        parts = fixed.split('"')
        for i in range(1, len(parts)):
            if i % 2 == 1:  # text after an opening quote
                parts[i] = parts[i].lstrip(" \t")
            else:  # text before this closing quote is parts[i - 1]
                parts[i - 1] = parts[i - 1].rstrip(" \t")
        fixed = '"'.join(parts)
        if fixed.strip():
            paragraphs.append(fixed)
    return "\n\n".join(paragraphs)


def drop_term_runs(text: str, min_items: int = 8) -> str:
    """Remove long comma-separated lists of single words.

    A run of min_items or more single-word items separated by commas is
    deleted outright; shorter lists stay. The threshold is a heuristic
    for what counts as a "long list".
    """
    word = WORD_RE.pattern
    run = re.compile(rf"{word}(?:\s*,\s*{word}){{{min_items - 1},}}")
    cleaned = run.sub("", text)
    return re.sub(r"[ \t]{2,}", " ", cleaned)


def trim_suffix(text: str, source: str, embedder) -> str:
    """Cut the text at the word boundary most similar to the source.

    Candidates are every prefix ending at a word end plus the full text;
    the highest cosine similarity wins and ties keep the longest prefix
    (`metrics.most_similar`, which scores with `metrics.similarities`).
    With the built-in ``TfidfEmbedder``, `metrics.prefix_similarities`
    scores every prefix in one pass, the full text sharing the last
    prefix's features, and only the near-best are scored exactly; any
    other embedder scores every candidate in one ``embed_many`` call.
    """
    if not text:
        raise ValueError("cannot trim an empty text")
    candidates = [text[: m.end()] for m in WORD_RE.finditer(text)]
    if not candidates or candidates[-1] != text:
        candidates.append(text)
    approx = None
    if type(embedder) is TfidfEmbedder:
        approx = prefix_similarities(embedder, source, text) or [0.0]
        approx += approx[-1:] * (len(candidates) - len(approx))
    # The candidates grow in length, so the last maximum is the longest.
    return candidates[most_similar(embedder, source, candidates, approx, last=True)]


class GrammarProviderError(RuntimeError):
    """The grammar service could not be reached or answered garbage."""


class GrammarMatch(NamedTuple):
    offset: int
    length: int
    replacement: str | None


class OfflineGrammar:
    """Hermetic no-op provider: no service, no matches."""

    def check(self, text: str) -> list[GrammarMatch]:
        return []


class LanguageToolClient:
    """Client for a LanguageTool-v2-compatible HTTP endpoint."""

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout

    def check(self, text: str) -> list[GrammarMatch]:
        payload = urllib.parse.urlencode(
            {"text": text, "language": "en-US"}
        ).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint + "/v2/check", data=payload
        )
        try:
            return _parse_matches(json.loads(fetch(request, self.timeout).decode("utf-8")))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise GrammarProviderError(
                f"grammar check via {self.endpoint} failed: {exc}"
            ) from exc


def _parse_matches(body) -> list[GrammarMatch]:
    """The matches of a LanguageTool v2 response; ValueError for any other
    shape. A match keeps its first replacement, or None without one."""
    matches = body.get("matches") if isinstance(body, dict) else None
    if not isinstance(matches, list):
        raise ValueError("response has no list of matches")
    out = []
    for m in matches:
        if not isinstance(m, dict):
            raise ValueError(f"match {m!r} is not an object")
        offset, length = m.get("offset"), m.get("length")
        if not all(type(v) is int for v in (offset, length)):
            raise ValueError(f"match {m!r} lacks an integer offset and length")
        replacements = m.get("replacements") or []
        if not isinstance(replacements, list) or not all(
            isinstance(r, dict) and isinstance(r.get("value"), str) for r in replacements
        ):
            raise ValueError(f"match {m!r} has malformed replacements")
        value = replacements[0]["value"] if replacements else None
        out.append(GrammarMatch(offset, length, value))
    return out


def make_grammar_provider(endpoint: str | None):
    """Empty endpoint selects the offline stub, anything else the client."""
    return LanguageToolClient(endpoint) if endpoint else OfflineGrammar()


def grammar_correct(text: str, c: ConstraintSet, provider) -> str:
    """Apply constraint-safe grammar suggestions; never fail hard.

    Suggestions that would introduce a forbidden letter are skipped, as
    are overlapping ones after an earlier suggestion was applied and ones
    whose span is negative or runs past the text. An unreachable provider
    logs a warning and returns the text unchanged.
    """
    try:
        matches = provider.check(text)
    except GrammarProviderError as exc:
        log.warning("grammar correction skipped: %s", exc)
        return text
    out = []
    cursor = 0
    for m in sorted(matches, key=lambda m: (m.offset, m.length)):
        if m.replacement is None or m.offset < cursor:
            continue
        if m.length < 0 or m.offset + m.length > len(text):
            continue
        if textcore.violates(m.replacement, c):
            continue
        out.append(text[cursor:m.offset])
        out.append(m.replacement)
        cursor = m.offset + m.length
    out.append(text[cursor:])
    return "".join(out)
