"""The reference entity passes the tests check the word scan against.

These are the token walks that ``lipogram.passes`` replaced with one scan
over ``WORD_RE`` matches: ``entity_spans`` walks ``textcore.tokenize``
tokens with an offset table, ``build_entity_table`` collects its spans
into the alias dict, and ``resolve_pronouns`` rebuilds the text token by
token. The tests require the package's passes to give the same spans, the
same dict in the same order and the same text on every input. Besides the
tokenizer and the word and letter helpers of ``textcore`` it uses nothing
from the package.
"""

import re

from lipogram.textcore import WORD_RE, strip_letters, tokenize, words

HONORIFICS = ("Mr", "Mrs", "Miss", "Dr")
PRONOUNS = frozenset(
    {"he", "she", "him", "her", "his", "hers", "they", "them", "their"}
)
WINDOW = 25
_SELF_RE = re.compile(r"I(?:['’]|$)")


def entity_spans(paragraph):
    """Entity surface strings in one paragraph, in order of appearance,
    found by a walk over the paragraph's word, space and punct tokens."""
    tokens = tokenize(paragraph).tokens
    offsets = []
    pos = 0
    for tok in tokens:
        offsets.append(pos)
        pos += len(tok.text)

    def is_capitalized(i):
        tok = tokens[i]
        return (
            tok.kind == "word"
            and tok.text[0].isupper()
            and _SELF_RE.fullmatch(tok.text[:2]) is None
        )

    spans = []
    sentence_start = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind != "word":
            if tok.kind == "punct" and any(ch in ".!?" for ch in tok.text):
                sentence_start = True
            elif tok.text == '"' and (i == 0 or tokens[i - 1].kind == "space"):
                sentence_start = True
            i += 1
            continue

        honorific = tok.text in HONORIFICS
        if honorific or (is_capitalized(i) and not sentence_start):
            start, end, last_word = offsets[i], i, i
            j = i + 1
            if honorific and j < len(tokens) and tokens[j].text == ".":
                end = j
                j += 1
            while (
                j + 1 < len(tokens)
                and tokens[j].kind == "space"
                and tokens[j].text == " "
                and is_capitalized(j + 1)
                and tokens[j + 1].text not in HONORIFICS
            ):
                end = last_word = j + 1
                j += 2
            if last_word > i or not honorific:
                stop = offsets[end] + len(tokens[end].text)
                spans.append(paragraph[start:stop])
                sentence_start = False
                i = end + 1
                continue
        sentence_start = False
        i += 1
    return spans


def build_entity_table(paragraphs, c):
    """Each entity surface form's alias, in order of first appearance."""
    seen_words = {w for paragraph in paragraphs for w in words(paragraph)}
    surfaces = []
    for paragraph in paragraphs:
        for surface in entity_spans(paragraph):
            common = WORD_RE.fullmatch(surface) and surface.lower() in seen_words
            if surface not in surfaces and not common:
                surfaces.append(surface)
    aliases = {}
    for surface in surfaces:
        base = strip_letters(surface, c).strip()
        alias, suffix = base, 2
        while not alias or alias in aliases.values():
            alias, suffix = f"{base}{suffix}", suffix + 1
        aliases[surface] = alias
    return aliases


def resolve_pronouns(text, aliases):
    """The text with each pronoun that has exactly one entity mentioned in
    the WINDOW words before it replaced by that entity's alias, rebuilt
    token by token."""
    forms = {}
    for surface, alias in aliases.items():
        mentions = []
        for form in (surface, alias):
            seq = tuple(w.lower() for w in words(form))
            if seq and seq not in mentions:
                mentions.append(seq)
        forms[surface] = mentions

    def contains(haystack, needle):
        n = len(needle)
        return any(
            tuple(haystack[i:i + n]) == needle for i in range(len(haystack) - n + 1)
        )

    out, before = [], []
    for tok in tokenize(text).tokens:
        if tok.kind != "word":
            out.append(tok.text)
            continue
        low = tok.text.lower()
        if low in PRONOUNS:
            recent = before[-WINDOW:]
            mentioned = [s for s, seqs in forms.items() if any(contains(recent, q) for q in seqs)]
            if len(mentioned) == 1:
                alias = aliases[mentioned[0]]
                out.append(alias)
                before.extend(w.lower() for w in words(alias))
                continue
        out.append(tok.text)
        before.append(low)
    return "".join(out)
