"""Byte-identity regression for the beam pipeline.

The decoder is an optimisation target, and every speed-up must leave its
outputs unchanged to the byte. This test translates a handful of short
bundled paragraphs with the beam method under a few constraint sets and
decoder modes and compares a SHA-256 over all outputs with a digest pinned
from the implementation before the decoder was vectorised. It was re-pinned
once, when a word opening quoted speech stopped counting as an entity; that
changed paragraph 36 under "t". A mismatch means some output changed; rerun
with ``-s`` to print the texts.
"""

import hashlib
from importlib.resources import files
from pathlib import Path

import pytest

from lipogram.decoder import DecoderConfig
from lipogram.lexicon import load_dictionary, load_lexicon
from lipogram.metrics import build_idf
from lipogram.ngram import train
from lipogram.pipeline import Pipeline
from lipogram.textcore import ConstraintSet, split_paragraphs

PARAGRAPHS = (8, 21, 22, 24, 34, 36)
RUNS = (
    ("e", DecoderConfig()),
    ("t", DecoderConfig()),
    ("aeiou", DecoderConfig()),
    ("e", DecoderConfig(mode="sampled", candidates_k=4, beam_width=8, seed=7)),
)
PINNED = "f9cbfc1f533910b84eaabff906bff99a4c68ae5576a36329d0f625f9e834c3b9"


@pytest.fixture(scope="module")
def setup():
    data = files("lipogram.data")
    text = data.joinpath("gatsby.txt").read_text(encoding="utf-8")
    paragraphs = split_paragraphs(text)
    pipeline = Pipeline(
        train(text, order=3),
        load_lexicon(Path(str(data.joinpath("lexicon.tsv")))),
        build_idf(paragraphs),
        load_dictionary(Path(str(data.joinpath("dictionary.txt")))),
    )
    return pipeline, [paragraphs[i] for i in PARAGRAPHS]


def test_beam_outputs_match_pinned_digest(setup):
    pipeline, sources = setup
    digest = hashlib.sha256()
    for letters, cfg in RUNS:
        outputs, failures = pipeline.translate(
            sources, ConstraintSet.from_string(letters), "beam", cfg
        )
        print(letters, cfg.mode, failures, outputs)
        digest.update(f"{letters}|{cfg.mode}|{failures}\n".encode())
        digest.update("\x00".join(outputs).encode("utf-8"))
    assert digest.hexdigest() == PINNED
