"""End-to-end translation pipeline shared by the CLI and the sweep.

The beam method runs the full document flow: build the entity table, decode
each paragraph, pick the most source-similar candidate, then repair it:
sentence-case, resolve pronouns to entity aliases, trim the suffix, close
with a period, and apply grammar suggestions. The two baselines translate
word by word and skip the document passes. Every method returns exactly one
output paragraph per input paragraph; a paragraph whose decode fails comes
back empty rather than crashing the run.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .decoder import ConstraintTables, DecoderConfig, SearchWords, beam_search, multiselect
from .lexicon import Lexicon, translate_edelete, translate_synonym
from .metrics import (
    EvaluationReport,
    IdfTable,
    TfidfEmbedder,
    evaluate_document,
)
from .ngram import NGramModel
from .passes import (
    OfflineGrammar,
    build_entity_table,
    grammar_correct,
    resolve_pronouns,
    trim_suffix,
)
from .textcore import ConstraintSet

log = logging.getLogger(__name__)

METHODS = ("edelete", "synonym", "beam")


class Pipeline:
    """Holds the trained model and providers for repeated translation runs.

    Only the beam method reads the model; a pipeline that runs only the
    baselines and evaluation may be built with ``model=None``.
    """

    def __init__(
        self,
        model: NGramModel | None,
        lexicon: Lexicon,
        idf: IdfTable,
        dictionary: set[str],
        select_embedder=None,
        grammar=None,
    ):
        self.model = model
        self.lexicon = lexicon
        self.idf = idf
        self.dictionary = dictionary
        # Candidate selection, trimming, and evaluation may use a remote
        # embedder; the in-search similarity always uses the built-in one.
        self.select_embedder = select_embedder or TfidfEmbedder(idf)
        self.grammar = grammar or OfflineGrammar()
        self._words: SearchWords | None = None
        self._tables: ConstraintTables | None = None  # the last ones built

    def translate(
        self,
        paragraphs: Sequence[str],
        c: ConstraintSet,
        method: str,
        cfg: DecoderConfig | None = None,
    ) -> tuple[list[str], int]:
        """Translate paragraphs; returns (outputs, failed-paragraph count)."""
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if method == "edelete":
            return [translate_edelete(p, c) for p in paragraphs], 0
        if method == "synonym":
            return [translate_synonym(p, c, self.lexicon) for p in paragraphs], 0
        if self.model is None:
            raise ValueError("the beam method needs an n-gram model")
        return self._translate_beam(paragraphs, c, cfg or DecoderConfig())

    def _translate_beam(
        self,
        paragraphs: Sequence[str],
        c: ConstraintSet,
        cfg: DecoderConfig,
    ) -> tuple[list[str], int]:
        emap = build_entity_table(paragraphs, c)
        tables = self._tables_for(c, cfg.candidate_vocab_size)
        decoded = beam_search(tuple(paragraphs), tables, cfg, self.lexicon)
        outputs = []
        failures = 0
        for i, (source, candidates) in enumerate(zip(paragraphs, decoded)):
            if isinstance(candidates, Exception):
                log.warning("paragraph %d left empty: %s", i, candidates)
                outputs.append("")
                failures += 1
                continue
            best = multiselect(candidates, source, self.select_embedder, tables.words.idf)
            # Cased before the pronoun pass, which may insert a lowercase alias.
            text = best.text()
            text = text[0].upper() + text[1:]
            text = resolve_pronouns(text, emap)
            text = trim_suffix(text, source, self.select_embedder)
            if text[-1] not in ".!?\"":
                text += "."
            outputs.append(grammar_correct(text, c, self.grammar))
        return outputs, failures

    def _tables_for(self, c: ConstraintSet, M: int) -> ConstraintTables:
        """The ConstraintTables of (c, M) under this pipeline's model and
        IDF table. The SearchWords of the model and the IDF table are built
        on first use and kept while both stay the same; the last tables are
        kept and reused while the constraint, M and those words stay the
        same. Old ones are released before new ones are built, so no two
        are ever held."""
        words = self._words
        if words is None or words.model is not self.model or words.idf is not self.idf:
            self._words = self._tables = None
            self._words = words = SearchWords(self.model, self.idf)
        last = self._tables
        if not (
            last is not None and last.constraint == c and last.size == M
            and last.words is words
        ):
            self._tables = None
            self._tables = ConstraintTables(c, words, M)
        return self._tables

    def evaluate(
        self,
        source_paragraphs: Sequence[str],
        translated_paragraphs: Sequence[str],
        c: ConstraintSet,
    ) -> EvaluationReport:
        return evaluate_document(
            source_paragraphs,
            translated_paragraphs,
            c,
            self.dictionary,
            self.grammar,
            self.select_embedder,
        )
