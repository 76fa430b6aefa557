"""Tests for tokenization, constraints, and letter statistics.

Expected values marked by hand were computed independently before the
implementation (hand segmentation / character filtering / direct counts).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lipogram.textcore import (
    ALPHABET,
    ConstraintSet,
    FreqTable,
    canonical,
    canonical_words,
    exclusion_fraction,
    letter_frequencies,
    letter_masks,
    split_paragraphs,
    strip_letters,
    tokenize,
    violates,
    words,
)

# Characters that sit at word boundaries get extra weight: ASCII letters,
# both apostrophes, whitespace, digits and non-Latin letters. Any other
# Unicode character can still be drawn.
WORDISH = st.one_of(
    st.sampled_from("abzAMZ'’ \t\n\u00a0\u2028079-.éßжλ中"),
    st.characters(),
)

E = ConstraintSet.from_string("e")
VOWELS = ConstraintSet.from_string("aeiou")


class TestConstraintSet:
    def test_from_string_lowercases_and_dedupes(self):
        c = ConstraintSet.from_string("EeAa")
        assert c.as_string() == "ae"
        assert len(c) == 2

    def test_rejects_non_letters(self):
        with pytest.raises(ValueError):
            ConstraintSet.from_string("e1")
        with pytest.raises(ValueError):
            ConstraintSet(frozenset({"E"}))

    def test_empty_is_legal_and_falsy(self):
        c = ConstraintSet.from_string("")
        assert not c
        assert list(c) == []

    def test_membership_case_insensitive(self):
        assert "E" in E
        assert "e" in E
        assert "x" not in E


class TestTokenize:
    def test_empty_string(self):
        assert len(tokenize("")) == 0

    def test_hand_segmentation(self):
        # hand oracle: "my mind." -> word, space, word, punct
        toks = tokenize("my mind.").tokens
        assert [(t.kind, t.text) for t in toks] == [
            ("word", "my"),
            ("space", " "),
            ("word", "mind"),
            ("punct", "."),
        ]

    def test_right_single_quote_is_word_internal(self):
        toks = tokenize("haven’t had").tokens
        assert [(t.kind, t.text) for t in toks] == [
            ("word", "haven’t"),
            ("space", " "),
            ("word", "had"),
        ]

    def test_ascii_apostrophe_internal_only(self):
        seq = tokenize("'tis the dogs' day")
        assert seq.words() == ["tis", "the", "dogs", "day"]
        kinds = [t.kind for t in seq]
        assert kinds[0] == "punct"  # leading apostrophe is not part of a word

    def test_non_latin_is_punct(self):
        seq = tokenize("café 7a")
        assert seq.words() == ["caf", "a"]
        assert seq.text() == "café 7a"

    @given(st.text(max_size=200))
    def test_round_trip(self, text):
        assert tokenize(text).text() == text

    @given(st.text(max_size=200))
    def test_words_contain_only_letters_and_apostrophes(self, text):
        for w in tokenize(text).words():
            assert all(ch.isascii() and ch.isalpha() or ch in "'’" for ch in w)
            assert w[0] not in "'’" and w[-1] not in "'’"


class TestWords:
    @given(st.text(alphabet=WORDISH, max_size=120))
    @example("'tis the dogs' day")
    @example("haven’t''t a’’b café 7a")
    def test_equals_tokenize_words(self, text):
        assert words(text) == tokenize(text).words()

    def test_package_splits_words_only_through_words(self):
        """No module under src/lipogram calls TokenSeq.words().

        `textcore.words` is the one words-only path; `TokenSeq.words()`
        stays for callers outside the package.
        """
        package = Path(__file__).resolve().parents[1] / "src" / "lipogram"
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "words"
                    and not node.args
                    and not node.keywords
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


def test_package_has_no_unused_imports():
    """Every name a module under src/lipogram imports is read in it.

    ``__init__.py`` re-exports what it imports, and ``__future__``
    imports are directives, so both are exempt. A quoted annotation
    counts as a read of the names in it.
    """
    package = Path(__file__).resolve().parents[1] / "src" / "lipogram"
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        imported = {}
        used = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            for attr in ("annotation", "returns"):
                ann = getattr(node, attr, None)
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    quoted = ast.walk(ast.parse(ann.value, mode="eval"))
                    used |= {n.id for n in quoted if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used
        ]
    assert unused == []


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lipogram"


def _references(tree, strings=False):
    """The names a tree refers to: by name and as attributes, the original
    name of each ``from ... import name as alias`` (it is used under the
    alias only), and with ``strings`` each dot-separated part of every
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.asname)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _unreferenced(private, readers, strings=False, package=PACKAGE):
    """The private (or public) functions, classes and methods defined at
    module level or in a module-level class under ``package``, and the
    private names given a value at module level (``_X_RE = ...``), that no
    module under the ``readers`` directories refers to, as
    ``module.qualified_name``. Each of these is a def here, its body being
    the whole assignment for a name. A reference keeps a def alive only if
    it is made outside every such def, private or public, or inside one
    kept alive, and not inside the def's own body: so defs that only refer
    to one another are unreferenced too, and so is a private helper or
    constant that only unreferenced code uses. The scan repeats until it
    keeps no more alive. Dunder names are neither private nor public:
    Python calls them."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, used, name = [], Counter(), {}  # (where, def, its class or None)
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    if targets[0].id.startswith("_"):
                        name[node] = targets[0].id
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, kinds):
                    name[item] = item.name
                if item in name and not name[item].endswith("__"):
                    owner = node if item is not node else None
                    where = f"{path.stem}.{name[node] + '.' if owner else ''}{name[item]}"
                    defined.append((where, item, owner))
    for reader in readers:
        for path in sorted(reader.rglob("*.py")):
            used.update(_references(ast.parse(path.read_text(encoding="utf-8")), strings))
    # The names each def refers to in its body, less its methods'.
    region = {node: Counter(_references(node, strings)) for _, node, _ in defined}
    own = {node: [node] for _, node, _ in defined}
    for _, node, owner in defined:
        if owner in region:
            region[owner] -= region[node]
            own[owner].append(node)
    reached = used - sum(region.values(), Counter())  # from outside every def
    live = set()
    while True:
        found = [
            node for _, node, _ in defined
            if node not in live
            and reached[name[node]] > sum(region[n][name[node]] for n in own[node] if n in live)
        ]
        if not found:
            return [
                where for where, node, _ in defined
                if node not in live and name[node].startswith("_") == private
            ]
        for node in found:
            live.add(node)
            reached += region[node]


def test_references_see_through_an_import_alias():
    """A name imported under an alias is referred to, once, by the import;
    a plain import adds nothing to the names its uses give."""
    tree = ast.parse(
        "from m import helper as h, other\n"
        "import pkg.mod as mod\n"
        "h(); other(); mod.f(); 'pkg.tool'\n"
    )
    refs = Counter(_references(tree))
    assert refs["helper"] == 1 and refs["h"] == 1
    assert refs["other"] == 1 and refs["f"] == 1
    assert "tool" not in refs and Counter(_references(tree, strings=True))["tool"] == 1


def test_unreferenced_is_transitive(tmp_path):
    """Defs that refer only to one another, or are referred to only from
    such defs, are all unreferenced, a private helper of one included; a
    class's reference from its own method keeps it no more alive than
    one from its own body."""
    (tmp_path / "a.py").write_text(
        "def ping(n):\n    return pong(n - 1) if n else _helper()\n"
        "def pong(n):\n    return ping(n)\n"
        "def _helper():\n    return _shared()\n"
        "def _shared():\n    return 0\n"
        "def kept():\n    return _shared\n"
        "class Box:\n"
        "    def wrap(self):\n        return self.unpack()\n"
        "    def unpack(self):\n        return Box()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from a import kept\nkept()\n", encoding="utf-8")
    public = _unreferenced(False, [tmp_path], package=tmp_path)
    assert public == ["a.ping", "a.pong", "a.Box", "a.Box.wrap", "a.Box.unpack"]
    assert _unreferenced(True, [tmp_path], package=tmp_path) == ["a._helper"]


def test_unreferenced_private_assignments(tmp_path):
    """A private name given a value at module level is scanned as a def
    whose body is its assignment: one nothing uses, one only an
    unreferenced def uses and one only another unused constant uses are
    all unreferenced; one a live def uses is kept. Public constants are
    not scanned."""
    (tmp_path / "a.py").write_text(
        "_UNUSED = 1\n"
        "_ORPHANED: int = 2\n"
        "_BASE = 3\n"
        "_DERIVED = _BASE + 1\n"
        "_KEPT = 4\n"
        "PUBLIC = 5\n"
        "__all__ = ['live']\n"
        "def dead():\n    return _ORPHANED\n"
        "def live():\n    return _KEPT\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from a import live\nlive()\n", encoding="utf-8")
    private = _unreferenced(True, [tmp_path], package=tmp_path)
    assert private == ["a._UNUSED", "a._ORPHANED", "a._BASE", "a._DERIVED"]
    assert _unreferenced(False, [tmp_path], package=tmp_path) == ["a.dead"]


def test_package_has_no_dead_private_code():
    """Every private function, class or method defined at module level or
    in a module-level class under src/lipogram, and every private name
    given a value at module level, is referenced somewhere in
    src/lipogram outside its own body and the bodies of unreferenced
    defs, by name or as an attribute.

    Code kept only as a test's reference belongs in the tests. Dunder
    names are exempt: Python calls them.
    """
    assert _unreferenced(True, [PACKAGE]) == []


def test_package_has_no_dead_public_code():
    """Every public function, class or method defined at module level or
    in a module-level class under src/lipogram is referenced somewhere in
    src/lipogram or perfbench/ outside its own body and the bodies of
    other unreferenced defs: by name, as an attribute, or in a string
    constant, since perfbench's tracer wraps functions it names in
    strings (``PASSES``, ``"ngram.train"``).

    Code kept only for the tests belongs in the tests: the reference
    n-gram scorer is ``tests/ngram_reference.py``.
    """
    readers = [PACKAGE, PACKAGE.parents[1] / "perfbench"]
    assert _unreferenced(False, readers, strings=True) == []


def test_only_ngram_reads_the_backoff_weight():
    """No module under src/lipogram but ``ngram.py`` reads an ``.alpha``
    attribute: the backoff arithmetic lives in the model, and the decoder
    reads its scores (``ContinuationIndex.logs``, ``backoff_logscores``)
    with the backoff already applied."""
    package = Path(__file__).resolve().parents[1] / "src" / "lipogram"
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "ngram.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "alpha"
    ]
    assert readers == []


def test_only_metrics_scores_similarity():
    """No module under src/lipogram but ``metrics.py`` calls
    ``cosine_similarity``, an ``.embed_many`` method or an ``.embed``
    method: candidate selection, trimming and evaluation all score texts
    against their source through ``metrics.similarities``, and pick
    through ``metrics.most_similar``."""
    package = Path(__file__).resolve().parents[1] / "src" / "lipogram"
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "metrics.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("cosine_similarity", "embed_many")
            or isinstance(node.func, ast.Attribute) and node.func.attr == "embed"
        )
    ]
    assert callers == []


class TestViolates:
    def test_spec_cases(self):
        assert violates("remember", E) is True
        assert violates("wisdom", E) is False
        assert violates("Criticizing", VOWELS) is True

    def test_case_insensitive(self):
        assert violates("Ever", E) is True
        assert violates("EVER", E) is True

    @given(
        st.text(max_size=30) | st.text(alphabet="abeEIOUxyZİß’'", max_size=30),
        st.sets(st.sampled_from(ALPHABET)),
    )
    @example("EVER", set())
    @example("", {"e"})
    def test_matches_per_character_scan(self, word, letters):
        # The per-character scan it replaced, kept as the reference.
        c = ConstraintSet(frozenset(letters))
        assert violates(word, c) == any(ch in c.letters for ch in word.lower())


class TestLetterMasks:
    @given(
        st.lists(
            st.text(max_size=20) | st.text(alphabet="abeEIOUxyZKİß’'", max_size=20),
            max_size=8,
        ),
        st.sets(st.sampled_from(ALPHABET)),
    )
    @example(["EVER", "\u212a", "İ", ""], {"e", "k", "i"})
    def test_mask_meets_constraint_iff_violates(self, word_list, letters):
        c = ConstraintSet(frozenset(letters))
        legal = (letter_masks(word_list) & c.mask) == 0
        assert legal.tolist() == [not violates(w, c) for w in word_list]


class TestStripLetters:
    def test_table_row_word(self):
        assert strip_letters("younger", E) == "youngr"

    def test_no_change_when_absent(self):
        assert strip_letters("mind", E) == "mind"

    def test_both_cases_removed(self):
        # character-filter oracle: E and e both drop
        assert strip_letters("Ever", E) == "vr"

    def test_preserves_apostrophes(self):
        assert strip_letters("I've", E) == "I'v"

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
    def test_idempotent(self, word):
        once = strip_letters(word, E)
        assert strip_letters(once, E) == once

    @given(
        st.text(
            alphabet=st.sampled_from("abcdeEfgXyz'"),
            min_size=1,
            max_size=20,
        )
    )
    def test_violates_iff_strip_changes(self, word):
        # for words of letters/apostrophes only
        assert (not violates(word, E)) == (strip_letters(word, E) == word)


class TestLetterFrequencies:
    def test_direct_count(self):
        t = letter_frequencies("aaab")
        assert t.freq("a") == 0.75
        assert t.freq("b") == 0.25
        assert t.total == 4

    def test_single_letter(self):
        t = letter_frequencies("zzz")
        assert t.freq("z") == 1.0
        assert t.freq("a") == 0.0

    def test_case_folded_and_punct_ignored(self):
        t = letter_frequencies("Ab, a!")
        assert t.counts == {"a": 2, "b": 1}

    def test_degenerate_corpus_errors(self):
        with pytest.raises(ValueError):
            letter_frequencies("123 !?")

    def test_frequencies_sum_to_one(self):
        t = letter_frequencies("the quick brown fox jumps over the lazy dog")
        assert abs(sum(t.freq(l) for l in "abcdefghijklmnopqrstuvwxyz") - 1.0) < 1e-9

    def test_total_equals_count_sum(self):
        t = letter_frequencies("some text with letters")
        assert t.total == sum(t.counts.values())


class TestExclusionFraction:
    TABLE = FreqTable({"a": 10, "b": 5, "c": 85}, 100)

    def test_empty_constraint(self):
        assert exclusion_fraction(ConstraintSet(), self.TABLE) == 0.0

    def test_additivity(self):
        c = ConstraintSet.from_string("ab")
        assert abs(exclusion_fraction(c, self.TABLE) - 0.15) < 1e-12

    @given(st.sets(st.sampled_from("abcdefghijklmnopqrstuvwxyz"), max_size=8))
    def test_monotone_in_constraint(self, letters):
        t = letter_frequencies("the quick brown fox jumps over the lazy dog")
        c = ConstraintSet(frozenset(letters))
        bigger = ConstraintSet(frozenset(letters | {"q"}))
        assert exclusion_fraction(c, t) <= exclusion_fraction(bigger, t) + 1e-12


class TestSplitParagraphs:
    def test_basic(self):
        assert split_paragraphs("one\n\ntwo\n\n\nthree\n") == ["one", "two", "three"]

    def test_blank_lines_with_spaces(self):
        assert split_paragraphs("a\n  \nb") == ["a", "b"]

    def test_empty(self):
        assert split_paragraphs("\n\n") == []


class TestCanonical:
    def test_lowercases(self):
        assert canonical("Gatsby") == "gatsby"

    def test_normalizes_typographic_apostrophe(self):
        assert canonical("I\u2019ve") == "i've"
        assert canonical("don't") == "don't"

    @given(st.text(alphabet="abcdefghij'", max_size=12))
    def test_idempotent(self, s):
        assert canonical(canonical(s)) == canonical(s)


class TestCanonicalWords:
    @given(st.text(alphabet=WORDISH, max_size=120) | st.text(max_size=60))
    @example("I’ve SEEN Gatsby's dog")
    @example("\u212aelvin \u0130stanbul")  # Kelvin sign and dotted I lower to ASCII
    def test_equals_canonical_of_each_word(self, text):
        assert canonical_words(text) == [canonical(w) for w in words(text)]
