"""Tests for the sweep harness, decay fitting, and serialization."""

import csv
import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipogram.decoder import DecoderConfig
from lipogram.lexicon import Lexicon
from lipogram.metrics import build_idf
from lipogram.ngram import train
from lipogram.pipeline import Pipeline
from lipogram.sweep import (
    CSV_COLUMNS,
    ExponentialFit,
    FitParams,
    LinearFit,
    SweepPoint,
    default_constraint_sets,
    emit_report,
    emit_svg,
    emit_sweep_csv,
    emit_xy,
    fit_decay,
    run_sweep,
)
from lipogram.textcore import (
    ConstraintSet,
    exclusion_fraction,
    letter_frequencies,
    split_paragraphs,
)


def synthetic_points(pairs):
    return [
        SweepPoint(
            label=f"p{i}",
            letters="",
            exclusion_fraction=x,
            mean_similarity=y,
            mean_e_score=0.0,
            mean_oov=0.0,
            mean_grammar_count=0.0,
            n_paragraphs=1,
        )
        for i, (x, y) in enumerate(pairs)
    ]


def read_sweep_csv(path):
    """The points of a written sweep.csv, read with ``csv`` and ``float``."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_COLUMNS
    return [
        SweepPoint(label, letters, *map(float, values), int(n))
        for label, letters, *values, n in rows
    ]


class TestDefaultConstraintSets:
    def test_twenty_seven_default_sets(self):
        sets = default_constraint_sets()
        assert len(sets) == 27
        assert [label for label, _ in sets[:26]] == list(
            "abcdefghijklmnopqrstuvwxyz"
        )
        assert sets[26][0] == "aeiou"
        assert sets[26][1] == ConstraintSet.from_string("aeiou")

    def test_extras_append_labeled_groups(self):
        sets = default_constraint_sets("th, AE")
        assert len(sets) == 29
        assert sets[27] == ("th", ConstraintSet.from_string("th"))
        assert sets[28] == ("ae", ConstraintSet.from_string("ae"))

    def test_blank_extras_ignored(self):
        assert len(default_constraint_sets(" , ,")) == 27

    @pytest.mark.parametrize(
        "extras, group, label",
        [("e", "e", "e"), ("E", "e", "e"), ("ee", "ee", "e"), ("aeiuo", "aeiuo", "aeiou"),
         ("th, ht", "ht", "th"), ("ck,th,kc", "kc", "ck")],
    )
    def test_extra_repeating_a_set_is_rejected(self, extras, group, label):
        with pytest.raises(ValueError) as err:
            default_constraint_sets(extras)
        assert str(err.value) == (
            f"sweep.extras group {group!r} repeats the constraint set {label!r}"
        )


class TestFitDecay:
    def test_recovers_clean_exponential(self):
        pairs = [(i / 20.0, 2.0 * math.exp(-3.0 * i / 20.0)) for i in range(20)]
        fit = fit_decay(synthetic_points(pairs))
        assert fit.exponential is not None
        assert abs(fit.exponential.a - 2.0) / 2.0 < 0.01
        assert abs(fit.exponential.b - 3.0) / 3.0 < 0.01
        assert fit.exponential.r2 > 0.999

    def test_collinear_points_fit_linearly(self):
        pairs = [(x, 0.9 - 0.5 * x) for x in (0.0, 0.1, 0.2, 0.3)]
        fit = fit_decay(synthetic_points(pairs))
        assert fit.linear.slope == pytest.approx(-0.5)
        assert fit.linear.intercept == pytest.approx(0.9)
        assert fit.linear.r2 == pytest.approx(1.0)

    def test_two_distinct_fractions_rejected(self):
        pairs = [(0.0, 1.0), (0.1, 0.5), (0.1, 0.4)]
        with pytest.raises(ValueError, match="3 distinct"):
            fit_decay(synthetic_points(pairs))

    def test_nonpositive_similarities_drop_exponential(self):
        pairs = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
        fit = fit_decay(synthetic_points(pairs))
        assert fit.exponential is None
        assert fit.linear.slope == pytest.approx(0.0)
        assert fit.linear.r2 == pytest.approx(1.0)

    def test_single_positive_point_drops_exponential(self):
        pairs = [(0.0, 0.5), (0.1, 0.0), (0.2, 0.0)]
        assert fit_decay(synthetic_points(pairs)).exponential is None

    def test_r2_clamped_to_unit_interval(self):
        # Wildly non-exponential data: the exponential fit may explain
        # nothing, but r2 must still land in [0, 1].
        pairs = [(0.0, 0.1), (0.1, 0.9), (0.2, 0.05), (0.3, 0.8)]
        fit = fit_decay(synthetic_points(pairs))
        assert 0.0 <= fit.linear.r2 <= 1.0
        assert fit.exponential is None or 0.0 <= fit.exponential.r2 <= 1.0


class TestCsvRoundTrip:
    POINTS = synthetic_points([(0.007, 0.91), (0.12, 0.4), (0.38, 0.01)])

    def test_header_matches_schema_exactly(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_sweep_csv([], path)
        assert path.read_text(encoding="utf-8") == (
            "label,letters,exclusion_fraction,mean_similarity,"
            "mean_e_score,mean_oov,mean_grammar_count,n_paragraphs\n"
        )

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_sweep_csv(self.POINTS, path)
        assert read_sweep_csv(path) == self.POINTS

    @given(
        x=st.floats(0, 1, allow_nan=False),
        y=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_survives_awkward_floats(self, tmp_path_factory, x, y):
        point = synthetic_points([(x, y)])[0]
        path = tmp_path_factory.mktemp("csv") / "sweep.csv"
        emit_sweep_csv([point], path)
        assert read_sweep_csv(path) == [point]


class TestEmitters:
    POINTS = synthetic_points([(0.01, 0.8), (0.1, 0.3), (0.35, 0.02)])

    def test_report_schema(self, tmp_path):
        path = tmp_path / "report.json"
        fit = FitParams(
            LinearFit(-2.0, 0.8, 0.95), ExponentialFit(0.9, 8.0, 0.97)
        )
        emit_report(self.POINTS, fit, path, {"paragraphs": 3})
        body = json.loads(path.read_text(encoding="utf-8"))
        assert set(body) == {"points", "fit", "config_echo"}
        assert len(body["points"]) == 3
        assert body["points"][0]["label"] == "p0"
        assert body["fit"]["linear"]["slope"] == -2.0
        assert body["fit"]["exponential"]["b"] == 8.0
        assert body["config_echo"] == {"paragraphs": 3}

    def test_report_without_fit(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report(self.POINTS, None, path)
        assert json.loads(path.read_text(encoding="utf-8"))["fit"] is None

    def test_xy_data_file(self, tmp_path):
        path = tmp_path / "sweep.dat"
        emit_xy(self.POINTS, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 4
        x, y = lines[1].split()
        assert float(x) == 0.01 and float(y) == 0.8

    def test_svg_scatter(self, tmp_path):
        path = tmp_path / "sweep.svg"
        emit_svg(self.POINTS, path)
        body = path.read_text(encoding="utf-8")
        assert body.startswith("<svg")
        assert body.count("<circle") == 3
        assert "mean similarity" in body

    def test_svg_labels_are_escaped(self, tmp_path):
        # run_sweep accepts any label; the file must still parse as XML.
        labels = ["e&t", "<b>", 'a"b', "plain"]
        points = [
            SweepPoint(label, "e", 0.1 * (i + 1), 0.5, 0.0, 0.0, 0.0, 1)
            for i, label in enumerate(labels)
        ]
        path = tmp_path / "sweep.svg"
        emit_svg(points, path)
        root = ET.parse(path).getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[2:] == labels


class TestRunSweep:
    CORPUS = (
        "a big cat sat on that mat\n\n"
        "a small dog ran down a road\n\n"
        "that cat saw a small dog\n\n"
        "a dog and a cat ran on"
    )

    def pipeline(self):
        model = train(self.CORPUS)
        paragraphs = split_paragraphs(self.CORPUS)
        idf = build_idf(paragraphs)
        dictionary = {w for p in paragraphs for w in p.split()}
        return Pipeline(model, Lexicon({}), idf, dictionary)

    def cfg(self):
        return DecoderConfig(beam_width=6, candidates_k=3, candidate_vocab_size=20)

    def test_one_point_per_set_in_order(self):
        sets = [("g", ConstraintSet.from_string("g")),
                ("w", ConstraintSet.from_string("w"))]
        points = run_sweep(self.CORPUS, sets, 2, self.pipeline(), self.cfg())
        assert [p.label for p in points] == ["g", "w"]
        assert all(p.n_paragraphs == 2 for p in points)

    def test_every_point_is_constraint_sound(self):
        sets = default_constraint_sets()[:6]
        points = run_sweep(self.CORPUS, sets, 2, self.pipeline(), self.cfg())
        assert all(p.mean_e_score == 0.0 for p in points)

    def test_exclusion_fraction_matches_textcore(self):
        sets = [("t", ConstraintSet.from_string("t"))]
        points = run_sweep(self.CORPUS, sets, 2, self.pipeline(), self.cfg())
        freqs = letter_frequencies(self.CORPUS)
        assert points[0].exclusion_fraction == exclusion_fraction(
            ConstraintSet.from_string("t"), freqs
        )

    def test_hopeless_constraint_is_a_valid_zero_point(self):
        sets = [("aeiou", ConstraintSet.from_string("aeiou"))]
        points = run_sweep(self.CORPUS, sets, 2, self.pipeline(), self.cfg())
        assert points[0].mean_similarity == 0.0
        assert points[0].mean_e_score == 0.0

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep(self.CORPUS, [], 2, self.pipeline(), self.cfg())

    def test_paragraph_count_validated(self):
        sets = [("g", ConstraintSet.from_string("g"))]
        with pytest.raises(ValueError, match="n_paragraphs"):
            run_sweep(self.CORPUS, sets, 99, self.pipeline(), self.cfg())
        with pytest.raises(ValueError, match="n_paragraphs"):
            run_sweep(self.CORPUS, sets, 0, self.pipeline(), self.cfg())
