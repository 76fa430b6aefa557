"""Constraint-strength sweep: fidelity as a function of excluded letters.

Runs the beam pipeline once per constraint set over a fixed paragraph
sample, records mean metrics per set, and fits the similarity-vs-exclusion
decay both linearly and exponentially. Results serialize to CSV, a JSON
report, a gnuplot-friendly data file, and a small self-contained SVG
scatter plot.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

from .decoder import DecoderConfig
from .pipeline import Pipeline
from .textcore import (
    ALPHABET,
    ConstraintSet,
    exclusion_fraction,
    letter_frequencies,
    split_paragraphs,
)

VOWELS = "aeiou"

CSV_COLUMNS = (
    "label",
    "letters",
    "exclusion_fraction",
    "mean_similarity",
    "mean_e_score",
    "mean_oov",
    "mean_grammar_count",
    "n_paragraphs",
)


@dataclass(frozen=True)
class SweepPoint:
    label: str
    letters: str
    exclusion_fraction: float
    mean_similarity: float
    mean_e_score: float
    mean_oov: float
    mean_grammar_count: float
    n_paragraphs: int


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class ExponentialFit:
    a: float
    b: float
    r2: float


@dataclass(frozen=True)
class FitParams:
    linear: LinearFit
    exponential: ExponentialFit | None


def default_constraint_sets(extras: str = "") -> list[tuple[str, ConstraintSet]]:
    """The 26 singletons, the vowel set, then configured extra groups.

    Extras come as a comma-separated list of letter groups ("th,ae");
    each group becomes one additional constraint set labeled by itself.
    A group whose letter set is already swept ("e", "ee", "ht" after "th")
    raises ValueError: a repeated point would count twice in the fits.
    """
    sets = [(letter, ConstraintSet.from_string(letter)) for letter in ALPHABET]
    sets.append((VOWELS, ConstraintSet.from_string(VOWELS)))
    for group in extras.split(","):
        group = group.strip().lower()
        if group:
            c = ConstraintSet.from_string(group)
            for label, seen in sets:
                if seen == c:
                    raise ValueError(
                        f"sweep.extras group {group!r} repeats the constraint set {label!r}"
                    )
            sets.append((group, c))
    return sets


def run_sweep(
    corpus: str,
    constraint_sets: Sequence[tuple[str, ConstraintSet]],
    n_paragraphs: int,
    pipeline: Pipeline,
    cfg: DecoderConfig | None = None,
) -> list[SweepPoint]:
    """One SweepPoint per constraint set over the first n paragraphs.

    Empty-vocabulary and failed decodes surface as empty paragraphs with
    similarity 0, so a hopeless constraint yields a valid low point
    rather than an error.
    """
    if not constraint_sets:
        raise ValueError("constraint_sets must be nonempty")
    paragraphs = split_paragraphs(corpus)
    if n_paragraphs < 1 or n_paragraphs > len(paragraphs):
        raise ValueError(
            f"n_paragraphs must be in 1..{len(paragraphs)}, got {n_paragraphs}"
        )
    sample = paragraphs[:n_paragraphs]
    freqs = letter_frequencies(corpus)
    points = []
    for label, c in constraint_sets:
        translated, _ = pipeline.translate(sample, c, "beam", cfg)
        report = pipeline.evaluate(sample, translated, c)
        agg = report.aggregates
        points.append(
            SweepPoint(
                label=label,
                letters=c.as_string(),
                exclusion_fraction=exclusion_fraction(c, freqs),
                mean_similarity=agg["similarity"],
                mean_e_score=agg["e_score"],
                mean_oov=agg["oov"],
                mean_grammar_count=agg["grammar_count"],
                n_paragraphs=n_paragraphs,
            )
        )
    return points


def fit_decay(points: Sequence[SweepPoint]) -> FitParams:
    """Least-squares linear and exponential fits of similarity vs exclusion.

    The exponential fit y = a*exp(-b*x) is estimated by OLS on ln(y) over
    the points with y > 0 and is absent when fewer than two such points
    (or no two distinct x among them) exist. Both r-squared values are
    computed in the original y space over all points, clamped to [0, 1].
    """
    xs = [p.exclusion_fraction for p in points]
    ys = [p.mean_similarity for p in points]
    if len(set(xs)) < 3:
        raise ValueError("fit_decay needs at least 3 distinct exclusion fractions")

    slope, intercept = _ols(xs, ys)
    linear = LinearFit(slope, intercept, _r2(ys, [slope * x + intercept for x in xs]))

    positive = [(x, y) for x, y in zip(xs, ys) if y > 0]
    exponential = None
    if len(positive) >= 2 and len({x for x, _ in positive}) >= 2:
        log_slope, log_intercept = _ols(
            [x for x, _ in positive], [math.log(y) for _, y in positive]
        )
        a, b = math.exp(log_intercept), -log_slope
        exponential = ExponentialFit(
            a, b, _r2(ys, [a * math.exp(-b * x) for x in xs])
        )
    return FitParams(linear, exponential)


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var
    return slope, mean_y - slope * mean_x


def _r2(ys: Sequence[float], predicted: Sequence[float]) -> float:
    mean_y = sum(ys) / len(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, predicted))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return min(1.0, max(0.0, 1.0 - ss_res / ss_tot))


def emit_sweep_csv(points: Sequence[SweepPoint], path: str | Path) -> None:
    """Write points as CSV with the documented column schema."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in points:
            writer.writerow(
                [
                    p.label,
                    p.letters,
                    repr(p.exclusion_fraction),
                    repr(p.mean_similarity),
                    repr(p.mean_e_score),
                    repr(p.mean_oov),
                    repr(p.mean_grammar_count),
                    p.n_paragraphs,
                ]
            )


def emit_report(
    points: Sequence[SweepPoint],
    fit: FitParams | None,
    path: str | Path,
    config_echo: dict | None = None,
) -> None:
    """JSON report embedding the points, both fits, and the run config."""
    payload = {
        "points": [asdict(p) for p in points],
        "fit": asdict(fit) if fit is not None else None,
        "config_echo": config_echo or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_xy(points: Sequence[SweepPoint], path: str | Path) -> None:
    """Two-column x/y data file for external plotting tools."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# exclusion_fraction mean_similarity\n")
        for p in points:
            fh.write(f"{p.exclusion_fraction!r} {p.mean_similarity!r}\n")


def emit_svg(points: Sequence[SweepPoint], path: str | Path) -> None:
    """Minimal self-contained SVG scatter of similarity vs exclusion.

    The x axis is log-scaled like the figure it mirrors; non-positive
    exclusion fractions sit on the left edge. Point labels are
    XML-escaped, since ``run_sweep`` accepts any label.
    """
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    positive = [p.exclusion_fraction for p in points if p.exclusion_fraction > 0]
    x_lo = math.log10(min(positive)) if positive else -3.0
    x_hi = math.log10(max(positive)) if positive else 0.0
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_hi = max(1e-9, max((p.mean_similarity for p in points), default=1.0))

    def sx(x: float) -> float:
        if x <= 0:
            return left
        return left + (math.log10(x) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (1.0 - y / y_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-size="13">exclusion fraction (log scale)</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {top + plot_h / 2:.1f})">'
        "mean similarity</text>",
    ]
    for p in points:
        cx, cy = sx(p.exclusion_fraction), sy(p.mean_similarity)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{cy - 7:.2f}" text-anchor="middle" '
            f'font-size="9">{escape(p.label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
