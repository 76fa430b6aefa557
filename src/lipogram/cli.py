"""Command-line interface: train, translate, evaluate, sweep.

All commands are deterministic given identical inputs and seed when the
offline providers are in use. Flags beat environment variables (prefix
LIPO_), which beat the built-in defaults; the bundled public-domain corpus,
lexicon, and dictionary serve as defaults so the commands work out of the
box. Only the commands that decode read the n-gram model: `train`,
`translate --method beam` and `sweep` load `--model` or train one of order
`--order`; `evaluate` and the two baseline translators never touch it, so a
missing `--model` file does not fail them. `--order` is still checked on
every command. `train` builds no IDF table; the other commands build one
from the corpus. Exit codes: 0 success (warnings allowed), 1 usage error,
2 I/O error (including an unreachable or malformed grammar or embedding
provider, or an unreadable model on a command that reads it), 3 every
paragraph failed to decode.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property
from importlib.resources import as_file, files
from pathlib import Path

from .decoder import DecoderConfig, parse_config_file
from .lexicon import load_dictionary, load_lexicon
from .metrics import (
    EmbedProviderError,
    IdfTable,
    RemoteEmbedder,
    build_idf,
    e_score,
    report_json,
)
from .ngram import DEFAULT_ORDER, NGramModel, load as load_model, train
from .passes import GrammarProviderError, make_grammar_provider
from .pipeline import METHODS, Pipeline
from .sweep import (
    default_constraint_sets,
    emit_report,
    emit_svg,
    emit_sweep_csv,
    emit_xy,
    fit_decay,
    run_sweep,
)
from .textcore import ConstraintSet, split_paragraphs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DECODE = 3

ENV_PREFIX = "LIPO_"


class _Parser(argparse.ArgumentParser):
    """Argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def _data_path(resource: str) -> Path:
    with as_file(files("lipogram.data").joinpath(resource)) as path:
        return Path(path)


def _paragraph_count(text: str) -> int:
    """The argparse type of ``--paragraphs``: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lipogram", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--corpus",
            default=_env_default("corpus"),
            help="training/reference corpus (default: bundled novel)",
        )
        p.add_argument(
            "--lexicon",
            default=_env_default("lexicon"),
            help="synonym lexicon TSV (default: bundled)",
        )
        p.add_argument(
            "--dictionary",
            default=_env_default("dictionary"),
            help="known-words list for OOV (default: bundled)",
        )
        p.add_argument(
            "--model",
            default=_env_default("model"),
            help="saved n-gram model for train, beam translate and sweep; "
            "omitted -> train from --corpus",
        )
        p.add_argument(
            "--letters",
            default=_env_default("letters", "e"),
            help="forbidden letters (default: e)",
        )
        p.add_argument(
            "--order",
            type=int,
            default=_env_default("order", str(DEFAULT_ORDER)),
            help=f"n-gram order when training (default: {DEFAULT_ORDER})",
        )
        p.add_argument(
            "--config",
            default=_env_default("config"),
            help="decoder config file (key=value lines)",
        )
        p.add_argument(
            "--out",
            default=_env_default("out", "."),
            help="output directory (default: current)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=_env_default("seed"),
            help="sampling seed (default: 0, or the config file's)",
        )
        p.add_argument(
            "--grammar-endpoint",
            default=_env_default("grammar-endpoint", ""),
            help="LanguageTool-compatible endpoint; empty -> offline stub",
        )
        p.add_argument(
            "--embed-endpoint",
            default=_env_default("embed-endpoint", ""),
            help="embedding endpoint; empty -> built-in TF-IDF",
        )

    p_train = sub.add_parser("train", help="train and save an n-gram model")
    common(p_train)

    p_translate = sub.add_parser("translate", help="translate a document")
    common(p_translate)
    p_translate.add_argument(
        "--method",
        choices=METHODS,
        default=_env_default("method", "beam"),
        help="translation method (default: beam)",
    )
    p_translate.add_argument(
        "--paragraphs",
        type=_paragraph_count,
        default=_env_default("paragraphs"),
        help="translate only the first N paragraphs",
    )

    p_evaluate = sub.add_parser("evaluate", help="score a translation")
    common(p_evaluate)
    p_evaluate.add_argument(
        "--candidate",
        default=_env_default("candidate"),
        help="translated document to score (default: the source itself)",
    )
    p_evaluate.add_argument(
        "--paragraphs",
        type=_paragraph_count,
        default=_env_default("paragraphs"),
        help="evaluate only the first N paragraphs",
    )

    p_sweep = sub.add_parser("sweep", help="run the constraint-strength sweep")
    common(p_sweep)
    p_sweep.add_argument(
        "--paragraphs",
        type=_paragraph_count,
        default=_env_default("paragraphs", "200"),
        help="paragraphs per constraint set (default: 200)",
    )
    return parser


def _read_text(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _IoError(f"cannot read {what} {path}: {exc.strerror}") from exc


class _IoError(RuntimeError):
    pass


class _Run:
    """Resolved inputs shared by the subcommands."""

    def __init__(self, args):
        self.args = args
        corpus_path = args.corpus or _data_path("gatsby.txt")
        lexicon_path = args.lexicon or _data_path("lexicon.tsv")
        dictionary_path = args.dictionary or _data_path("dictionary.txt")
        self.corpus = _read_text(corpus_path, "corpus")
        try:
            self.lexicon = load_lexicon(lexicon_path)
            self.dictionary = load_dictionary(dictionary_path)
        except OSError as exc:
            raise _IoError(f"cannot read lexicon/dictionary: {exc}") from exc
        try:
            self.constraint = ConstraintSet.from_string(args.letters)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc

        self.cfg = DecoderConfig()
        self.extras: dict[str, str] = {}
        if args.config:
            try:
                self.cfg, self.extras = parse_config_file(args.config)
            except OSError as exc:
                raise _IoError(f"cannot read config {args.config}: {exc}") from exc
            except ValueError as exc:
                raise _UsageError(str(exc)) from exc
        if args.seed is not None and args.seed != self.cfg.seed:
            from dataclasses import replace

            self.cfg = replace(self.cfg, seed=args.seed)

        grammar_endpoint = args.grammar_endpoint or self.extras.get(
            "grammar.endpoint", ""
        )
        embed_endpoint = args.embed_endpoint or self.extras.get(
            "embed.endpoint", ""
        )
        self.grammar = make_grammar_provider(grammar_endpoint)
        self.embedder = RemoteEmbedder(embed_endpoint) if embed_endpoint else None

        self.paragraphs = split_paragraphs(self.corpus)
        if not args.model and args.order < 1:
            raise _UsageError("--order must be >= 1")

        self.out_dir = Path(args.out)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _IoError(f"cannot create {self.out_dir}: {exc}") from exc

    @cached_property
    def model(self) -> NGramModel:
        """Loaded or trained on first use, by the commands that decode."""
        if self.args.model:
            try:
                return load_model(self.args.model)
            except OSError as exc:
                raise _IoError(f"cannot read model {self.args.model}: {exc}") from exc
        return train(self.corpus, order=self.args.order)

    @cached_property
    def idf(self) -> IdfTable:
        """Built on first use, by the commands that translate or evaluate."""
        return build_idf(self.paragraphs)

    def pipeline(self, model: NGramModel | None = None) -> Pipeline:
        """The shared pipeline; pass the model only when it will decode."""
        return Pipeline(
            model,
            self.lexicon,
            self.idf,
            self.dictionary,
            select_embedder=self.embedder,
            grammar=self.grammar,
        )

    def config_echo(self) -> dict:
        from dataclasses import asdict

        echo = {"decoder": asdict(self.cfg), "letters": self.constraint.as_string()}
        echo.update(self.extras)
        return echo


class _UsageError(RuntimeError):
    pass


def cmd_train(run: _Run) -> int:
    path = run.out_dir / "model.ngram"
    run.model.save(path)
    grams = sum(len(t) for t in run.model.tables)
    print(
        f"trained order-{run.model.order} model: {grams} distinct n-grams, "
        f"{len(run.model.vocabulary)} word vocabulary -> {path}"
    )
    return EXIT_OK


def cmd_translate(run: _Run) -> int:
    args = run.args
    sources = run.paragraphs[: args.paragraphs]
    model = run.model if args.method == "beam" else None
    outputs, failures = run.pipeline(model).translate(
        sources, run.constraint, args.method, run.cfg
    )
    document = "\n\n".join(outputs)
    path = run.out_dir / "translation.txt"
    path.write_text(document + "\n", encoding="utf-8")
    score = e_score(document, run.constraint)
    print(f"E-score: {score:.2f}")
    if failures:
        print(f"warning: {failures} of {len(sources)} paragraphs left empty")
    if failures == len(sources) and sources:
        return EXIT_DECODE
    return EXIT_OK


def cmd_evaluate(run: _Run) -> int:
    args = run.args
    sources = run.paragraphs
    if args.candidate:
        candidate_text = _read_text(args.candidate, "candidate")
        candidates = split_paragraphs(candidate_text)
    else:
        candidates = list(sources)
    sources = sources[: args.paragraphs]
    candidates = candidates[: args.paragraphs]
    if len(sources) != len(candidates):
        print(
            f"error: paragraph count mismatch (source {len(sources)}, "
            f"candidate {len(candidates)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = run.pipeline().evaluate(sources, candidates, run.constraint)
    path = run.out_dir / "report.json"
    path.write_text(
        report_json(report, run.config_echo()) + "\n", encoding="utf-8"
    )
    agg = report.aggregates
    print(
        "similarity {:.4f}  oov {:.2f}  e_score {:.2f}  grammar {:.2f}  "
        "readability {:.2f}".format(
            agg.get("similarity", 0.0),
            agg.get("oov", 0.0),
            agg.get("e_score", 0.0),
            agg.get("grammar_count", 0.0),
            agg.get("readability", 0.0),
        )
    )
    return EXIT_OK


def cmd_sweep(run: _Run) -> int:
    args = run.args
    sets = default_constraint_sets(run.extras.get("sweep.extras", ""))
    points = run_sweep(
        run.corpus, sets, args.paragraphs, run.pipeline(run.model), run.cfg
    )
    fit = fit_decay(points) if len({p.exclusion_fraction for p in points}) >= 3 else None
    emit_sweep_csv(points, run.out_dir / "sweep.csv")
    emit_report(points, fit, run.out_dir / "report.json", run.config_echo())
    emit_xy(points, run.out_dir / "sweep.dat")
    emit_svg(points, run.out_dir / "sweep.svg")
    print(f"swept {len(points)} constraint sets over {args.paragraphs} paragraphs")
    if fit and fit.exponential:
        print(
            "fit: linear r2 {:.3f}, exponential r2 {:.3f}".format(
                fit.linear.r2, fit.exponential.r2
            )
        )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(args)
        handler = {
            "train": cmd_train,
            "translate": cmd_translate,
            "evaluate": cmd_evaluate,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(run)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_IoError, EmbedProviderError, GrammarProviderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
