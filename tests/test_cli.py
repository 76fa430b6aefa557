"""End-to-end tests for the command-line interface.

Each test drives main() in-process with explicit argv; the bundled corpus
is only used where defaults are the point, since training on it takes a
noticeable fraction of a second.
"""

import http.server
import json
import random
import threading

import pytest

import lipogram.cli
from lipogram.cli import EXIT_DECODE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from lipogram.sweep import parse_sweep_csv
from lipogram.textcore import ConstraintSet, tokenize, violates

ORIGINAL = (
    "In my younger and more vulnerable years my father gave me some advice "
    "that I've been turning over in my mind ever since."
)
EDELETED = (
    "In my youngr and mor vulnrabl yars my fathr gav m som advic "
    "that I'v bn turning ovr in my mind vr sinc."
)

MINI_CORPUS = (
    "a big cat sat on that mat today and it was glad\n"
    "\n"
    "that dog ran to a cart fast and took it back\n"
    "\n"
    "it was a fine day for a walk in that park\n"
    "\n"
    "the boy took his dog out past the old barn\n"
)


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "mini.txt"
    path.write_text(MINI_CORPUS, encoding="utf-8")
    return path


@pytest.fixture()
def out_dir(tmp_path):
    return tmp_path / "out"


def run(args, out_dir=None):
    argv = list(args)
    if out_dir is not None:
        argv += ["--out", str(out_dir)]
    return main(argv)


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_method(self, mini_corpus, out_dir):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--method", "nope"],
            out_dir,
        )
        assert rc == EXIT_USAGE

    def test_order_zero(self, mini_corpus, out_dir):
        rc = run(["train", "--corpus", str(mini_corpus), "--order", "0"], out_dir)
        assert rc == EXIT_USAGE

    def test_sweep_zero_paragraphs(self, mini_corpus, out_dir):
        rc = run(
            ["sweep", "--corpus", str(mini_corpus), "--paragraphs", "0"],
            out_dir,
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("command", ["translate", "evaluate", "sweep"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_paragraphs_must_be_a_positive_int(
        self, mini_corpus, out_dir, monkeypatch, capsys, command, value
    ):
        argv = [command, "--corpus", str(mini_corpus)]
        assert run([*argv, "--paragraphs", value], out_dir) == EXIT_USAGE
        assert "--paragraphs" in capsys.readouterr().err
        monkeypatch.setenv("LIPO_PARAGRAPHS", value)
        assert run(argv, out_dir) == EXIT_USAGE
        assert "--paragraphs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_more_paragraphs_than_corpus(self, mini_corpus, out_dir):
        rc = run(
            ["sweep", "--corpus", str(mini_corpus), "--paragraphs", "99"],
            out_dir,
        )
        assert rc == EXIT_USAGE

    def test_non_letter_constraint(self, mini_corpus, out_dir):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--letters", "e1"],
            out_dir,
        )
        assert rc == EXIT_USAGE

    def test_unknown_config_key(self, mini_corpus, out_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_knob=1\n", encoding="utf-8")
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--config",
                str(cfg),
            ],
            out_dir,
        )
        assert rc == EXIT_USAGE

    def test_infinite_config_value(self, mini_corpus, out_dir, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("max_ratio = inf\n", encoding="utf-8")
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--method", "beam",
             "--config", str(cfg)],
            out_dir,
        )
        assert rc == EXIT_USAGE
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "max_ratio must be finite" in line

    def test_negative_seed(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--method", "edelete",
             "--seed", "-1"],
            out_dir,
        )
        assert rc == EXIT_USAGE
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "seed" in line


class TestIoErrors:
    def test_missing_corpus(self, out_dir):
        assert run(["train", "--corpus", "/no/such/file.txt"], out_dir) == EXIT_IO

    def test_missing_model(self, mini_corpus, out_dir):
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--model",
                "/no/such/model",
            ],
            out_dir,
        )
        assert rc == EXIT_IO

    def test_missing_config(self, mini_corpus, out_dir):
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--config",
                "/no/such/config",
            ],
            out_dir,
        )
        assert rc == EXIT_IO


class TestProviderErrors:
    """An unreachable provider is an I/O error: one line, no traceback."""

    def check_clean_io_exit(self, rc, capsys):
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unreachable_embedder_in_translate(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--paragraphs", "1",
             "--embed-endpoint", "http://127.0.0.1:9"],
            out_dir,
        )
        self.check_clean_io_exit(rc, capsys)

    def test_malformed_embedder_reply_in_translate(self, mini_corpus, out_dir, capsys):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                # Well-formed JSON, one entry per text, but no vectors.
                reply = json.dumps({"vectors": [None] * len(texts["texts"])}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            rc = run(
                ["translate", "--corpus", str(mini_corpus), "--paragraphs", "1",
                 "--embed-endpoint", f"http://127.0.0.1:{server.server_port}"],
                out_dir,
            )
        finally:
            server.shutdown()
            thread.join()
        self.check_clean_io_exit(rc, capsys)

    def test_unreachable_grammar_in_evaluate(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["evaluate", "--corpus", str(mini_corpus), "--paragraphs", "1",
             "--grammar-endpoint", "http://127.0.0.1:9"],
            out_dir,
        )
        self.check_clean_io_exit(rc, capsys)


class TestTrain:
    def test_writes_model_and_prints_stats(self, mini_corpus, out_dir, capsys):
        rc = run(["train", "--corpus", str(mini_corpus)], out_dir)
        assert rc == EXIT_OK
        assert (out_dir / "model.ngram").exists()
        stats = capsys.readouterr().out
        assert "order-3" in stats and "vocabulary" in stats

    def test_bundled_corpus_default(self, out_dir, capsys):
        assert run(["train"], out_dir) == EXIT_OK
        assert (out_dir / "model.ngram").exists()

    def test_saved_model_reused_by_translate(self, mini_corpus, tmp_path):
        model_dir = tmp_path / "m"
        assert run(["train", "--corpus", str(mini_corpus)], model_dir) == EXIT_OK
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["translate", "--corpus", str(mini_corpus), "--letters", "e"]
        assert run(base, a) == EXIT_OK
        assert (
            run(base + ["--model", str(model_dir / "model.ngram")], b) == EXIT_OK
        )
        assert (a / "translation.txt").read_bytes() == (
            b / "translation.txt"
        ).read_bytes()


class TestTranslate:
    def test_edelete_matches_reference_sentence(self, tmp_path, out_dir):
        src = tmp_path / "sentence.txt"
        src.write_text(ORIGINAL + "\n", encoding="utf-8")
        rc = run(
            [
                "translate",
                "--corpus",
                str(src),
                "--method",
                "edelete",
                "--letters",
                "e",
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        assert (out_dir / "translation.txt").read_text(
            encoding="utf-8"
        ) == EDELETED + "\n"

    def test_prints_zero_e_score(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--letters", "a"],
            out_dir,
        )
        assert rc == EXIT_OK
        assert "E-score: 0.00" in capsys.readouterr().out

    def test_empty_constraint_passthrough_scores_zero(
        self, mini_corpus, out_dir, capsys
    ):
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--letters",
                "",
                "--method",
                "edelete",
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        assert "E-score: 0.00" in capsys.readouterr().out
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        assert text == MINI_CORPUS.replace("\n\n", "\n\n")

    def test_paragraph_count_preserved(self, mini_corpus, out_dir):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--letters", "o"],
            out_dir,
        )
        assert rc == EXIT_OK
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        assert len(text.rstrip("\n").split("\n\n")) == 4

    def test_paragraph_limit(self, mini_corpus, out_dir):
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--letters",
                "o",
                "--paragraphs",
                "2",
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        assert len(text.rstrip("\n").split("\n\n")) == 2

    def test_all_paragraphs_failing_is_decode_exit(
        self, mini_corpus, out_dir, capsys
    ):
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--letters", "aeiou"],
            out_dir,
        )
        assert rc == EXIT_DECODE
        assert "warning" in capsys.readouterr().out

    def test_byte_identical_reruns(self, mini_corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["translate", "--corpus", str(mini_corpus), "--letters", "t"]
        assert run(args, a) == EXIT_OK
        assert run(args, b) == EXIT_OK
        assert (a / "translation.txt").read_bytes() == (
            b / "translation.txt"
        ).read_bytes()

    def test_sampled_mode_deterministic_per_seed(
        self, mini_corpus, tmp_path
    ):
        cfg = tmp_path / "sampled.cfg"
        cfg.write_text("mode=sampled\ntemperature=1.2\n", encoding="utf-8")
        outs = []
        for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
            d = tmp_path / name
            rc = run(
                [
                    "translate",
                    "--corpus",
                    str(mini_corpus),
                    "--letters",
                    "o",
                    "--config",
                    str(cfg),
                    "--seed",
                    seed,
                ],
                d,
            )
            assert rc == EXIT_OK
            outs.append((d / "translation.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_method_fuzz_never_violates_constraint(self, mini_corpus, tmp_path):
        rng = random.Random(7)
        for i in range(6):
            letters = "".join(
                sorted(rng.sample("abcdefghijklmnopqrstuvwxyz", rng.randint(1, 3)))
            )
            method = rng.choice(["edelete", "synonym", "beam"])
            d = tmp_path / f"fuzz{i}"
            rc = run(
                [
                    "translate",
                    "--corpus",
                    str(mini_corpus),
                    "--letters",
                    letters,
                    "--method",
                    method,
                ],
                d,
            )
            assert rc in (EXIT_OK, EXIT_DECODE)
            text = (d / "translation.txt").read_text(encoding="utf-8")
            c = ConstraintSet.from_string(letters)
            for word in tokenize(text).words():
                assert not violates(word, c), (letters, method, word)


class TestEvaluate:
    def test_source_against_itself(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["evaluate", "--corpus", str(mini_corpus), "--letters", "e"],
            out_dir,
        )
        assert rc == EXIT_OK
        line = capsys.readouterr().out
        assert "similarity 1.0000" in line
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["aggregates"]["similarity"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["paragraphs"]) == 4
        assert report["config_echo"]["letters"] == "e"

    def test_aggregate_row_order(self, mini_corpus, out_dir, capsys):
        run(["evaluate", "--corpus", str(mini_corpus)], out_dir)
        line = capsys.readouterr().out
        cols = ["similarity", "oov", "e_score", "grammar", "readability"]
        positions = [line.index(c) for c in cols]
        assert positions == sorted(positions)

    def test_candidate_scoring(self, mini_corpus, tmp_path, capsys):
        trans_dir = tmp_path / "t"
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--letters", "o"],
            trans_dir,
        )
        assert rc == EXIT_OK
        eval_dir = tmp_path / "e"
        rc = run(
            [
                "evaluate",
                "--corpus",
                str(mini_corpus),
                "--letters",
                "o",
                "--candidate",
                str(trans_dir / "translation.txt"),
            ],
            eval_dir,
        )
        assert rc == EXIT_OK
        assert "e_score 0.00" in capsys.readouterr().out

    def test_paragraph_mismatch_exits_nonzero(
        self, mini_corpus, tmp_path, capsys
    ):
        cand = tmp_path / "short.txt"
        cand.write_text("just a word\n\nand two\n", encoding="utf-8")
        rc = run(
            [
                "evaluate",
                "--corpus",
                str(mini_corpus),
                "--candidate",
                str(cand),
            ],
            tmp_path / "out",
        )
        assert rc != EXIT_OK
        assert "mismatch" in capsys.readouterr().err


class TestSweep:
    def test_outputs_and_point_count(self, mini_corpus, out_dir, capsys):
        rc = run(
            ["sweep", "--corpus", str(mini_corpus), "--paragraphs", "2"],
            out_dir,
        )
        assert rc == EXIT_OK
        for name in ("sweep.csv", "sweep.svg", "sweep.dat", "report.json"):
            assert (out_dir / name).exists(), name
        points = parse_sweep_csv(out_dir / "sweep.csv")
        assert len(points) == 27
        assert {p.label for p in points} >= {"a", "z", "aeiou"}
        assert all(p.mean_e_score == 0.0 for p in points)
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert len(report["points"]) == 27
        assert "fit" in report

    def test_extras_config_adds_sets(self, mini_corpus, out_dir, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep.extras=th,ck\n", encoding="utf-8")
        rc = run(
            [
                "sweep",
                "--corpus",
                str(mini_corpus),
                "--paragraphs",
                "2",
                "--config",
                str(cfg),
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        labels = [p.label for p in parse_sweep_csv(out_dir / "sweep.csv")]
        assert labels[-2:] == ["th", "ck"]

    def test_byte_identical_reruns(self, mini_corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--corpus", str(mini_corpus), "--paragraphs", "2"]
        assert run(args, a) == EXIT_OK
        assert run(args, b) == EXIT_OK
        for name in ("sweep.csv", "sweep.svg", "sweep.dat"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestLazyModel:
    """Only train, beam translate and sweep read (so train or load) a model,
    and train builds no IDF table."""

    @pytest.fixture()
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("this command must not train a model")

        monkeypatch.setattr(lipogram.cli, "train", refuse)

    @pytest.fixture()
    def trainings(self, monkeypatch):
        calls = []
        real_train = lipogram.cli.train

        def counting(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(lipogram.cli, "train", counting)
        return calls

    @pytest.mark.parametrize(
        "args, produced",
        [
            (["evaluate"], "report.json"),
            (["translate", "--method", "edelete"], "translation.txt"),
            (["translate", "--method", "synonym"], "translation.txt"),
        ],
    )
    def test_commands_that_do_not_decode_never_train(
        self, args, produced, mini_corpus, tmp_path, monkeypatch, no_training
    ):
        argv = args + ["--corpus", str(mini_corpus), "--letters", "o"]
        assert run(argv, tmp_path / "lazy") == EXIT_OK
        monkeypatch.undo()
        assert run(argv, tmp_path / "eager") == EXIT_OK
        assert (tmp_path / "lazy" / produced).read_bytes() == (
            tmp_path / "eager" / produced
        ).read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["train"],
            ["translate", "--method", "beam", "--paragraphs", "1"],
            ["sweep", "--paragraphs", "1"],
        ],
    )
    def test_commands_that_decode_train_once(
        self, args, mini_corpus, out_dir, trainings
    ):
        assert run(args + ["--corpus", str(mini_corpus)], out_dir) == EXIT_OK
        assert len(trainings) == 1

    def test_train_never_builds_an_idf_table(self, mini_corpus, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train must not build an IDF table")

        argv = ["train", "--corpus", str(mini_corpus)]
        assert run(argv, tmp_path / "eager") == EXIT_OK
        monkeypatch.setattr(lipogram.cli, "build_idf", refuse)
        assert run(argv, tmp_path / "lazy") == EXIT_OK
        assert (tmp_path / "lazy" / "model.ngram").read_bytes() == (
            tmp_path / "eager" / "model.ngram"
        ).read_bytes()

    def test_evaluate_ignores_missing_model(self, mini_corpus, out_dir, no_training):
        rc = run(
            ["evaluate", "--corpus", str(mini_corpus), "--model", "/no/such/model"],
            out_dir,
        )
        assert rc == EXIT_OK

    def test_pipeline_without_model_runs_only_the_baselines(self):
        from lipogram.lexicon import Lexicon
        from lipogram.metrics import build_idf
        from lipogram.pipeline import Pipeline

        pipeline = Pipeline(None, Lexicon({}), build_idf(["a cat"]), set())
        e = ConstraintSet.from_string("e")
        assert pipeline.translate(["the cat"], e, "edelete") == (["th cat"], 0)
        with pytest.raises(ValueError, match="n-gram model"):
            pipeline.translate(["the cat"], e, "beam")

    @pytest.mark.parametrize(
        "args",
        [
            ["train"],
            ["translate", "--method", "beam"],
            ["translate", "--method", "edelete"],
            ["translate", "--method", "synonym"],
            ["evaluate"],
            ["sweep"],
        ],
    )
    def test_order_zero_is_usage_error_everywhere(
        self, args, mini_corpus, out_dir, no_training
    ):
        argv = args + ["--corpus", str(mini_corpus), "--order", "0"]
        assert run(argv, out_dir) == EXIT_USAGE


class TestEnvironmentMirror:
    def test_env_supplies_letters(self, mini_corpus, out_dir, monkeypatch):
        monkeypatch.setenv("LIPO_LETTERS", "aeiou")
        rc = run(
            ["translate", "--corpus", str(mini_corpus), "--method", "edelete"],
            out_dir,
        )
        assert rc == EXIT_OK
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        c = ConstraintSet.from_string("aeiou")
        assert all(not violates(w, c) for w in tokenize(text).words())

    def test_flag_beats_env(self, mini_corpus, out_dir, monkeypatch):
        monkeypatch.setenv("LIPO_LETTERS", "aeiou")
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--method",
                "edelete",
                "--letters",
                "",
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        assert "cat" in text

    def test_malformed_env_int_is_usage_error(
        self, mini_corpus, out_dir, monkeypatch
    ):
        monkeypatch.setenv("LIPO_ORDER", "three")
        rc = run(["train", "--corpus", str(mini_corpus)], out_dir)
        assert rc == EXIT_USAGE

    def test_env_paragraph_limit(self, mini_corpus, out_dir, monkeypatch):
        monkeypatch.setenv("LIPO_PARAGRAPHS", "2")
        rc = run(
            [
                "translate",
                "--corpus",
                str(mini_corpus),
                "--letters",
                "o",
                "--method",
                "edelete",
            ],
            out_dir,
        )
        assert rc == EXIT_OK
        text = (out_dir / "translation.txt").read_text(encoding="utf-8")
        assert len(text.rstrip("\n").split("\n\n")) == 2
