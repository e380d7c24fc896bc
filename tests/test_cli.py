"""CLI subcommands: artifacts, exit codes, and determinism."""

import argparse
import json
import shutil
import subprocess
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from conftest import BAD_KEYS, BAD_VALUES, run_python
from riskcbm import cli, dataio
from riskcbm.calibration import DEFAULT_BUDGET, DEFAULT_RESOLUTION, RiskBudget
from riskcbm.cbm_trainer import TrainConfig
from riskcbm.cli import _build_parser, _config_from, main
from riskcbm.dataset_builder import AugmentationConfig, ConceptVocabulary
from riskcbm.evaluation import EvalConfig
from riskcbm.pipeline import Paths, PipelineConfig, PipelineResult, split_train_cal
from riskcbm.synth import SynthSpec

GOLDEN_MODEL = Path(__file__).parent / "data" / "model_seed3_momentum.json"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    code = main([
        "synth", "--out-dir", str(out),
        "--classes", "3", "--concepts-per-class", "4",
        "--samples-per-class", "20", "--test-samples-per-class", "8",
        "--seed", "1",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def built(data_dir, tmp_path_factory):
    """`calibrate` then `build` on the training file: the calibration, the
    labeled file and the vocabulary."""
    out = tmp_path_factory.mktemp("built")
    cal_json, labeled, vocab = out / "calibration.json", out / "labeled.ndjson", out / "vocab.json"
    assert main([
        "calibrate", "--dataset", str(data_dir / "train.ndjson"),
        "--catalog", str(data_dir / "catalog.json"), "--out", str(cal_json),
    ]) == 0
    assert main([
        "build", "--dataset", str(data_dir / "train.ndjson"),
        "--catalog", str(data_dir / "catalog.json"), "--calibration", str(cal_json),
        "--out", str(labeled), "--vocab-out", str(vocab),
    ]) == 0
    return cal_json, labeled, vocab


@pytest.fixture(scope="module")
def foreign_vocab(built, tmp_path_factory):
    """A vocabulary as long as the `built` one, taken from a 3 x 5 catalog:
    its concept 4 is 'trait 0.4', which the 3 x 4 catalog of `data_dir`
    does not list (its concept 4 is 'trait 1.0'). It records the `built`
    vocabulary's calibration, so only the catalog can reject it."""
    other = tmp_path_factory.mktemp("other")
    assert main([
        "synth", "--out-dir", str(other), "--classes", "3", "--concepts-per-class", "5",
        "--samples-per-class", "2", "--test-samples-per-class", "0", "--seed", "1",
    ]) == 0
    vocab = dataio.load_vocabulary(built[2])
    concepts = dataio.load_catalog(other / "catalog.json").all_concepts()[:len(vocab)]
    path = other / "vocab.json"
    dataio.save_vocabulary(path, ConceptVocabulary(concepts, vocab.lambda_hat, vocab.budget))
    return path


# A short `train` run on the `built` files; each case appends the setting under test.
TRAIN_ARGV = [
    "train", "--labeled", "{labeled}", "--catalog", "{data}/catalog.json",
    "--vocab", "{vocab}", "--out", "{tmp}/model.json", "--epochs", "2",
]

def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


BUDGET_DEFAULTS = {f.name: getattr(DEFAULT_BUDGET, f.name) for f in fields(RiskBudget)}

# Embeddings that load_dataset rejects, one per fault.
FAULTY_EMBEDDINGS = {
    "nan": lambda emb: [float("nan")] + emb[1:],
    "short": lambda emb: emb[:-1],
}


class TestSynthAndValidate:
    def test_files_exist(self, data_dir):
        for name in ("catalog.json", "train.ndjson", "test.ndjson"):
            assert (data_dir / name).is_file()

    def test_validate_clean(self, data_dir, capsys):
        code = main([
            "validate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
        ])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_validate_reports_violations(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        lines = (data_dir / "train.ndjson").read_text().splitlines()
        doc = json.loads(lines[0])
        doc["detections"][0]["confidence"] = 2.0
        doc.pop("pixels_path", None)
        bad.write_text(json.dumps(doc) + "\n")
        code = main([
            "validate", "--dataset", str(bad),
            "--catalog", str(data_dir / "catalog.json"),
        ])
        assert code == 2
        assert "confidence out of" in capsys.readouterr().out


    def test_missing_pixel_tensor_is_a_one_line_data_error(self, data_dir, tmp_path, capsys):
        copy = tmp_path / "train.ndjson"
        copy.write_text((data_dir / "train.ndjson").read_text())  # no .pixels/
        code = main([
            "validate", "--dataset", str(copy),
            "--catalog", str(data_dir / "catalog.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {copy}:1: cannot read pixel tensor")
        assert err.count("\n") == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("which", ["dataset", "catalog"])
    def test_file_that_is_not_utf8_is_a_one_line_data_error(
        self, which, data_dir, tmp_path, capsys
    ):
        paths = {"dataset": data_dir / "train.ndjson", "catalog": data_dir / "catalog.json"}
        bad = tmp_path / paths[which].name
        bad.write_bytes(b"\xff\xfe" + paths[which].read_text().encode("utf-16-le"))
        paths[which] = bad
        code = main(["validate", "--dataset", str(paths["dataset"]),
                     "--catalog", str(paths["catalog"])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8") and err.count("\n") == 1, err


class TestStagedCommands:
    def test_stage_by_stage(self, data_dir, tmp_path, capsys):
        cal_json = tmp_path / "calibration.json"
        assert main([
            "calibrate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out", str(cal_json),
        ]) == 0
        labeled = tmp_path / "labeled.ndjson"
        vocab = tmp_path / "vocab.json"
        assert main([
            "build", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--calibration", str(cal_json),
            "--out", str(labeled), "--vocab-out", str(vocab),
        ]) == 0
        augmented = tmp_path / "aug.ndjson"
        assert main([
            "augment", "--labeled", str(labeled),
            "--catalog", str(data_dir / "catalog.json"),
            "--vocab", str(vocab),
            "--out", str(augmented), "--min-count", "5",
        ]) == 0
        model = tmp_path / "model.json"
        assert main([
            "train", "--labeled", str(augmented),
            "--catalog", str(data_dir / "catalog.json"),
            "--vocab", str(vocab), "--out", str(model),
            "--epochs", "30",
        ]) == 0
        report = tmp_path / "report.json"
        assert main([
            "evaluate", "--model", str(model),
            "--dataset", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out", str(report), "--cca-dat", str(tmp_path / "cca.dat"),
        ]) == 0
        assert report.is_file()
        assert (tmp_path / "cca.dat").read_text().startswith("# nec")

    def test_malformed_calibration_is_a_one_line_data_error(self, data_dir, tmp_path, capsys):
        cal_json = tmp_path / "calibration.json"
        assert main([
            "calibrate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out", str(cal_json),
        ]) == 0
        doc = json.loads(cal_json.read_text())
        doc["lambda_hat"] += 1.0  # no longer the max of the three thresholds
        cal_json.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([
            "build", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--calibration", str(cal_json),
            "--out", str(tmp_path / "labeled.ndjson"),
            "--vocab-out", str(tmp_path / "vocab.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {cal_json}: malformed calibration result")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("lam", [1.5, -0.5, float("nan")], ids=["above", "below", "nan"])
    @pytest.mark.parametrize("command", ["build", "augment"])
    def test_threshold_outside_the_unit_interval_is_a_one_line_data_error(
        self, command, lam, built, data_dir, tmp_path, capsys
    ):
        """A calibration file whose thresholds all lie outside [0, 1], or a
        vocabulary whose `lambda_hat` does, is malformed; neither stage
        writes anything at such a threshold."""
        good_cal, labeled, good_vocab = built
        if command == "build":
            doc = json.loads(good_cal.read_text())
            for key in ("lambda_dis", "lambda_cov", "lambda_div", "lambda_hat"):
                doc[key] = lam
            bad = tmp_path / "calibration.json"
            argv = ["build", "--dataset", str(data_dir / "train.ndjson"),
                    "--vocab-out", str(tmp_path / "vocab.json"), "--calibration", str(bad)]
            malformed, named = "calibration result", "lambda_dis must be in [0, 1]"
        else:
            doc = json.loads(good_vocab.read_text())
            doc["lambda_hat"] = lam
            bad = tmp_path / "vocab.json"
            argv = ["augment", "--labeled", str(labeled), "--vocab", str(bad)]
            malformed, named = "vocabulary", "lambda_hat must be in [0, 1]"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.ndjson"
        capsys.readouterr()
        code = main([*argv, "--catalog", str(data_dir / "catalog.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: malformed {malformed}"), err
        assert named in err and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_vocabulary_without_its_calibration_is_a_one_line_data_error(
        self, command, built, data_dir, tmp_path, capsys
    ):
        """A vocabulary written before it recorded `lambda_hat` and `budget`
        gives neither the threshold to augment at nor a budget to pass on."""
        _, labeled, vocab = built
        doc = json.loads(vocab.read_text())
        del doc["lambda_hat"], doc["budget"]
        bare = tmp_path / "vocab.json"
        bare.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([
            command, "--labeled", str(labeled), "--catalog", str(data_dir / "catalog.json"),
            "--vocab", str(bare), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: vocabulary records no lambda_hat and risk budget; "
            "rebuild it with `riskcbm build` and retrain on it\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_mistyped_lambda_hat_is_a_one_line_data_error(
        self, command, built, data_dir, tmp_path, capsys
    ):
        """`true` is not a number in JSON typing: it is not read as 1.0."""
        _, labeled, vocab = built
        doc = json.loads(vocab.read_text())
        doc["lambda_hat"] = True
        bad = tmp_path / "vocab.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([
            command, "--labeled", str(labeled), "--catalog", str(data_dir / "catalog.json"),
            "--vocab", str(bad), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: malformed vocabulary") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "train", "evaluate"])
    def test_vocabulary_from_another_catalog_is_a_one_line_data_error(
        self, command, foreign_vocab, built, data_dir, tmp_path, capsys
    ):
        """Its concept vectors have the right width, so only the catalog can
        tell; `evaluate` checks the vocabulary its checkpoint records."""
        _, labeled, vocab = built
        catalog = ["--catalog", str(data_dir / "catalog.json")]
        out = tmp_path / "out"
        if command == "evaluate":
            model = tmp_path / "model.json"
            assert main([
                "train", "--labeled", str(labeled), *catalog, "--vocab", str(vocab),
                "--out", str(model), "--epochs", "2",
            ]) == 0
            doc = json.loads(model.read_text())
            doc["vocabulary"] = json.loads(foreign_vocab.read_text())["concepts"]
            model.write_text(json.dumps(doc))
            argv = ["evaluate", "--model", str(model), "--dataset", str(data_dir / "test.ndjson"),
                    "--cca-dat", str(tmp_path / "cca.dat"), "--per-sample-csv", str(out)]
        else:
            argv = [command, "--labeled", str(labeled), "--vocab", str(foreign_vocab)]
        capsys.readouterr()
        code = main([*argv, *catalog, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == "error: vocabulary concept 4 ('trait 0.4') not in catalog\n"
        assert not out.exists() and not (tmp_path / "cca.dat").exists()

    @pytest.mark.parametrize("fault", list(FAULTY_EMBEDDINGS))
    @pytest.mark.parametrize("command", ["train", "augment"])
    def test_faulty_labeled_embedding_is_a_one_line_data_error(
        self, command, fault, built, data_dir, tmp_path, capsys
    ):
        _, labeled, vocab = built
        lines = labeled.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["embedding"] = FAULTY_EMBEDDINGS[fault](doc["embedding"])
        # Beside the original, so its relative pixel paths still resolve.
        bad = labeled.parent / f"{command}-{fault}.ndjson"
        bad.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        flags = {
            "train": ["--out", str(tmp_path / "model.json"), "--epochs", "5"],
            "augment": ["--out", str(tmp_path / "aug.ndjson")],
        }[command]
        capsys.readouterr()
        code = main([
            command, "--labeled", str(bad),
            "--catalog", str(data_dir / "catalog.json"), "--vocab", str(vocab),
            *flags,
        ])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {bad}")
        assert err.count("\n") == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("fault", ["vocabulary-short", "row-short"])
    @pytest.mark.parametrize("command", ["train", "augment"])
    def test_concept_vector_off_the_vocabulary_is_a_one_line_data_error(
        self, command, fault, built, data_dir, tmp_path, capsys
    ):
        """A vocabulary one concept short of every vector, or one vector one
        entry short of the vocabulary, names the first sample that differs."""
        _, labeled, vocab = built
        lines = labeled.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        width = len(docs[0]["concept_vector"])
        if fault == "vocabulary-short":
            doc = json.loads(vocab.read_text())
            doc["concepts"] = doc["concepts"][:-1]
            vocab = tmp_path / "vocab.json"
            vocab.write_text(json.dumps(doc))
            first, length = docs[0]["id"], width
        else:
            docs[3]["concept_vector"] = docs[3]["concept_vector"][:-1]
            first, length = docs[3]["id"], width - 1
        # Beside the original, so its relative pixel paths still resolve.
        bad = labeled.parent / f"{command}-{fault}.ndjson"
        bad.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        flags = {
            "train": ["--epochs", "5"],
            "augment": [],
        }[command]
        capsys.readouterr()
        code = main([
            command, "--labeled", str(bad),
            "--catalog", str(data_dir / "catalog.json"), "--vocab", str(vocab),
            "--out", str(tmp_path / "out"), *flags,
        ])
        err = capsys.readouterr().err
        assert code == 2, err
        expected = f"error: sample {first}: concept vector has length {length}, vocabulary has"
        assert err.startswith(expected), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()


    def test_staged_chain_carries_the_pipeline_budget(self, data_dir, tmp_path):
        """At a budget other than the default, `calibrate`, `build`,
        `augment`, `train` and `evaluate` on the two parts of the training
        file write the bytes `pipeline` writes: the budget is given once, to
        `calibrate`, and travels on through the vocabulary and the model."""
        budget = ["--alpha-dis", "0.8", "--alpha-cov", "0.25", "--alpha-div", "0.3"]
        catalog = ["--catalog", str(data_dir / "catalog.json")]
        run = tmp_path / "run"
        assert main([
            "pipeline", "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"), *catalog, "--out-dir", str(run),
            "--epochs", "30", "--seed", "3", *budget,
        ]) == 0
        samples = dataio.load_dataset(data_dir / "train.ndjson", dataio.load_catalog(catalog[1]))
        split = PipelineConfig(Paths("t", "e", "c", "o")).split
        parts = split_train_cal(samples, split.train_fraction, split.seed)
        staged = tmp_path / "staged"
        staged.mkdir()
        for name, part in zip(("train_part", "cal_part"), parts):
            dataio.save_dataset(staged / f"{name}.ndjson", part)
        cal, labeled, vocab = staged / "cal.json", staged / "labeled.ndjson", staged / "vocabulary.json"
        aug, model, report = staged / "aug.ndjson", staged / "model.json", staged / "eval_report.json"
        for argv in (
            ["calibrate", "--dataset", str(staged / "cal_part.ndjson"), "--out", str(cal), *budget],
            ["build", "--dataset", str(staged / "train_part.ndjson"), "--calibration", str(cal),
             "--out", str(labeled), "--vocab-out", str(vocab)],
            ["augment", "--labeled", str(labeled), "--vocab", str(vocab), "--out", str(aug),
             "--seed", "3"],
            ["train", "--labeled", str(aug), "--vocab", str(vocab), "--out", str(model),
             "--epochs", "30", "--seed", "3"],
            ["evaluate", "--model", str(model), "--dataset", str(data_dir / "test.ndjson"),
             "--out", str(report)],
        ):
            assert main([*argv, *catalog]) == 0, argv[0]
        for path in (vocab, model, report):
            assert path.read_bytes() == (run / path.name).read_bytes(), path.name
        assert json.loads(report.read_text())["budget"] == {
            "alpha_dis": 0.8, "alpha_cov": 0.25, "alpha_div": 0.3,
        }

    def test_evaluate_on_a_checkpoint_without_a_budget_is_a_one_line_data_error(
        self, tmp_path, capsys
    ):
        """The golden checkpoint predates the recorded budget; with these
        flags `synth` draws the catalog it was trained on."""
        assert main([
            "synth", "--out-dir", str(tmp_path / "data"), "--classes", "3",
            "--concepts-per-class", "4", "--dim", "8", "--seed", "3", "--no-pixels",
        ]) == 0
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(GOLDEN_MODEL),
            "--dataset", str(tmp_path / "data" / "test.ndjson"),
            "--catalog", str(tmp_path / "data" / "catalog.json"),
            "--out", str(report), "--cca-dat", str(tmp_path / "cca.dat"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: vocabulary records no lambda_hat and risk budget; "
            "rebuild it with `riskcbm build` and retrain on it\n"
        )
        assert not report.exists() and not (tmp_path / "cca.dat").exists()


# Every top-level name `pipeline` writes into its output directory.
PIPELINE_ARTIFACTS = {
    "calibration.json", "vocabulary.json", "dataset_aug.ndjson", "dataset_aug.pixels",
    "model.json", "training_log.csv", "eval_report.json", "cca_vs_nec.dat",
}


# Each `pipeline` flag, a value unlike the test's config file, and the
# PipelineConfig fields it must set (dotted through the nested configs).
PIPELINE_FLAG_FIELDS = {
    "--train": ("train2", ["paths.train"]),
    "--test": ("test2", ["paths.test"]),
    "--catalog": ("catalog2", ["paths.catalog"]),
    "--out-dir": ("out2", ["paths.output_dir"]),
    "--alpha-dis": ("0.5", ["budget.alpha_dis"]),
    "--alpha-cov": ("0.3", ["budget.alpha_cov"]),
    "--alpha-div": ("0.1", ["budget.alpha_div"]),
    "--train-fraction": ("0.6", ["split.train_fraction"]),
    "--split-seed": ("7", ["split.seed"]),
    "--min-count": ("9", ["augmentation.min_count"]),
    "--epochs": ("5", ["train.epochs"]),
    "--seed": ("8", ["augmentation.rng_seed", "train.rng_seed"]),
    "--nec": ("2", ["eval.nec"]),
}
PATH_FLAGS = {"--train", "--test", "--catalog", "--out-dir"}


def _flags_of(command: str) -> set:
    """The option strings of a subcommand, without -h/--help."""
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = subparsers.choices[command]._actions
    return {s for a in actions for s in a.option_strings} - {"-h", "--help"}


def _flat(config) -> dict:
    """A dataclass's fields by dotted name, nested dataclasses expanded."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out.update({f"{f.name}.{k}": v for k, v in _flat(value).items()})
        else:
            out[f.name] = value
    return out


class TestPipelineCommand:
    def _run(self, data_dir, out_dir):
        return main([
            "pipeline",
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(out_dir),
            "--epochs", "30", "--seed", "3",
        ])

    def test_artifacts_present(self, data_dir, tmp_path):
        """Each quantity is written once: the risk curves live only in
        calibration.json, the per-sample flags only in eval_report.json."""
        out = tmp_path / "run"
        assert self._run(data_dir, out) == 0
        assert {p.name for p in out.iterdir()} == PIPELINE_ARTIFACTS

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self._run(data_dir, out1) == 0
        assert self._run(data_dir, out2) == 0
        for name in ("eval_report.json", "model.json", "calibration.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_evaluate_matches_the_pipeline_with_and_without_the_table(self, data_dir, tmp_path):
        """`evaluate` reads its report off the same sweep as `pipeline`, so
        its report is one file whether or not it writes the NEC table."""
        run = tmp_path / "run"
        assert self._run(data_dir, run) == 0
        argv = [
            "evaluate", "--model", str(run / "model.json"),
            "--dataset", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
        ]
        assert main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
        assert main([
            *argv, "--out", str(tmp_path / "swept.json"),
            "--cca-dat", str(tmp_path / "cca.dat"),
        ]) == 0
        report = (run / "eval_report.json").read_bytes()
        assert (tmp_path / "plain.json").read_bytes() == report
        assert (tmp_path / "swept.json").read_bytes() == report
        assert (tmp_path / "cca.dat").read_bytes() == (run / "cca_vs_nec.dat").read_bytes()

    def test_missing_catalog_names_it(self, data_dir, tmp_path, capsys):
        code = main([
            "pipeline",
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "catalog" in capsys.readouterr().err

    def test_path_escaping_sample_id_is_a_data_error_before_any_write(
        self, data_dir, tmp_path, capsys
    ):
        """Each training sample's pixels are written to a file named by its
        id; an id of ``../../escaped`` would put one outside the output
        directory."""
        inputs = tmp_path / "in"
        shutil.copytree(data_dir / "train.pixels", inputs / "train.pixels")
        lines = (data_dir / "train.ndjson").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            doc["id"] = f"../../escaped-{doc['id']}"
        (inputs / "train.ndjson").write_text("".join(json.dumps(d) + "\n" for d in docs))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = main([
            "pipeline", "--train", str(inputs / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "runs" / "trav"), "--epochs", "2",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: stage 'load' failed: ") and err.count("\n") == 1, err
        assert "id is not a plain file name" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("fault", ["class_listed_twice", "wider", "zero"])
    def test_a_faulty_catalog_is_a_data_error_naming_it_before_any_write(
        self, fault, data_dir, tmp_path, capsys
    ):
        doc = json.loads((data_dir / "catalog.json").read_text())
        concept = doc["classes"][1]["concepts"][0]
        if fault == "class_listed_twice":
            doc["classes"][1]["label"] = 0
        elif fault == "wider":
            concept["embedding"].append(0.5)
        else:
            concept["embedding"] = [0.0] * len(concept["embedding"])
        catalog = tmp_path / "in" / "catalog.json"
        catalog.parent.mkdir()
        catalog.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = main([
            "pipeline", "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "run"), "--epochs", "2",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: stage 'load' failed: {catalog}: ") and err.count("\n") == 1, err
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_file_with_overrides(self, data_dir, tmp_path):
        config = {
            "paths": {
                "train": str(data_dir / "train.ndjson"),
                "test": str(data_dir / "test.ndjson"),
                "catalog": str(data_dir / "catalog.json"),
                "output_dir": str(tmp_path / "cfg_run"),
            },
            "train": {"epochs": 10},
            "split": {"train_fraction": 0.75},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_run" / "eval_report.json").is_file()

    def test_each_pipeline_flag_overrides_its_config_keys(self, tmp_path, monkeypatch):
        """Each flag changes exactly the fields of its config keys, to its
        value parsed at the keys' type; every other field keeps the file's."""
        assert set(PIPELINE_FLAG_FIELDS) == _flags_of("pipeline") - {"--config"}
        for name in ("train", "test", "catalog", "train2", "test2", "catalog2"):
            (tmp_path / name).write_text("")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "paths": {"train": str(tmp_path / "train"), "test": str(tmp_path / "test"),
                      "catalog": str(tmp_path / "catalog"), "output_dir": "out"},
            "budget": {"alpha_dis": 0.6, "alpha_cov": 0.25, "alpha_div": 0.15},
            "split": {"train_fraction": 0.7, "seed": 1},
            "augmentation": {"min_count": 4, "rng_seed": 2},
            "train": {"epochs": 11, "rng_seed": 3},
            "eval": {"nec": 4},
        }))
        seen = []
        monkeypatch.setattr(
            cli, "run_pipeline",
            lambda config: seen.append(_flat(config)) or PipelineResult(0.5, 1.0, 1.0),
        )
        assert main(["pipeline", "--config", str(cfg)]) == 0
        base = seen.pop()
        for flag, (value, changed) in PIPELINE_FLAG_FIELDS.items():
            arg = str(tmp_path / value) if flag in PATH_FLAGS else value
            assert main(["pipeline", "--config", str(cfg), flag, arg]) == 0
            got = seen.pop()
            moved = {k: v for k, v in got.items() if v != base[k]}
            expected = type(base[changed[0]])(arg)
            assert moved == dict.fromkeys(changed, expected), flag
            assert all(type(got[k]) is type(base[k]) for k in changed), flag


class TestEvaluateMismatch:
    """A model that does not fit the evaluated data is a one-line data error."""

    @pytest.mark.parametrize(
        "synth_flags, message",
        [
            (["--classes", "2"], "model has 3 classes, catalog has 2"),
            (["--classes", "3", "--dim", "32"], "embedding shape (32,) != (16,)"),
        ],
        ids=["class_count", "embedding_width"],
    )
    def test_exits_2_naming_both_sides(self, synth_flags, message, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main([
            "pipeline", "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(run), "--epochs", "5",
        ]) == 0
        other = tmp_path / "other"
        assert main([
            "synth", "--out-dir", str(other), *synth_flags,
            "--concepts-per-class", "4", "--samples-per-class", "4",
            "--test-samples-per-class", "4", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        code = main([
            "evaluate", "--model", str(run / "model.json"),
            "--dataset", str(other / "test.ndjson"),
            "--catalog", str(other / "catalog.json"),
            "--out", str(tmp_path / "report.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"


class TestCrcCheckCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        code = main([
            "crc-check", "--trials", "150", "--n-cal", "30",
            "--pool", "300", "--seed", "2",
            "--out", str(tmp_path / "crc.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        report = dataio.load_guarantee_report(tmp_path / "crc.json")
        assert (report.n_trials, report.n_cal, report.verdict) == (150, 30, "pass")
        assert {k: c.alpha for k, c in report.per_criterion.items()} == DEFAULT_BUDGET.as_dict()

    def test_report_matches_the_golden_file(self, tmp_path, capsys):
        """Pins what a seed draws and how the trials are searched: the
        report of this run, byte for byte."""
        code = main([
            "crc-check", "--pool", "300", "--n-cal", "30", "--trials", "500",
            "--seed", "3", "--out", str(tmp_path / "crc.json"),
        ])
        assert code == 0
        golden = Path(__file__).parent / "data" / "crc_seed3.json"
        assert (tmp_path / "crc.json").read_bytes() == golden.read_bytes()

    def test_shifted_run_flags_theorem_gap(self, capsys):
        code = main([
            "crc-check", "--trials", "120", "--n-cal", "20",
            "--pool", "200", "--seed", "2", "--shifted",
        ])
        out = capsys.readouterr().out
        assert code == 3
        assert "not covered by theorem" in out


def _run_entry_point(argv) -> subprocess.CompletedProcess:
    """Run ``python -m riskcbm.cli`` in a child process."""
    return run_python("-m", "riskcbm.cli", *argv)


class TestWarnings:
    """Over the training file of `data_dir` the dis risk at lambda=1 is
    0.259, so ``--alpha-dis 0.2`` cannot be met."""

    @staticmethod
    def _unattainable_calibrate(data_dir, tmp_path) -> list[str]:
        return [
            "calibrate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out", str(tmp_path / "calibration.json"), "--alpha-dis", "0.2",
        ]

    def test_a_warning_is_one_line_on_stderr(self, data_dir, tmp_path):
        """In a child process, where no test harness records warnings."""
        proc = _run_entry_point(self._unattainable_calibrate(data_dir, tmp_path))
        assert proc.returncode == 0
        assert proc.stderr.startswith("warning: no threshold meets the dis budget: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr

    def test_recorded_warnings_are_still_recorded(self, data_dir, tmp_path, capsys):
        formatter = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(self._unattainable_calibrate(data_dir, tmp_path)) == 0
        messages = [str(w.message) for w in caught]
        assert any(m.startswith("no threshold meets the dis budget: ") for m in messages)
        assert warnings.formatwarning is formatter
        assert capsys.readouterr().err == ""


class TestUsageErrors:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main([
            "calibrate", "--dataset", str(tmp_path / "absent.ndjson"),
            "--catalog", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    def test_subprocess_entry_point(self, data_dir):
        proc = _run_entry_point([
            "validate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
        ])
        assert proc.returncode == 0
        assert "no violations" in proc.stdout

    def test_unknown_flag(self, capsys):
        code = main(["synth", "--bogus"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--model", "m", "--dataset", "d", "--catalog", "c", "--out", "o",
             "--alpha-dis", "0.6"],
            ["augment", "--labeled", "l", "--catalog", "c", "--vocab", "v", "--out", "o",
             "--calibration", "x"],
        ],
        ids=["evaluate-alpha", "augment-calibration"],
    )
    def test_removed_flag_is_a_usage_error(self, argv, capsys):
        """The budget and its threshold come from the vocabulary or the
        checkpoint, so neither command takes them as flags."""
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["crc-check", "--pool", "40", "--n-cal", "30", "--trials", "50"], "n_trials"),
            (["crc-check", "--pool", "40", "--n-cal", "0"], "n_cal"),
            (["crc-check", "--pool", "40", "--alpha-dis", "1.5"], "alpha_dis"),
            (["crc-check", "--pool", "40", "--classes", "0"], "classes"),
            (["crc-check", "--pool", "40", "--n-cal", "10", "--trials", "100",
              "--slack", "nan"], "slack"),
            (["crc-check", "--pool", "40", "--n-cal", "10", "--trials", "100",
              "--slack", "inf"], "slack"),
            (["crc-check", "--pool", "40", "--n-cal", "10", "--trials", "100",
              "--slack=-0.01"], "slack"),
            (["crc-check", "--pool", "40", "--n-cal", "10", "--trials", "100",
              "--noise", "inf"], "noise"),
            (["crc-check", "--pool", "40", "--n-cal", "10", "--trials", "100",
              "--seed", "-1"], "seed"),
            (["synth", "--out-dir", "{tmp}/out", "--classes", "0"], "classes"),
            (["synth", "--out-dir", "{tmp}/out", "--seed", "-1"], "seed"),
            (["synth", "--out-dir", "{tmp}/out", "--noise", "nan"], "noise"),
            ([*TRAIN_ARGV, "--learning-rate", "nan"], "learning_rate"),
            ([*TRAIN_ARGV, "--learning-rate", "inf"], "learning_rate"),
            ([*TRAIN_ARGV, "--gamma2", "inf"], "gamma2"),
            ([*TRAIN_ARGV, "--seed", "-1"], "rng_seed"),
        ],
        ids=[
            "trials", "n-cal", "alpha", "crc-classes", "slack-nan", "slack-inf",
            "slack-negative", "crc-noise-inf", "crc-seed-negative", "synth-classes",
            "synth-seed-negative", "synth-noise-nan", "learning-rate-nan",
            "learning-rate-inf", "gamma2-inf", "train-seed-negative",
        ],
    )
    def test_bad_value_is_a_one_line_usage_error(
        self, argv, named, data_dir, built, tmp_path, capsys
    ):
        """The one error line names the setting at fault; nothing is written."""
        _, labeled, vocab = built
        code = main([
            arg.format(tmp=tmp_path, data=data_dir, labeled=labeled, vocab=vocab)
            for arg in argv
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--out-dir", "{tmp}/out", "--test-samples-per-class", "-5"],
            ["synth", "--out-dir", "{tmp}/out", "--samples-per-class", "-3",
             "--test-samples-per-class", "5"],
            ["synth", "--out-dir", "{tmp}/out", "--samples-per-class", "0"],
            ["crc-check", "--pool", "50", "--n-cal", "100"],
            ["crc-check", "--pool", "50", "--n-cal", "48"],
        ],
        ids=["test-samples", "samples", "zero-samples", "pool", "derived-pool"],
    )
    def test_bad_count_is_a_one_line_usage_error(self, argv, tmp_path, capsys):
        """Counts no run can use stop before anything is generated or written;
        ``--pool 50`` over 4 classes derives a pool of 48."""
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["synth", "--out-dir", "o"], {
                "classes": SynthSpec.classes,
                "concepts_per_class": SynthSpec.concepts_per_class,
                "samples_per_class": SynthSpec.samples_per_class,
                "dim": SynthSpec.embedding_dim,
                "noise": SynthSpec.noise,
                "seed": SynthSpec.seed,
            }),
            (["calibrate", "--dataset", "d", "--catalog", "c", "--out", "o"], {
                "resolution": DEFAULT_RESOLUTION, **BUDGET_DEFAULTS,
            }),
            (["augment", "--labeled", "l", "--catalog", "c", "--vocab", "v", "--out", "o"],
             _field_defaults(AugmentationConfig)),
            (["train", "--labeled", "l", "--catalog", "c", "--vocab", "v", "--out", "o"],
             _field_defaults(TrainConfig)),
            (["evaluate", "--model", "m", "--dataset", "d", "--catalog", "c", "--out", "o"], {
                "nec": EvalConfig.nec,
            }),
            (["crc-check"], {
                "classes": SynthSpec.classes,
                "concepts_per_class": SynthSpec.concepts_per_class,
                "dim": SynthSpec.embedding_dim,
                "noise": SynthSpec.noise,
                "resolution": DEFAULT_RESOLUTION,
                **BUDGET_DEFAULTS,
            }),
        ],
        ids=["synth", "calibrate", "augment", "train", "evaluate", "crc-check"],
    )
    def test_flag_defaults_are_the_config_defaults(self, argv, defaults):
        """Every field of `TrainConfig`, `AugmentationConfig` and `RiskBudget`
        has a flag whose dest is the field's name."""
        args = vars(_build_parser().parse_args(argv))
        assert {key: args[key] for key in defaults} == defaults

    def test_a_config_field_without_a_flag_is_an_attribute_error(self):
        args = _build_parser().parse_args(
            ["train", "--labeled", "l", "--catalog", "c", "--vocab", "v", "--out", "o"]
        )
        assert _config_from(TrainConfig, args) == TrainConfig()
        del args.momentum
        with pytest.raises(AttributeError, match="momentum"):
            _config_from(TrainConfig, args)

    def test_pipeline_nec_default_is_the_evaluation_default(self):
        assert PipelineConfig(Paths("t", "e", "c", "o")).eval.nec == EvalConfig().nec

    @pytest.mark.parametrize(
        "flags",
        [["--resolution", "0.9"], ["--alpha-div", "0"]],
        ids=["resolution", "alpha"],
    )
    def test_bad_calibrate_value_is_a_usage_error(self, flags, data_dir, tmp_path, capsys):
        code = main([
            "calibrate", "--dataset", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out", str(tmp_path / "cal.json"), *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--nec", "0"], ["--train-fraction", "1.5"], ["--alpha-cov", "-0.1"]],
        ids=["nec", "train-fraction", "alpha"],
    )
    def test_bad_pipeline_value_is_a_usage_error(self, flags, data_dir, tmp_path, capsys):
        code = main([
            "pipeline",
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"), *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", list(BAD_KEYS))
    def test_unknown_config_key_is_a_one_line_usage_error(
        self, section, data_dir, tmp_path, capsys
    ):
        doc, key = BAD_KEYS[section]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code = main([
            "pipeline", "--config", str(cfg),
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", list(BAD_VALUES))
    def test_bad_config_value_or_missing_path_is_a_one_line_usage_error(
        self, case, data_dir, tmp_path, capsys
    ):
        """The test path comes from the config file, so the case that drops
        it from the file leaves the run without one."""
        doc, message = BAD_VALUES[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"paths": {"test": str(data_dir / "test.ndjson")}, **doc}))
        code = main([
            "pipeline", "--config", str(cfg),
            "--train", str(data_dir / "train.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_json_is_a_one_line_usage_error(
        self, data_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text("{bad")
        code = main([
            "pipeline", "--config", str(cfg),
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}: invalid JSON") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_is_a_one_line_usage_error(
        self, data_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        code = main([
            "pipeline", "--config", str(cfg),
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}: invalid JSON") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"paths": ["x"]}, {"budget": 5}],
        ids=["list", "paths-list", "budget-number"],
    )
    def test_config_that_is_not_an_object_is_a_usage_error(
        self, doc, data_dir, tmp_path, capsys
    ):
        """The document is checked before flags are merged into it."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code = main([
            "pipeline", "--config", str(cfg),
            "--train", str(data_dir / "train.ndjson"),
            "--test", str(data_dir / "test.ndjson"),
            "--catalog", str(data_dir / "catalog.json"),
            "--out-dir", str(tmp_path / "out"), "--alpha-dis", "0.9",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must be a JSON object" in err
