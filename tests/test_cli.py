"""CLI subcommands: artifacts, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskcbm
from conftest import BAD_KEYS, BAD_VALUES
from riskcbm.calibration import DEFAULT_BUDGET, DEFAULT_RESOLUTION
from riskcbm.cbm_trainer import TrainConfig
from riskcbm.cli import _build_parser, main
from riskcbm.dataset_builder import AugmentationConfig
from riskcbm.evaluation import EvalConfig
from riskcbm.pipeline import PipelineConfig
from riskcbm.synth import SynthSpec


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
            "--vocab", str(vocab), "--calibration", str(cal_json),
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

    @pytest.mark.parametrize("fault", list(FAULTY_EMBEDDINGS))
    @pytest.mark.parametrize("command", ["train", "augment"])
    def test_faulty_labeled_embedding_is_a_one_line_data_error(
        self, command, fault, built, data_dir, tmp_path, capsys
    ):
        cal_json, labeled, vocab = built
        lines = labeled.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["embedding"] = FAULTY_EMBEDDINGS[fault](doc["embedding"])
        # Beside the original, so its relative pixel paths still resolve.
        bad = labeled.parent / f"{command}-{fault}.ndjson"
        bad.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        flags = {
            "train": ["--out", str(tmp_path / "model.json"), "--epochs", "5"],
            "augment": ["--calibration", str(cal_json),
                        "--out", str(tmp_path / "aug.ndjson")],
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
        out = tmp_path / "run"
        assert self._run(data_dir, out) == 0
        for name in (
            "calibration.json", "dataset_aug.ndjson", "model.json",
            "eval_report.json", "cca_vs_nec.dat", "risk_curves.dat",
            "vocabulary.json", "training_log.csv",
        ):
            assert (out / name).is_file(), name

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
            "--dat", str(tmp_path / "crc.dat"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out
        assert (tmp_path / "crc.json").is_file()
        assert (tmp_path / "crc.dat").read_text().startswith("# criterion")

    def test_shifted_run_flags_theorem_gap(self, capsys):
        code = main([
            "crc-check", "--trials", "120", "--n-cal", "20",
            "--pool", "200", "--seed", "2", "--shifted",
        ])
        out = capsys.readouterr().out
        assert code == 3
        assert "not covered by theorem" in out


class TestUsageErrors:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main([
            "calibrate", "--dataset", str(tmp_path / "absent.ndjson"),
            "--catalog", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    def test_subprocess_entry_point(self, data_dir):
        # The child imports the same riskcbm as this process, installed or not.
        package_root = str(Path(riskcbm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "riskcbm.cli", "validate",
             "--dataset", str(data_dir / "train.ndjson"),
             "--catalog", str(data_dir / "catalog.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "no violations" in proc.stdout

    def test_unknown_flag(self, capsys):
        code = main(["synth", "--bogus"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["crc-check", "--pool", "40", "--n-cal", "30", "--trials", "50"],
            ["crc-check", "--pool", "40", "--n-cal", "0"],
            ["crc-check", "--pool", "40", "--alpha-dis", "1.5"],
            ["crc-check", "--pool", "40", "--classes", "0"],
            ["synth", "--out-dir", "{tmp}", "--classes", "0"],
        ],
        ids=["trials", "n-cal", "alpha", "crc-classes", "synth-classes"],
    )
    def test_bad_value_is_a_one_line_usage_error(self, argv, tmp_path, capsys):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err

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
                "resolution": DEFAULT_RESOLUTION,
                **{f"alpha_{k}": a for k, a in DEFAULT_BUDGET.as_dict().items()},
            }),
            (["augment", "--labeled", "l", "--catalog", "c", "--vocab", "v",
              "--calibration", "k", "--out", "o"], {
                "min_count": AugmentationConfig.min_count,
                "max_attempts": AugmentationConfig.max_placement_attempts,
                "seed": AugmentationConfig.rng_seed,
            }),
            (["train", "--labeled", "l", "--catalog", "c", "--vocab", "v", "--out", "o"], {
                "gamma1": TrainConfig.gamma1,
                "gamma2": TrainConfig.gamma2,
                "beta": TrainConfig.beta,
                "learning_rate": TrainConfig.learning_rate,
                "epochs": TrainConfig.epochs,
                "batch_size": TrainConfig.batch_size,
                "seed": TrainConfig.rng_seed,
                "momentum": TrainConfig.momentum,
            }),
            (["evaluate", "--model", "m", "--dataset", "d", "--catalog", "c", "--out", "o"], {
                "nec": EvalConfig.nec,
                **{f"alpha_{k}": a for k, a in DEFAULT_BUDGET.as_dict().items()},
            }),
            (["crc-check"], {
                "classes": SynthSpec.classes,
                "concepts_per_class": SynthSpec.concepts_per_class,
                "dim": SynthSpec.embedding_dim,
                "noise": SynthSpec.noise,
                "resolution": DEFAULT_RESOLUTION,
                **{f"alpha_{k}": a for k, a in DEFAULT_BUDGET.as_dict().items()},
            }),
        ],
        ids=["synth", "calibrate", "augment", "train", "evaluate", "crc-check"],
    )
    def test_flag_defaults_are_the_config_defaults(self, argv, defaults):
        args = vars(_build_parser().parse_args(argv))
        assert {key: args[key] for key in defaults} == defaults

    def test_pipeline_nec_default_is_the_evaluation_default(self):
        assert PipelineConfig("t", "e", "c", "o").nec == EvalConfig().nec

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
