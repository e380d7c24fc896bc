"""CLI subcommands: artifacts, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskcbm
from riskcbm.cli import main


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
