"""Byte identity: every artifact of four small fixed runs keeps the sha256
digest recorded in `tests/data/digests.json`.

The runs are `synth` with pixels, a `pipeline` that pastes patches, the
staged `calibrate --exact`, `build`, `augment`, `train --log-csv` and
`evaluate --per-sample-csv --cca-dat` chain on the pipeline's split, and
`crc-check --out`. A change that moves an output on purpose regenerates the
file with

    PYTHONPATH=src python tests/test_digests.py

and names each moved file in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

from riskcbm import dataio
from riskcbm.cli import main
from riskcbm.pipeline import SplitConfig, split_train_cal

DIGESTS = Path(__file__).parent / "data" / "digests.json"

SYNTH = ["--classes", "3", "--concepts-per-class", "4", "--samples-per-class", "60",
         "--test-samples-per-class", "8", "--seed", "2"]
MIN_COUNT = ["--min-count", "45"]
EPOCHS = ["--epochs", "40"]


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, argv


def write_artifacts(root: Path) -> None:
    """Run the four fixed runs, each into its own directory under ``root``."""
    data, run, staged = root / "data", root / "pipeline", root / "staged"
    catalog = ["--catalog", data / "catalog.json"]
    _run("synth", "--out-dir", data, *SYNTH)
    _run("pipeline", "--train", data / "train.ndjson", "--test", data / "test.ndjson",
         *catalog, "--out-dir", run, *EPOCHS, *MIN_COUNT)
    samples = dataio.load_dataset(data / "train.ndjson", dataio.load_catalog(data / "catalog.json"))
    split = SplitConfig()
    staged.mkdir()
    parts = split_train_cal(samples, split.train_fraction, split.seed)
    for name, part in zip(("train_part", "cal_part"), parts):
        dataio.save_dataset(staged / f"{name}.ndjson", part)
    _run("calibrate", "--dataset", staged / "cal_part.ndjson", *catalog,
         "--out", staged / "calibration.json", "--exact")
    _run("build", "--dataset", staged / "train_part.ndjson", *catalog,
         "--calibration", staged / "calibration.json", "--out", staged / "labeled.ndjson",
         "--vocab-out", staged / "vocabulary.json")
    _run("augment", "--labeled", staged / "labeled.ndjson", *catalog,
         "--vocab", staged / "vocabulary.json", "--out", staged / "aug.ndjson", *MIN_COUNT)
    _run("train", "--labeled", staged / "aug.ndjson", *catalog,
         "--vocab", staged / "vocabulary.json", "--out", staged / "model.json",
         "--log-csv", staged / "training_log.csv", *EPOCHS)
    _run("evaluate", "--model", staged / "model.json", "--dataset", data / "test.ndjson",
         *catalog, "--out", staged / "eval_report.json",
         "--per-sample-csv", staged / "per_sample.csv", "--cca-dat", staged / "cca.dat")
    _run("crc-check", "--pool", "300", "--n-cal", "30", "--trials", "500", "--seed", "3",
         "--out", root / "crc.json")


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root``, by its path relative to it."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_artifact_keeps_its_bytes(tmp_path):
    # A warning would mean a degenerate run: an unattainable budget or an
    # augmentation that ran out of sources or targets.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_artifacts(tmp_path)
    expected, actual = json.loads(DIGESTS.read_text()), digests(tmp_path)
    assert any("-aug-" in name for name in actual), "the pipeline pasted no patch"
    moved = sorted(
        name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name)
    )
    assert not moved, f"{len(moved)} of {len(expected)} file(s) moved: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_artifacts(Path(tmp))
        DIGESTS.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
