"""End-to-end orchestration: split, calibrate, build, augment, train, evaluate.

`run_pipeline` executes all stages over files on disk and writes the artifact
set (calibration result, vocabulary, augmented training manifest, model
checkpoint, evaluation report, and plot data) into the output directory. All
randomness flows from seeds in the config, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataio
from .calibration import DEFAULT_BUDGET, RiskBudget, calibrate
from .cbm_trainer import TrainConfig, train
from .concept_sets import CRITERIA
from .core import AnnotatedSample, DataError
from .dataset_builder import (
    AugmentationConfig,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from .evaluation import SWEEP_NEC_VALUES, cca_versus_nec

# Not called here since the NEC sweep yields the headline report, but kept as
# a module attribute: bench/run.py traces `pipeline.accuracy_report`.
from .evaluation import accuracy_report  # noqa: F401

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "StageError",
    "split_train_cal",
    "run_pipeline",
]

class StageError(Exception):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def split_train_cal(
    samples: Sequence[AnnotatedSample], fraction: float, seed: int
) -> tuple[list[AnnotatedSample], list[AnnotatedSample]]:
    """Seeded shuffle split into (train, calibration); sizes (round(f*N), rest).

    Both halves are guaranteed nonempty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0,1), got {fraction}")
    n = len(samples)
    if n < 2:
        raise DataError(f"need at least 2 samples to split, got {n}")
    n_train = int(math.floor(fraction * n + 0.5))
    n_train = min(max(n_train, 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    train_part = [samples[int(i)] for i in order[:n_train]]
    cal_part = [samples[int(i)] for i in order[n_train:]]
    return train_part, cal_part


@dataclass(frozen=True)
class PipelineConfig:
    train_path: str
    test_path: str
    catalog_path: str
    output_dir: str
    # One budget per run: calibration and the evaluation's compliance checks.
    budget: RiskBudget = DEFAULT_BUDGET
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    nec: int = 10
    train_fraction: float = 0.8
    split_seed: int = 0
    resolution: float = 1e-3
    exact_calibration: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )
        if self.nec < 1:
            raise ValueError(f"nec must be >= 1, got {self.nec}")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        paths = doc.get("paths", {})
        alphas = doc.get("budget", {})
        split = doc.get("split", {})
        calib = doc.get("calibration", {})
        return cls(
            train_path=paths["train"],
            test_path=paths["test"],
            catalog_path=paths["catalog"],
            output_dir=paths["output_dir"],
            budget=RiskBudget(
                alpha_dis=float(alphas.get("alpha_dis", DEFAULT_BUDGET.alpha_dis)),
                alpha_cov=float(alphas.get("alpha_cov", DEFAULT_BUDGET.alpha_cov)),
                alpha_div=float(alphas.get("alpha_div", DEFAULT_BUDGET.alpha_div)),
            ),
            augmentation=AugmentationConfig(**doc.get("augmentation", {})),
            train=TrainConfig(**doc.get("train", {})),
            nec=int(doc.get("eval", {}).get("nec", 10)),
            train_fraction=float(split.get("train_fraction", 0.8)),
            split_seed=int(split.get("seed", 0)),
            resolution=float(calib.get("resolution", 1e-3)),
            exact_calibration=bool(calib.get("exact", False)),
        )


@dataclass(eq=False)
class PipelineResult:
    calibration_path: Path
    vocabulary_path: Path
    augmented_path: Path
    model_path: Path
    eval_report_path: Path
    plot_paths: list[Path]
    lambda_hat: float
    overall_accuracy: float
    cca: float


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage and write all artifacts: see module docstring."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def stage(name: str, fn):
        try:
            return fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    catalog = stage("load", lambda: dataio.load_catalog(config.catalog_path))
    train_samples = stage(
        "load", lambda: dataio.load_dataset(config.train_path, catalog)
    )
    test_samples = stage("load", lambda: dataio.load_dataset(config.test_path, catalog))

    train_part, cal_part = stage(
        "split",
        lambda: split_train_cal(train_samples, config.train_fraction, config.split_seed),
    )

    result = stage(
        "calibrate",
        lambda: calibrate(
            config.budget,
            cal_part,
            catalog,
            resolution=config.resolution,
            exact=config.exact_calibration,
        ),
    )
    calibration_path = out_dir / "calibration.json"
    dataio.save_calibration(calibration_path, result)
    curves_path = out_dir / "risk_curves.dat"
    grid = result.curves["dis"].grid
    dataio.write_dat(
        curves_path,
        ["lambda"] + [f"risk_{k}" for k in CRITERIA],
        (
            [float(grid[i])] + [float(result.curves[k].risks[i]) for k in CRITERIA]
            for i in range(len(grid))
        ),
    )

    vocab = stage(
        "build", lambda: build_vocabulary(train_part, catalog, result.lambda_hat)
    )
    vocabulary_path = out_dir / "vocabulary.json"
    dataio.save_vocabulary(vocabulary_path, vocab)
    labeled = stage(
        "build",
        lambda: [label_sample(s, vocab, result.lambda_hat) for s in train_part],
    )

    augmented, _report = stage(
        "augment",
        lambda: augment_dataset(labeled, vocab, result.lambda_hat, config.augmentation),
    )
    augmented_path = out_dir / "dataset_aug.ndjson"
    dataio.save_labeled_dataset(augmented_path, augmented)

    model, log = stage(
        "train",
        lambda: train(augmented, vocab, config.train, n_classes=catalog.num_classes),
    )
    model_path = out_dir / "model.json"
    dataio.save_model(model_path, model, vocab, config.train)
    dataio.save_training_log(out_dir / "training_log.csv", log)

    # The sweep's NEC list holds config.nec, so its row there is the headline.
    nec_values = sorted({*SWEEP_NEC_VALUES, config.nec})
    sweep = stage(
        "evaluate",
        lambda: cca_versus_nec(
            model, test_samples, vocab, catalog, config.budget, nec_values
        ),
    )
    report = dict(sweep)[config.nec]
    eval_report_path = out_dir / "eval_report.json"
    dataio.save_eval_report(eval_report_path, report)
    dataio.save_per_sample_csv(out_dir / "eval_per_sample.csv", report)

    cca_path = out_dir / "cca_vs_nec.dat"
    dataio.write_dat(
        cca_path,
        ["nec", "cca", "overall_accuracy", "worst_class_accuracy"],
        (
            [nec, r.cca, r.overall_accuracy, r.worst_class_accuracy]
            for nec, r in sweep
        ),
    )

    return PipelineResult(
        calibration_path=calibration_path,
        vocabulary_path=vocabulary_path,
        augmented_path=augmented_path,
        model_path=model_path,
        eval_report_path=eval_report_path,
        plot_paths=[curves_path, cca_path],
        lambda_hat=result.lambda_hat,
        overall_accuracy=report.overall_accuracy,
        cca=report.cca,
    )
