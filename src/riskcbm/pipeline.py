"""End-to-end orchestration: split, calibrate, build, augment, train, evaluate.

`run_pipeline` executes all stages over files on disk and writes the artifact
set into the output directory, each quantity once: the calibration result
with its risk curves, the vocabulary, the augmented training manifest, the
model checkpoint and training log, the evaluation report with its per-sample
compliance flags, and the compliance-vs-NEC table. All randomness flows from
seeds in the config, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from . import dataio
from .calibration import CalibrationConfig, RiskBudget, calibrate
from .cbm_trainer import CbmModel, TrainConfig, train
from .core import AnnotatedSample, ConceptCatalog, DataError
from .dataset_builder import (
    AugmentationConfig,
    ConceptVocabulary,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from .evaluation import SWEEP_NEC_VALUES, EvalConfig, EvalReport, cca_versus_nec, check_test_set

# Not called here since the NEC sweep yields the headline report, but kept as
# a module attribute: bench/run.py traces `pipeline.accuracy_report`.
from .evaluation import accuracy_report  # noqa: F401

__all__ = [
    "CONFIG_KEYS",
    "Paths",
    "SplitConfig",
    "PipelineConfig",
    "PipelineResult",
    "StageError",
    "check_config",
    "split_train_cal",
    "evaluate_sweep",
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
class Paths:
    """A run's input files and the directory it writes its artifacts to."""

    train: str
    test: str
    catalog: str
    output_dir: str


@dataclass(frozen=True)
class SplitConfig:
    """How `split_train_cal` divides the training file."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings: one field per section of its config file, each that
    section's dataclass. One budget per run: calibration's, which the
    vocabulary carries on to the checkpoint and the evaluation's compliance
    checks."""

    paths: Paths
    budget: RiskBudget = field(default_factory=RiskBudget)
    split: SplitConfig = field(default_factory=SplitConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Config from its JSON form, checked by `check_config`. A missing path
        or a value out of range raises a ValueError."""
        check_config(doc)
        for key in CONFIG_KEYS["paths"]:
            if key not in doc.get("paths", {}):
                raise ValueError(f"missing required path: {key}")
        return cls(**{
            name: kind(**{key: CONFIG_KEYS[name][key](v) for key, v in doc.get(name, {}).items()})
            for name, kind in get_type_hints(cls).items()
        })


# The sections of a config file, the keys each accepts and the type of each.
CONFIG_KEYS = {
    name: get_type_hints(kind) for name, kind in get_type_hints(PipelineConfig).items()
}


def check_config(doc) -> None:
    """Raise a ValueError naming the first part of a config document that is
    not a JSON object, the first key it does not know, or the first value of
    the wrong type."""
    _check_keys("the config", doc, CONFIG_KEYS)
    for name, types in CONFIG_KEYS.items():
        where = f"config section {name!r}"
        section = doc.get(name, {})
        _check_keys(where, section, types)
        for key, value in section.items():
            if not dataio._is_a(value, types[key]):
                raise ValueError(
                    f"{key} in {where} must be {types[key].__name__}, got {value!r}"
                )


def _check_keys(where: str, section, allowed) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")


@dataclass(eq=False)
class PipelineResult:
    lambda_hat: float
    overall_accuracy: float
    cca: float


def evaluate_sweep(
    model: CbmModel, test_set: Sequence[AnnotatedSample], vocab: ConceptVocabulary,
    catalog: ConceptCatalog, nec: int, dat_path: "str | Path | None" = None,
) -> EvalReport:
    """The report at ``nec``, read off one sweep over `SWEEP_NEC_VALUES` and
    ``nec`` at the risk budget ``vocab`` records; given ``dat_path``, the
    sweep is written there as a table."""
    sweep = cca_versus_nec(model, test_set, vocab, catalog, sorted({*SWEEP_NEC_VALUES, nec}))
    if dat_path is not None:
        dataio.write_dat(
            dat_path,
            ["nec", "cca", "overall_accuracy", "worst_class_accuracy"],
            ([n, r.cca, r.overall_accuracy, r.worst_class_accuracy] for n, r in sweep),
        )
    return dict(sweep)[nec]


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage and write all artifacts: see module docstring.
    Inputs that cannot be evaluated fail at the load stage, before any write."""

    def stage(name: str, fn):
        try:
            return fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    catalog = stage("load", lambda: dataio.load_catalog(config.paths.catalog))
    train_samples = stage("load", lambda: dataio.load_dataset(config.paths.train, catalog))
    test_samples = stage("load", lambda: dataio.load_dataset(config.paths.test, catalog))
    stage("load", lambda: check_test_set(test_samples, catalog.num_classes))
    out_dir = Path(config.paths.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_part, cal_part = stage(
        "split",
        lambda: split_train_cal(train_samples, config.split.train_fraction, config.split.seed),
    )

    result = stage(
        "calibrate",
        lambda: calibrate(config.budget, cal_part, catalog, **asdict(config.calibration)),
    )
    dataio.save_calibration(out_dir / "calibration.json", result)

    vocab = stage(
        "build",
        lambda: build_vocabulary(train_part, catalog, result.lambda_hat, result.budget),
    )
    dataio.save_vocabulary(out_dir / "vocabulary.json", vocab)
    labeled = stage("build", lambda: [label_sample(s, vocab) for s in train_part])

    augmented, _report = stage(
        "augment",
        lambda: augment_dataset(labeled, vocab, vocab.lambda_hat, config.augmentation),
    )
    dataio.save_labeled_dataset(out_dir / "dataset_aug.ndjson", augmented)

    model, log = stage(
        "train",
        lambda: train(augmented, vocab, config.train, n_classes=catalog.num_classes),
    )
    dataio.save_model(out_dir / "model.json", model, vocab, config.train)
    dataio.save_training_log(out_dir / "training_log.csv", log)

    report = stage(
        "evaluate",
        lambda: evaluate_sweep(
            model, test_samples, vocab, catalog, config.eval.nec, out_dir / "cca_vs_nec.dat",
        ),
    )
    dataio.save_eval_report(out_dir / "eval_report.json", report)

    return PipelineResult(
        lambda_hat=result.lambda_hat,
        overall_accuracy=report.overall_accuracy,
        cca=report.cca,
    )
