"""End-to-end orchestration: split, calibrate, build, augment, train, evaluate.

`run_pipeline` executes all stages over files on disk and writes the artifact
set (calibration result, vocabulary, augmented training manifest, model
checkpoint, evaluation report, and plot data) into the output directory. All
randomness flows from seeds in the config, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from . import dataio
from .calibration import DEFAULT_BUDGET, DEFAULT_RESOLUTION, RiskBudget, calibrate
from .cbm_trainer import CbmModel, TrainConfig, train
from .concept_sets import CRITERIA
from .core import AnnotatedSample, ConceptCatalog, DataError
from .dataset_builder import (
    AugmentationConfig,
    ConceptVocabulary,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from .evaluation import SWEEP_NEC_VALUES, EvalConfig, EvalReport, cca_versus_nec

# Not called here since the NEC sweep yields the headline report, but kept as
# a module attribute: bench/run.py traces `pipeline.accuracy_report`.
from .evaluation import accuracy_report  # noqa: F401

__all__ = [
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
class PipelineConfig:
    train_path: str
    test_path: str
    catalog_path: str
    output_dir: str
    # One budget per run: calibration and the evaluation's compliance checks.
    budget: RiskBudget = DEFAULT_BUDGET
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    nec: int = EvalConfig.nec
    train_fraction: float = 0.8
    split_seed: int = 0
    resolution: float = DEFAULT_RESOLUTION
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
        """Config from its JSON form, checked by `check_config`. A missing path
        or a value out of range raises a ValueError."""
        check_config(doc)
        paths = doc.get("paths", {})
        for key in _CONFIG_KEYS["paths"]:
            if key not in paths:
                raise ValueError(f"missing required path: {key}")
        scalars = {
            name: _CONFIG_KEYS[section][key](doc[section][key])
            for (section, key), name in _SCALAR_FIELDS.items()
            if key in doc.get(section, {})
        }
        return cls(
            train_path=paths["train"],
            test_path=paths["test"],
            catalog_path=paths["catalog"],
            output_dir=paths["output_dir"],
            budget=replace(
                DEFAULT_BUDGET, **{k: float(v) for k, v in doc.get("budget", {}).items()}
            ),
            augmentation=AugmentationConfig(**doc.get("augmentation", {})),
            train=TrainConfig(**doc.get("train", {})),
            **scalars,
        )


# The sections of a config file, the keys each accepts and the type of each.
_CONFIG_KEYS = {
    "paths": dict.fromkeys(("train", "test", "catalog", "output_dir"), str),
    "budget": get_type_hints(RiskBudget),
    "split": {"train_fraction": float, "seed": int},
    "calibration": {"resolution": float, "exact": bool},
    "eval": {"nec": int},
    "train": get_type_hints(TrainConfig),
    "augmentation": get_type_hints(AugmentationConfig),
}

# The PipelineConfig field each scalar config key sets when present.
_SCALAR_FIELDS = {
    ("eval", "nec"): "nec",
    ("split", "train_fraction"): "train_fraction",
    ("split", "seed"): "split_seed",
    ("calibration", "resolution"): "resolution",
    ("calibration", "exact"): "exact_calibration",
}


def check_config(doc) -> None:
    """Raise a ValueError naming the first part of a config document that is
    not a JSON object, the first key it does not know, or the first value of
    the wrong type."""
    _check_keys("the config", doc, _CONFIG_KEYS)
    for name, types in _CONFIG_KEYS.items():
        where = f"config section {name!r}"
        section = doc.get(name, {})
        _check_keys(where, section, types)
        for key, value in section.items():
            if not _is_a(value, types[key]):
                raise ValueError(
                    f"{key} in {where} must be {types[key].__name__}, got {value!r}"
                )


def _is_a(value, kind: type) -> bool:
    """JSON typing: an int is also a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


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
    catalog: ConceptCatalog, budget: RiskBudget, nec: int, dat_path: "str | Path | None" = None,
) -> EvalReport:
    """The report at ``nec``, read off one sweep over `SWEEP_NEC_VALUES` and
    ``nec``; given ``dat_path``, the sweep is written there as a table."""
    sweep = cca_versus_nec(
        model, test_set, vocab, catalog, budget, sorted({*SWEEP_NEC_VALUES, nec})
    )
    if dat_path is not None:
        dataio.write_dat(
            dat_path,
            ["nec", "cca", "overall_accuracy", "worst_class_accuracy"],
            ([n, r.cca, r.overall_accuracy, r.worst_class_accuracy] for n, r in sweep),
        )
    return dict(sweep)[nec]


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
    dataio.save_calibration(out_dir / "calibration.json", result)
    grid = result.curves["dis"].grid
    dataio.write_dat(
        out_dir / "risk_curves.dat",
        ["lambda"] + [f"risk_{k}" for k in CRITERIA],
        (
            [float(grid[i])] + [float(result.curves[k].risks[i]) for k in CRITERIA]
            for i in range(len(grid))
        ),
    )

    vocab = stage(
        "build", lambda: build_vocabulary(train_part, catalog, result.lambda_hat)
    )
    dataio.save_vocabulary(out_dir / "vocabulary.json", vocab)
    labeled = stage(
        "build",
        lambda: [label_sample(s, vocab, result.lambda_hat) for s in train_part],
    )

    augmented, _report = stage(
        "augment",
        lambda: augment_dataset(labeled, vocab, result.lambda_hat, config.augmentation),
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
            model, test_samples, vocab, catalog, config.budget, config.nec,
            out_dir / "cca_vs_nec.dat",
        ),
    )
    dataio.save_eval_report(out_dir / "eval_report.json", report)
    dataio.save_per_sample_csv(out_dir / "eval_per_sample.csv", report)

    return PipelineResult(
        lambda_hat=result.lambda_hat,
        overall_accuracy=report.overall_accuracy,
        cca=report.cca,
    )
