"""Accuracy and concept-compliance metrics for trained bottleneck models.

Concept Compliance Accuracy (CCA) counts a test sample only when it is
correctly classified AND the model's effective concept set simultaneously
meets all three set-quality budgets, evaluated against the true label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import RiskBudget
from .cbm_trainer import CbmModel, forward
from .concept_sets import CRITERIA, batch_prefix_losses
from .core import AnnotatedSample, ConceptCatalog, DataError
from .dataset_builder import ConceptVocabulary

__all__ = [
    "SWEEP_NEC_VALUES",
    "EvalConfig",
    "SampleCompliance",
    "EvalReport",
    "check_test_set",
    "accuracy_report",
    "cca_versus_nec",
]

# Effective-set sizes swept for the compliance-vs-NEC table, plus the configured one.
SWEEP_NEC_VALUES = (1, 2, 5, 10, 15, 20, 25)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knob: the effective-set size cap. Compliance is scored at
    the risk budget the vocabulary records."""

    nec: int = 10

    def __post_init__(self) -> None:
        if self.nec < 1:
            raise ValueError(f"nec must be >= 1, got {self.nec}")


@dataclass(frozen=True)
class SampleCompliance:
    """Per-sample indicators: correct prediction plus the three loss constraints."""

    sample_id: str
    correct: bool
    dis_ok: bool
    cov_ok: bool
    div_ok: bool

    @property
    def compliant(self) -> bool:
        return self.correct and self.dis_ok and self.cov_ok and self.div_ok


@dataclass(eq=False)
class EvalReport:
    overall_accuracy: float
    worst_class_accuracy: float
    cca: float
    per_class_accuracy: np.ndarray
    per_sample: list[SampleCompliance]
    nec: int
    budget: RiskBudget
    n_samples: int

    def __post_init__(self) -> None:
        self.per_class_accuracy = np.asarray(self.per_class_accuracy, dtype=np.float64)


def _ranked_candidates(model: CbmModel, samples: Sequence, vocab: ConceptVocabulary):
    """Per sample, from one forward pass over the stacked embeddings: the
    argmax class (ties: smaller class index) and that class's vocabulary
    indices by activation (ties: smaller vocabulary index)."""
    _, activations, class_logits = forward(
        model, np.stack([s.image_embedding for s in samples])
    )
    predicted = np.argmax(class_logits, axis=1).tolist()
    origin = np.array([c.class_of_origin for c in vocab.concepts])
    ranked = []
    for pred, acts in zip(predicted, activations):
        candidates = np.flatnonzero(origin == pred)
        ranked.append(candidates[np.argsort(-acts[candidates], kind="stable")])
    return predicted, ranked


def check_test_set(
    test_set: Sequence[AnnotatedSample], num_classes: int
) -> list[AnnotatedSample]:
    """The samples an evaluation scores, every row of ``test_set``. Raises a
    DataError when there are none, a label is out of range or a class has none."""
    samples = list(test_set)
    if not samples:
        raise DataError("test set is empty")
    totals = np.zeros(num_classes, dtype=np.int64)
    for sample in samples:
        if not 0 <= sample.label < num_classes:
            raise DataError(f"sample {sample.sample_id}: unknown class label {sample.label}")
        totals[sample.label] += 1
    missing = np.flatnonzero(totals == 0)
    if missing.size:
        raise DataError(
            f"class {int(missing[0])} absent from test set; "
            "worst-class accuracy undefined"
        )
    return samples


def _reports(
    model: CbmModel,
    test_set: Sequence[AnnotatedSample],
    vocab: ConceptVocabulary,
    catalog: ConceptCatalog,
    configs: Sequence[EvalConfig],
) -> list[EvalReport]:
    """One report per config from one pass: one forward pass and one ranking
    for all samples, then one prefix-kernel call; NEC n reads column
    ``min(n, len)``."""
    _, budget = vocab.calibration()
    num_classes = catalog.num_classes
    samples = check_test_set(test_set, num_classes)
    if model.num_classes != num_classes:
        raise DataError(
            f"model has {model.num_classes} classes, catalog has {num_classes}"
        )
    vocab.check_in_catalog(catalog)
    predicted, ranked = _ranked_candidates(model, samples, vocab)
    labels = [s.label for s in samples]
    hits = [pred == label for pred, label in zip(predicted, labels)]
    ranked_lists = [[vocab.concepts[i] for i in order] for order in ranked]
    losses = batch_prefix_losses(samples, catalog, ranked_lists)
    totals = np.bincount(labels, minlength=num_classes)
    correct = np.bincount(labels, weights=hits, minlength=num_classes)
    per_class = correct / totals
    alphas = np.array([budget.alpha_for(k) for k in CRITERIA])
    reports = []
    for config in configs:
        # Columns past a list's end repeat its last, so column min(nec, P)
        # reads every sample's column min(nec, len).
        ok = losses[:, :, min(config.nec, losses.shape[2] - 1)] <= alphas[:, None]
        per_sample = [
            SampleCompliance(sample.sample_id, hit, *flags)
            for sample, hit, flags in zip(samples, hits, ok.T.tolist())
        ]
        reports.append(
            EvalReport(
                overall_accuracy=float(np.sum(correct)) / float(np.sum(totals)),
                worst_class_accuracy=float(np.min(per_class)),
                cca=float(np.mean([s.compliant for s in per_sample])),
                per_class_accuracy=per_class,
                per_sample=per_sample,
                nec=config.nec,
                budget=budget,
                n_samples=len(per_sample),
            )
        )
    return reports


def accuracy_report(
    model: CbmModel,
    test_set: Sequence[AnnotatedSample],
    vocab: ConceptVocabulary,
    catalog: ConceptCatalog,
    eval_config: EvalConfig,
) -> EvalReport:
    """Overall, worst-class, and concept-compliance accuracy over a test set.

    Effective sets are restricted by the predicted class; the three losses
    are evaluated against the true label, at the risk budget ``vocab``
    records. Samples carrying augmented provenance are skipped (test data is
    never augmented).
    """
    return _reports(model, test_set, vocab, catalog, [eval_config])[0]


def cca_versus_nec(
    model: CbmModel,
    test_set: Sequence[AnnotatedSample],
    vocab: ConceptVocabulary,
    catalog: ConceptCatalog,
    nec_values: Sequence[int],
) -> list[tuple[int, EvalReport]]:
    """Evaluate the report at several effective-set sizes (for compliance curves)."""
    configs = [EvalConfig(nec=int(nec)) for nec in nec_values]
    reports = _reports(model, test_set, vocab, catalog, configs)
    return [(config.nec, report) for config, report in zip(configs, reports)]
