"""Accuracy and concept-compliance metrics for trained bottleneck models.

Concept Compliance Accuracy (CCA) counts a test sample only when it is
correctly classified AND the model's effective concept set simultaneously
meets all three set-quality budgets, evaluated against the true label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calibration import RiskBudget
from .cbm_trainer import CbmModel, forward, sigmoid
from .concept_sets import CRITERIA, ConceptSet, batch_prefix_losses
from .core import AnnotatedSample, ClassLabel, ConceptCatalog, DataError
from .dataset_builder import ConceptVocabulary

__all__ = [
    "SWEEP_NEC_VALUES",
    "EvalConfig",
    "SampleCompliance",
    "EvalReport",
    "predict",
    "effective_concept_set",
    "accuracy_report",
    "cca_versus_nec",
]

# Effective-set sizes swept for the compliance-vs-NEC table, plus the configured one.
SWEEP_NEC_VALUES = (1, 2, 5, 10, 15, 20, 25)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs: effective-set size cap and compliance thresholds."""

    nec: int = 10
    budget: RiskBudget = field(
        default_factory=lambda: RiskBudget(alpha_dis=0.7, alpha_cov=0.2, alpha_div=0.2)
    )

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


def predict(model: CbmModel, sample) -> ClassLabel:
    """Argmax class; ties go to the smallest class index."""
    _, class_logits = forward(model, sample.image_embedding)
    return int(np.argmax(class_logits))


def _ranked_candidates(model: CbmModel, sample, vocab: ConceptVocabulary):
    """Predicted class, and its vocabulary indices by activation (ties: smaller index)."""
    concept_logits, class_logits = forward(model, sample.image_embedding)
    predicted = int(np.argmax(class_logits))
    activations = sigmoid(concept_logits)
    candidates = [
        i for i, c in enumerate(vocab.concepts) if c.class_of_origin == predicted
    ]
    return predicted, sorted(candidates, key=lambda i: (-activations[i], i))


def effective_concept_set(
    model: CbmModel, sample, vocab: ConceptVocabulary, nec: int
) -> ConceptSet:
    """Top-``nec`` concepts by bottleneck activation among the predicted class's vocabulary.

    Ties break toward the smaller vocabulary index; if the class has fewer
    than ``nec`` vocabulary concepts the whole class-restricted set returns.
    """
    if nec < 1:
        raise ValueError(f"nec must be >= 1, got {nec}")
    _, ranked = _ranked_candidates(model, sample, vocab)
    return ConceptSet(
        members=frozenset(vocab.concepts[i] for i in ranked[:nec]), lambda_used=None
    )


def _reports(
    model: CbmModel,
    test_set: Sequence[AnnotatedSample],
    vocab: ConceptVocabulary,
    catalog: ConceptCatalog,
    configs: Sequence[EvalConfig],
) -> list[EvalReport]:
    """One report per config from one pass: per sample one forward pass and
    one ranking, then one prefix-kernel call for all samples; NEC n reads
    column ``min(n, len)``."""
    samples = [
        s
        for s in test_set
        if getattr(s, "provenance", None) is None or s.provenance.kind == "original"
    ]
    if not samples:
        raise DataError("test set is empty")
    num_classes = catalog.num_classes
    correct = np.zeros(num_classes, dtype=np.int64)
    totals = np.zeros(num_classes, dtype=np.int64)
    hits, ranked_lists = [], []
    for sample in samples:
        if not 0 <= sample.label < num_classes:
            raise DataError(f"sample {sample.sample_id}: unknown class label {sample.label}")
        predicted, ranked = _ranked_candidates(model, sample, vocab)
        hits.append(predicted == sample.label)
        ranked_lists.append([vocab.concepts[i] for i in ranked])
        totals[sample.label] += 1
        correct[sample.label] += int(hits[-1])
    losses = batch_prefix_losses(samples, catalog, ranked_lists)
    missing = np.flatnonzero(totals == 0)
    if missing.size:
        raise DataError(
            f"class {int(missing[0])} absent from test set; "
            "worst-class accuracy undefined"
        )
    per_class = correct / totals
    reports = []
    for config in configs:
        alphas = np.array([config.budget.alpha_for(k) for k in CRITERIA])
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
                budget=config.budget,
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
    are evaluated against the true label. Samples carrying augmented
    provenance are skipped (test data is never augmented).
    """
    return _reports(model, test_set, vocab, catalog, [eval_config])[0]


def cca_versus_nec(
    model: CbmModel,
    test_set: Sequence[AnnotatedSample],
    vocab: ConceptVocabulary,
    catalog: ConceptCatalog,
    budget: RiskBudget,
    nec_values: Sequence[int],
) -> list[tuple[int, EvalReport]]:
    """Evaluate the report at several effective-set sizes (for compliance curves)."""
    configs = [EvalConfig(nec=int(nec), budget=budget) for nec in nec_values]
    reports = _reports(model, test_set, vocab, catalog, configs)
    return [(config.nec, report) for config, report in zip(configs, reports)]
