"""Global vocabulary, one-hot concept labels, and rare-concept augmentation.

The vocabulary is the union of calibrated concept sets over the training
samples; each sample's concept label vector is the membership indicator of
its calibrated set. Concepts whose positive count falls below a threshold
get synthesized extra positives: the box of a reliable detection in a source
image is resized and pasted, as a plain rectangle, into a same-class target
at a window that does not overlap any of the target's reliable
(threshold-passing) boxes.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import KW_ONLY, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .calibration import RiskBudget
from .concept_sets import build_concept_set, confidence_admits
from .core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    DataError,
)

__all__ = [
    "ConceptVocabulary",
    "Provenance",
    "ORIGINAL",
    "ConceptLabeledSample",
    "AugmentationConfig",
    "AugmentationReport",
    "build_vocabulary",
    "label_sample",
    "sample_placement",
    "composite_patch",
    "augment_dataset",
]

# Pasted windows keep the source aspect ratio and are scaled uniformly at
# random within this range of the source box size (then clipped to fit).
SCALE_RANGE = (0.5, 1.0)


@dataclass(eq=False)
class ConceptVocabulary:
    """Ordered global concept vocabulary; order is ascending concept id.

    A vocabulary is the output of a calibration: it records
    ``lambda_hat``, the threshold its concepts were admitted at, and the
    risk ``budget`` that threshold is valid for.
    """

    concepts: tuple[ConceptId, ...]
    lambda_hat: float
    budget: RiskBudget
    index_of: dict[ConceptId, int] = field(init=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.concepts), key=lambda c: c.id))
        if len(ordered) != len(self.concepts):
            raise DataError("vocabulary contains duplicate concepts")
        if ordered != tuple(self.concepts):
            raise DataError("vocabulary must be sorted by concept id")
        if isinstance(self.lambda_hat, bool) or not isinstance(self.lambda_hat, numbers.Real):
            raise DataError(
                f"lambda_hat must be a number, got {type(self.lambda_hat).__name__}"
            )
        if not 0.0 <= self.lambda_hat <= 1.0:
            raise DataError(f"lambda_hat must be in [0, 1], got {self.lambda_hat}")
        if not isinstance(self.budget, RiskBudget):
            raise DataError(
                f"budget must be a RiskBudget, got {type(self.budget).__name__}"
            )
        self.concepts = ordered
        self.index_of = {c: i for i, c in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept: ConceptId) -> bool:
        return concept in self.index_of

    def check_aligned(self, dataset: Sequence["ConceptLabeledSample"]) -> None:
        """Raise a DataError naming the first sample whose concept vector does
        not have one entry per vocabulary concept."""
        for sample in dataset:
            if len(sample.concept_vector) != len(self):
                raise DataError(
                    f"sample {sample.sample_id}: concept vector has length "
                    f"{len(sample.concept_vector)}, vocabulary has {len(self)}"
                )

    def check_in_catalog(self, catalog: ConceptCatalog) -> None:
        """Raise a DataError naming the first vocabulary concept that the
        catalog does not list."""
        for concept in self.concepts:
            if not catalog.has_concept(concept):
                raise DataError(
                    f"vocabulary concept {concept.id} ('{concept.text}') not in catalog"
                )


@dataclass(frozen=True)
class Provenance:
    """Where a labeled sample came from: an original image or an augmentation.

    Augmented entries record the patch source, the inserted concept, and the
    placement window, all three required, so augmentation invariants can be
    rechecked post hoc.
    """

    kind: str
    source_id: "str | None" = None
    inserted_concept: "ConceptId | None" = None
    placement: "BoundingBox | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("original", "augmented"):
            raise DataError(f"unknown provenance kind {self.kind!r}")
        if self.kind == "augmented" and None in (
            self.source_id, self.inserted_concept, self.placement
        ):
            raise DataError(
                "augmented provenance needs source_id, inserted_concept and placement"
            )


ORIGINAL = Provenance(kind="original")


@dataclass(eq=False)
class ConceptLabeledSample(AnnotatedSample):
    """An annotated sample plus its binary concept label vector.

    The vector is aligned to a vocabulary; ``provenance`` says whether the
    row is an original image or an augmentation. Both fields are
    keyword-only, and the inherited fields go through the same checks as
    any `AnnotatedSample`: the embedding and pixels are validated and
    frozen read-only.
    """

    _: KW_ONLY
    concept_vector: np.ndarray
    provenance: Provenance = ORIGINAL

    def __post_init__(self) -> None:
        super().__post_init__()
        vec = np.array(self.concept_vector, dtype=np.uint8, copy=True)
        if vec.ndim != 1:
            raise DataError(f"concept vector must be 1-D, got shape {vec.shape}")
        if np.any(vec > 1):
            raise DataError("concept vector entries must be 0 or 1")
        vec.setflags(write=False)
        self.concept_vector = vec

    @property
    def is_original(self) -> bool:
        return self.provenance.kind == "original"


def build_vocabulary(
    samples: Sequence[AnnotatedSample],
    catalog: ConceptCatalog,
    lambda_hat: float,
    budget: RiskBudget,
) -> ConceptVocabulary:
    """Union of calibrated concept sets over the samples, ordered by id,
    recording ``lambda_hat`` and the ``budget`` it was calibrated at. A
    concept the catalog lacks raises a DataError naming the lowest such id."""
    union: set[ConceptId] = set()
    for sample in samples:
        union.update(build_concept_set(sample, lambda_hat).members)
    if not union:
        raise DataError(
            "empty vocabulary: no detection clears the calibrated threshold"
        )
    vocab = ConceptVocabulary(tuple(sorted(union, key=lambda c: c.id)), lambda_hat, budget)
    vocab.check_in_catalog(catalog)
    return vocab


def label_sample(sample: AnnotatedSample, vocab: ConceptVocabulary) -> ConceptLabeledSample:
    """One-hot concept labels: entry j is 1 iff vocabulary concept j is in
    the sample's set at the vocabulary's ``lambda_hat``."""
    vector = np.zeros(len(vocab), dtype=np.uint8)
    for concept in build_concept_set(sample, vocab.lambda_hat).members:
        idx = vocab.index_of.get(concept)
        if idx is not None:
            vector[idx] = 1
    own = {f.name: getattr(sample, f.name) for f in fields(AnnotatedSample)}
    return ConceptLabeledSample(**own, concept_vector=vector)


@dataclass(frozen=True)
class AugmentationConfig:
    min_count: int = 10
    max_placement_attempts: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.max_placement_attempts < 1:
            raise ValueError(
                f"max_placement_attempts must be >= 1, got {self.max_placement_attempts}"
            )
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def positive_counts(
    dataset: Sequence[ConceptLabeledSample], vocab: ConceptVocabulary
) -> np.ndarray:
    counts = np.zeros(len(vocab), dtype=np.int64)
    for sample in dataset:
        counts += sample.concept_vector
    return counts


def _rarest_first(
    counts: np.ndarray, vocab: ConceptVocabulary, min_count: int
) -> list[tuple[ConceptId, int]]:
    sparse = [
        (concept, int(counts[i]))
        for i, concept in enumerate(vocab.concepts)
        if counts[i] < min_count
    ]
    sparse.sort(key=lambda item: (item[1], item[0].id))
    return sparse


def reliable_boxes(
    sample, lambda_hat: float, exclude_concept: "ConceptId | None" = None
) -> list[BoundingBox]:
    """Boxes of threshold-passing detections, optionally excluding one concept."""
    return [
        det.box
        for det in sample.detections
        if confidence_admits(det.confidence, lambda_hat)
        and det.concept != exclude_concept
    ]


def sample_placement(
    target,
    rare_concept: ConceptId,
    lambda_hat: float,
    source_box: BoundingBox,
    rng: np.random.Generator,
    *,
    max_attempts: int = AugmentationConfig.max_placement_attempts,
) -> "BoundingBox | None":
    """Rejection-sample an in-bounds window clear of the target's reliable boxes.

    The window keeps the source box's aspect ratio at a random scale in
    ``SCALE_RANGE`` and may touch, but not overlap, any reliable box of a
    concept other than ``rare_concept``. Returns None after ``max_attempts``
    rejected draws; the caller is expected to skip this target.
    """
    if target.image_pixels is None:
        raise DataError(f"sample {target.sample_id} has no pixels; cannot place a patch")
    if source_box.x2 <= source_box.x1 or source_box.y2 <= source_box.y1:
        raise DataError(f"degenerate source box {source_box}")
    height, width = target.image_pixels.shape[:2]
    blocked = reliable_boxes(target, lambda_hat, exclude_concept=rare_concept)
    for _ in range(max_attempts):
        scale = rng.uniform(*SCALE_RANGE)
        w = min(width, max(1, int(round(source_box.width * scale))))
        h = min(height, max(1, int(round(source_box.height * scale))))
        x1 = int(rng.integers(0, width - w + 1))
        y1 = int(rng.integers(0, height - h + 1))
        window = BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))
        if not any(window.overlaps(box) for box in blocked):
            return window
    return None


def _int_corners(box: BoundingBox) -> tuple[int, int, int, int]:
    return (
        int(round(box.x1)),
        int(round(box.y1)),
        int(round(box.x2)),
        int(round(box.y2)),
    )


def composite_patch(
    target_pixels: np.ndarray, source_patch: np.ndarray, placement: BoundingBox
) -> np.ndarray:
    """Rectangle paste: the placement window takes the source, the rest keeps the target.

    The patch must already be resized to the placement dimensions; every
    pixel outside the window is bit-identical to the target.
    """
    x1, y1, x2, y2 = _int_corners(placement)
    h, w = y2 - y1, x2 - x1
    if source_patch.shape != (h, w, 3):
        raise DataError(
            f"source patch shape {source_patch.shape} does not match placement ({h}, {w}, 3)"
        )
    th, tw = target_pixels.shape[:2]
    if x1 < 0 or y1 < 0 or x2 > tw or y2 > th:
        raise DataError(f"placement {placement} outside target bounds ({th}, {tw})")
    out = np.array(target_pixels, copy=True)
    out[y1:y2, x1:x2] = source_patch
    out.setflags(write=False)
    return out


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with pixel-center alignment; preserves the value range."""
    img = np.asarray(image, dtype=np.float32)
    in_h, in_w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0).astype(np.float32)[:, None, None]
    wx = (xs - x0).astype(np.float32)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def _best_source_detection(sample, concept: ConceptId, lambda_hat: float):
    """Highest-confidence reliable detection of the concept, or None."""
    best = None
    for det in sample.detections:
        if det.concept != concept or not confidence_admits(det.confidence, lambda_hat):
            continue
        if best is None or det.confidence > best.confidence:
            best = det
    return best


def _paste(target, source, src_det, concept, lambda_hat, config, rng):
    """Paste the source's detection box into a free window of the target.

    Returns the new pixels and the window, or None when the source box
    clipped to its image is empty or no free window was found.
    """
    sx1, sy1, sx2, sy2 = _int_corners(src_det.box)
    sh, sw = source.image_pixels.shape[:2]
    sx1, sy1 = max(0, sx1), max(0, sy1)
    sx2, sy2 = min(sw, sx2), min(sh, sy2)
    if sx2 - sx1 < 1 or sy2 - sy1 < 1:
        return None
    placement = sample_placement(
        target,
        concept,
        lambda_hat,
        src_det.box,
        rng,
        max_attempts=config.max_placement_attempts,
    )
    if placement is None:
        return None
    px1, py1, px2, py2 = _int_corners(placement)
    patch = resize_bilinear(source.image_pixels[sy1:sy2, sx1:sx2], py2 - py1, px2 - px1)
    return composite_patch(target.image_pixels, patch, placement), placement


@dataclass(eq=False)
class AugmentationOutcome:
    concept: ConceptId
    count_before: int
    count_after: int
    status: str  # "met" | "exhausted" | "unseedable"


@dataclass(eq=False)
class AugmentationReport:
    outcomes: list[AugmentationOutcome] = field(default_factory=list)


def augment_dataset(
    dataset: Sequence[ConceptLabeledSample],
    vocab: ConceptVocabulary,
    lambda_hat: float,
    config: AugmentationConfig,
) -> tuple[list[ConceptLabeledSample], AugmentationReport]:
    """Append synthesized positives for every sparse vocabulary concept.

    Concepts are processed rarest-first and sequentially against one running
    positive count: each appended row adds its whole concept vector, so
    positives added for one concept count toward the next. Patch sources are
    original samples with pixels and a reliable detection of the concept;
    targets are original same-class samples with pixels, visited in random
    order without replacement. Originals are never mutated. A concept that
    no sample can seed is reported "unseedable", one whose targets run out
    first "exhausted"; either gets a warning and the run goes on.
    """
    vocab.check_aligned(dataset)
    rng = np.random.default_rng(config.rng_seed)
    out = list(dataset)
    originals = [s for s in out if s.is_original and s.image_pixels is not None]
    counts = positive_counts(out, vocab)
    report = AugmentationReport()
    for concept, _ in _rarest_first(counts, vocab, config.min_count):
        idx = vocab.index_of[concept]
        before = int(counts[idx])
        sources = []
        if before < config.min_count:
            sources = [
                (s, det)
                for s in originals
                if (det := _best_source_detection(s, concept, lambda_hat)) is not None
            ]
        if sources:
            targets = [s for s in originals if s.label == concept.class_of_origin]
            one_hot = np.zeros(len(vocab), dtype=np.uint8)
            one_hot[idx] = 1
            sequence = 0
            for t in rng.permutation(len(targets)):
                if counts[idx] >= config.min_count:
                    break
                target = targets[int(t)]
                candidates = [
                    (s, det) for s, det in sources if s.sample_id != target.sample_id
                ]
                if not candidates:
                    continue
                source, src_det = candidates[int(rng.integers(len(candidates)))]
                pasted = _paste(target, source, src_det, concept, lambda_hat, config, rng)
                if pasted is None:
                    continue
                pixels, placement = pasted
                sequence += 1
                row = replace(
                    target,
                    sample_id=f"{target.sample_id}-aug-{concept.id}-{sequence}",
                    concept_vector=np.maximum(target.concept_vector, one_hot),
                    image_pixels=pixels,
                    provenance=Provenance(
                        kind="augmented",
                        source_id=source.sample_id,
                        inserted_concept=concept,
                        placement=placement,
                    ),
                )
                out.append(row)
                counts += row.concept_vector
        after = int(counts[idx])
        if after >= config.min_count:
            status = "met"
        elif not sources:
            status = "unseedable"
            warnings.warn(
                f"unseedable concept {concept.id} ('{concept.text}'): "
                "no reliable source patch available",
                stacklevel=2,
            )
        else:
            status = "exhausted"
            warnings.warn(
                f"augmentation exhausted for concept {concept.id} "
                f"('{concept.text}'): reached {after} < {config.min_count} positives",
                stacklevel=2,
            )
        report.outcomes.append(AugmentationOutcome(concept, before, after, status))
    return out, report
