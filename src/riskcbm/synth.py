"""Seeded synthetic datasets for end-to-end runs and guarantee checks.

Class prototypes are random unit directions; concept text embeddings cluster
around their class prototype, image embeddings are prototype plus isotropic
noise, and every class concept gets one detection per image whose confidence
is drawn high when the concept is "present" and low otherwise. Pixels are
small tensors with a colored rectangle per detection. Everything flows from
the single seed, so identical specs produce bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    Detection,
    make_pixels,
)

__all__ = ["SynthSpec", "generate_synthetic", "shift_distribution"]

# How far concept embeddings scatter around their class prototype; large
# enough that same-class concepts stay pairwise distinct, small enough that
# own-class similarity dominates competing classes.
_CONCEPT_SPREAD = 0.8

# Confidence ranges for detections of present vs absent concepts.
_PRESENT_CONF = (0.55, 0.95)
_ABSENT_CONF = (0.05, 0.50)

# Per-concept presence rates are drawn uniformly from this range.
_PRESENCE_RATE = (0.35, 0.90)


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 4
    concepts_per_class: int = 6
    samples_per_class: int = 50
    embedding_dim: int = 16
    noise: float = 0.1
    seed: int = 0
    image_size: int = 64
    with_pixels: bool = True

    def __post_init__(self) -> None:
        if min(self.classes, self.concepts_per_class, self.samples_per_class) < 1:
            raise ValueError("classes, concepts_per_class, samples_per_class must be positive")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be >= 2")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.image_size < 32:
            raise ValueError("image_size must be >= 32")  # box sampling needs headroom


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _concept_color(concept_id: int) -> np.ndarray:
    return np.array(
        [
            (concept_id * 37 % 255) / 255.0,
            (concept_id * 59 % 255) / 255.0,
            (concept_id * 83 % 255) / 255.0,
        ],
        dtype=np.float32,
    )


def generate_synthetic(
    spec: SynthSpec,
) -> tuple[list[AnnotatedSample], ConceptCatalog]:
    """Build a seeded synthetic dataset and its concept catalog."""
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.classes
    m = spec.concepts_per_class
    d = spec.embedding_dim

    prototypes = _unit_rows(rng.normal(size=(n_classes, d)))
    concepts: list[ConceptId] = []
    embeddings: list[np.ndarray] = []
    presence_rate: dict[ConceptId, float] = {}
    for label in range(n_classes):
        for j in range(m):
            vec = prototypes[label] + _CONCEPT_SPREAD * rng.normal(size=d)
            concept = ConceptId(
                id=label * m + j, text=f"trait {label}.{j}", class_of_origin=label
            )
            concepts.append(concept)
            embeddings.append(vec / np.linalg.norm(vec))
            presence_rate[concept] = float(rng.uniform(*_PRESENCE_RATE))
    catalog = ConceptCatalog(concepts, embeddings)

    size = spec.image_size
    samples: list[AnnotatedSample] = []
    for label in range(n_classes):
        for i in range(spec.samples_per_class):
            embedding = prototypes[label] + spec.noise * rng.normal(size=d)
            detections = []
            boxes = []
            for concept in catalog.concepts_for(label):
                present = rng.random() < presence_rate[concept]
                conf = float(rng.uniform(*(_PRESENT_CONF if present else _ABSENT_CONF)))
                w = int(rng.integers(8, size // 3))
                h = int(rng.integers(8, size // 3))
                x1 = int(rng.integers(0, size - w))
                y1 = int(rng.integers(0, size - h))
                box = BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))
                boxes.append((box, concept))
                detections.append(Detection(box=box, confidence=conf, concept=concept))
            pixels = None
            if spec.with_pixels:
                img = np.full((size, size, 3), 0.25, dtype=np.float32)
                for box, concept in boxes:
                    bx1, by1, bx2, by2 = (int(v) for v in (box.x1, box.y1, box.x2, box.y2))
                    img[by1:by2, bx1:bx2] = _concept_color(concept.id)
                pixels = make_pixels(img)
            samples.append(
                AnnotatedSample(
                    sample_id=f"c{label}-s{i}",
                    label=label,
                    image_embedding=embedding,
                    detections=tuple(detections),
                    image_pixels=pixels,
                )
            )
    return samples, catalog


def shift_distribution(
    samples: Sequence[AnnotatedSample], seed: int = 0
) -> list[AnnotatedSample]:
    """Adversarially shifted copies: flipped embeddings, inverted confidences.

    Useful as a non-exchangeable target pool when demonstrating that the
    calibration guarantee needs exchangeability.
    """
    rng = np.random.default_rng(seed)
    out = []
    for sample in samples:
        detections = tuple(
            Detection(
                box=det.box,
                confidence=float(np.clip(1.0 - det.confidence + 0.05 * rng.normal(), 0.0, 1.0)),
                concept=det.concept,
            )
            for det in sample.detections
        )
        out.append(
            AnnotatedSample(
                sample_id=f"{sample.sample_id}-shift",
                label=sample.label,
                image_embedding=-1.0 * np.asarray(sample.image_embedding),
                detections=detections,
                image_pixels=sample.image_pixels,
            )
        )
    return out
