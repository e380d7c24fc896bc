"""Shared domain types for the concept-annotation and training pipeline.

Every container here is immutable after construction: numpy payloads are
frozen read-only and collections are stored as tuples. That makes all types
safe to share across concurrent readers and lets downstream modules cache
derived quantities keyed on object identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ZERO_NORM_TOL",
    "ClassLabel",
    "DataError",
    "NumericError",
    "ConceptId",
    "BoundingBox",
    "Detection",
    "AnnotatedSample",
    "ConceptCatalog",
    "make_embedding",
    "make_pixels",
    "sample_id_problems",
    "validate_dataset",
]

# Class labels are plain integers in [0, num_classes).
ClassLabel = int

# Below this L2 norm a vector has no usable direction and cosine is undefined.
ZERO_NORM_TOL = 1e-12


class DataError(Exception):
    """Malformed, inconsistent, or missing input data."""


class NumericError(Exception):
    """A computation hit a degenerate or diverging numeric regime."""


def _frozen(values, dtype) -> np.ndarray:
    """``values`` itself when it is a read-only ndarray of ``dtype`` that owns
    its data, such as the array of an existing sample; a read-only copy of
    anything else, so no caller's buffer is shared."""
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and not values.flags.writeable
        and values.flags.owndata
    ):
        return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def make_embedding(values: "Iterable[float] | np.ndarray") -> np.ndarray:
    """Coerce to a read-only 1-D float64 vector.

    Ingested embeddings are stored exactly as provided (no renormalization);
    cosine-based operations normalize at call time.
    """
    arr = _frozen(values, np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError(f"embedding must be a nonempty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("embedding contains non-finite entries")
    return arr


def make_pixels(values) -> np.ndarray:
    """Coerce to a read-only HxWx3 float32 image tensor (values expected in [0,1])."""
    arr = _frozen(values, np.float32)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"pixels must have shape HxWx3, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConceptId:
    """A candidate concept: integer handle, display text, and the class it was proposed for."""

    id: int
    text: str
    class_of_origin: ClassLabel

    def __post_init__(self) -> None:
        if not self.text:
            raise DataError(f"concept {self.id} has empty text")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, corners (x1,y1) top-left and (x2,y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def overlaps(self, other: "BoundingBox") -> bool:
        """True iff the intersection has strictly positive area (touching edges do not count)."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )


@dataclass(frozen=True)
class Detection:
    """One detector hit: a box, its confidence, and the concept it localizes."""

    box: BoundingBox
    confidence: float
    concept: ConceptId


@dataclass(eq=False)
class AnnotatedSample:
    """Image record: embedding, class label, candidate detections, optional pixels.

    ``image_pixels`` is only required by the augmentation stage; samples used
    purely for calibration or evaluation may omit it.
    """

    sample_id: str
    label: ClassLabel
    image_embedding: np.ndarray
    detections: Sequence[Detection] = ()
    image_pixels: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        self.image_embedding = make_embedding(self.image_embedding)
        self.detections = tuple(self.detections)
        if self.image_pixels is not None:
            self.image_pixels = make_pixels(self.image_pixels)


@dataclass(eq=False)
class ConceptCatalog:
    """The candidate concepts and their text embeddings, as one table.

    ``concepts`` lists each concept once, in increasing id order, and row i
    of ``embeddings``, a read-only (C, d) float64 matrix, is the embedding of
    ``concepts[i]``. A concept's class is its ``class_of_origin``; the
    classes are contiguous from 0. Every embedding is finite, nonzero and of
    one dimension. ``embeddings`` may be given as a matrix or as one vector
    per concept.
    """

    concepts: Sequence[ConceptId]
    embeddings: "np.ndarray | Sequence[Iterable[float]]"

    def __post_init__(self) -> None:
        self.concepts = tuple(self.concepts)
        if not self.concepts:
            raise DataError("catalog has no concepts")
        if len(self.embeddings) != len(self.concepts):
            raise DataError(f"{len(self.concepts)} concepts but {len(self.embeddings)} embeddings")
        by_class: dict[int, list[ConceptId]] = {}
        rows = []
        for i, (c, row) in enumerate(zip(self.concepts, self.embeddings)):
            if i and c.id <= self.concepts[i - 1].id:
                raise DataError(
                    f"concept ids must be unique and increasing, got {c.id} after "
                    f"{self.concepts[i - 1].id}"
                )
            tag = f"concept {c.id} ('{c.text}')"
            try:
                vec = make_embedding(row)
            except (DataError, ValueError, TypeError) as exc:
                raise DataError(f"{tag}: {exc}") from None
            if rows and vec.shape != rows[0].shape:
                raise DataError(
                    f"{tag}: embedding dimension {vec.shape[0]} != {rows[0].shape[0]}"
                )
            if float(np.linalg.norm(vec)) < ZERO_NORM_TOL:
                raise DataError(f"{tag}: zero embedding")
            rows.append(vec)
            by_class.setdefault(c.class_of_origin, []).append(c)
        labels = sorted(by_class)
        if labels != list(range(len(labels))):
            raise DataError(f"class labels must be contiguous from 0, got {labels}")
        self.embeddings = np.stack(rows)
        self.embeddings.setflags(write=False)
        self._by_class = tuple(tuple(by_class[label]) for label in labels)
        self._row_of = {c: i for i, c in enumerate(self.concepts)}

    @property
    def num_classes(self) -> int:
        return len(self._by_class)

    @property
    def class_labels(self) -> range:
        return range(self.num_classes)

    @property
    def embedding_dim(self) -> int:
        return int(self.embeddings.shape[1])

    def concepts_for(self, label: ClassLabel) -> tuple[ConceptId, ...]:
        """The class's concepts, in id order."""
        if label not in self.class_labels:
            raise DataError(f"unknown class label {label}")
        return self._by_class[label]

    def rows_of(self, concepts: Sequence[ConceptId]) -> np.ndarray:
        """The rows of ``embeddings`` that hold the concepts' embeddings."""
        try:
            return np.array([self._row_of[c] for c in concepts], dtype=np.intp)
        except KeyError:
            missing = next(c for c in concepts if c not in self._row_of)
            raise DataError(
                f"concept {missing.id} ('{missing.text}') not in catalog"
            ) from None

    def embedding_of(self, concept: ConceptId) -> np.ndarray:
        return self.embeddings[self.rows_of([concept])[0]]

    def has_concept(self, concept: ConceptId) -> bool:
        return concept in self._row_of

    def all_concepts(self) -> tuple[ConceptId, ...]:
        return self.concepts


# Characters that make a sample id more than a plain file name.
_PATH_CHARS = frozenset("/\\\0")


def sample_id_problems(sample_ids: Iterable[str]) -> list[str]:
    """Report each id that repeats an earlier one or is not a plain file
    name: empty, ``.``, ``..``, or holding ``/``, ``\\`` or NUL. A sample's
    pixel tensor is written to a file named by its id, so such an id would
    overwrite another sample's file or escape the output directory."""
    problems: list[str] = []
    seen: set[str] = set()
    for sample_id in sample_ids:
        if sample_id in ("", ".", "..") or not _PATH_CHARS.isdisjoint(sample_id):
            problems.append(f"sample {sample_id!r}: id is not a plain file name")
        elif sample_id in seen:
            problems.append(f"sample {sample_id!r}: repeated id")
        seen.add(sample_id)
    return problems


def validate_dataset(
    samples: Sequence[AnnotatedSample], catalog: ConceptCatalog
) -> list[str]:
    """Report structural violations; an empty list means the dataset is valid.

    Pure reporting: nothing raises, nothing is mutated, and repeated calls
    return the same list.
    """
    problems: list[str] = []
    dim = catalog.embedding_dim

    problems += sample_id_problems(sample.sample_id for sample in samples)

    for sample in samples:
        tag = f"sample {sample.sample_id}"
        known_class = 0 <= sample.label < catalog.num_classes
        if not known_class:
            problems.append(f"{tag}: unknown class label {sample.label}")

        if sample.image_embedding.shape[0] != dim:
            problems.append(
                f"{tag}: embedding dimension mismatch "
                f"({sample.image_embedding.shape[0]} != {dim})"
            )
        elif float(np.linalg.norm(sample.image_embedding)) < ZERO_NORM_TOL:
            problems.append(f"{tag}: zero embedding")

        height = width = None
        if sample.image_pixels is not None:
            height, width = sample.image_pixels.shape[:2]
            if not np.all(np.isfinite(sample.image_pixels)):
                problems.append(f"{tag}: non-finite pixels")
            else:
                lo = float(sample.image_pixels.min())
                hi = float(sample.image_pixels.max())
                if lo < 0.0 or hi > 1.0:
                    problems.append(f"{tag}: pixels outside [0,1] (range [{lo}, {hi}])")

        for i, det in enumerate(sample.detections):
            dtag = f"{tag}: detection {i} ('{det.concept.text}')"
            if not 0.0 <= det.confidence <= 1.0:
                problems.append(f"{dtag}: confidence out of [0,1] ({det.confidence})")
            box = det.box
            if not all(map(math.isfinite, (box.x1, box.y1, box.x2, box.y2))):
                problems.append(f"{dtag}: non-finite box coordinate {box}")
            elif box.x2 <= box.x1 or box.y2 <= box.y1:
                problems.append(f"{dtag}: degenerate box {box}")
            elif box.x1 < 0 or box.y1 < 0 or (
                width is not None and (box.x2 > width or box.y2 > height)
            ):
                problems.append(f"{dtag}: box outside image bounds {box}")
            if not catalog.has_concept(det.concept):
                problems.append(f"{dtag}: unknown concept id {det.concept.id}")
            elif known_class and det.concept.class_of_origin != sample.label:
                problems.append(
                    f"{dtag}: concept not in class {sample.label} candidate set"
                )

    return problems
