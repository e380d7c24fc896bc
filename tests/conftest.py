"""Shared fixtures: hand-built exact-arithmetic catalogs and randomized instances."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `oracles`

from riskcbm.core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    Detection,
)

BOX = BoundingBox(1.0, 1.0, 5.0, 5.0)


def make_catalog(class_embeddings: dict[int, list], start_id: int = 0) -> ConceptCatalog:
    """Catalog from {label: [embedding, ...]}; ids assigned in listing order."""
    per_class: dict[int, list[ConceptId]] = {}
    embeddings = {}
    next_id = start_id
    for label in sorted(class_embeddings):
        concepts = []
        for vec in class_embeddings[label]:
            concept = ConceptId(id=next_id, text=f"t{next_id}", class_of_origin=label)
            concepts.append(concept)
            embeddings[concept] = np.asarray(vec, dtype=np.float64)
            next_id += 1
        per_class[label] = concepts
    return ConceptCatalog(per_class=per_class, text_embeddings=embeddings)


def make_sample(sample_id, label, embedding, conf_by_concept, pixels=None):
    """Sample with one detection per (concept, confidence) pair at a fixed box."""
    detections = tuple(
        Detection(box=BOX, confidence=float(conf), concept=concept)
        for concept, conf in conf_by_concept
    )
    return AnnotatedSample(
        sample_id=sample_id,
        label=label,
        image_embedding=embedding,
        detections=detections,
        image_pixels=pixels,
    )


@pytest.fixture
def axis_catalog():
    """Two classes with axis-aligned concept embeddings for exact arithmetic.

    Class 0: t0=(1,0,0), t1=(0,1,0).  Class 1: t2=(-1,0,0), t3=(0,-1,0),
    t4=(0,0,1), t5=(0,0,-1).  For an image at (1,0,0) the competing-class
    similarity mass is 0 + 1 + 1 + 1 = 3 and the own-class sims are (2, 1).
    """
    return make_catalog(
        {
            0: [[1, 0, 0], [0, 1, 0]],
            1: [[-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        }
    )


def random_instance(rng: np.random.Generator, n_classes=3, per_class=4, d=6):
    """Random catalog plus one random sample of class 0 with one detection per concept."""
    catalog = make_catalog(
        {
            label: [rng.normal(size=d) for _ in range(per_class)]
            for label in range(n_classes)
        }
    )
    confs = [
        (c, float(rng.uniform(0.02, 0.98))) for c in catalog.concepts_for(0)
    ]
    sample = make_sample("r0", 0, rng.normal(size=d), confs)
    return sample, catalog


def assert_profiles_match(profiles, neg_confidences, values, grids):
    """Padded `LossProfiles` hold the per-sample profiles of
    `oracles.loss_profiles` exactly, and look up every grid exactly as the
    per-sample `oracles.profile_matrix` does."""
    import oracles

    for i, (neg, vals) in enumerate(zip(neg_confidences, values)):
        m = len(neg)
        assert np.array_equal(profiles.neg_confidences[i, :m], neg), i
        assert np.all(profiles.neg_confidences[i, m:] == np.inf), i
        assert np.array_equal(profiles.values[:, i, : m + 1], vals), i
        assert np.all(profiles.values[:, i, m:] == vals[:, -1:]), i
    for grid in grids:
        for j, k in enumerate(profiles.criteria):
            expected = oracles.profile_matrix(neg_confidences, values, j, grid)
            assert np.array_equal(profiles.matrix_on_grid(k, grid), expected), (k, len(grid))
