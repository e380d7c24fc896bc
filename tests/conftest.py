"""Shared fixtures: hand-built exact-arithmetic catalogs and randomized instances."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `oracles`

import riskcbm
from riskcbm.concept_sets import batch_prefix_losses
from riskcbm.core import (
    AnnotatedSample,
    BoundingBox,
    ConceptCatalog,
    ConceptId,
    Detection,
)

BOX = BoundingBox(1.0, 1.0, 5.0, 5.0)


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process, which imports the same
    riskcbm as this one, installed or not; ``env`` adds to its environment."""
    package_root = str(Path(riskcbm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, **env, "PYTHONPATH": path},
    )


def make_catalog(class_embeddings: dict[int, list], start_id: int = 0) -> ConceptCatalog:
    """Catalog from {label: [embedding, ...]}; ids assigned in listing order."""
    concepts, embeddings = [], []
    for label in sorted(class_embeddings):
        for vec in class_embeddings[label]:
            next_id = start_id + len(concepts)
            concepts.append(ConceptId(id=next_id, text=f"t{next_id}", class_of_origin=label))
            embeddings.append(vec)
    return ConceptCatalog(concepts, embeddings)


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


def assert_profiles_match(profiles, samples, catalog, grids):
    """`LossProfiles` built from ``samples`` hold the prefix kernel's output
    as it is, with each entry's confidence negated and padded with +inf, and
    look up every grid exactly as the per-sample `oracles.profile_matrix`
    does on the run-merged profiles of `oracles.loss_profiles`."""
    import oracles

    entries = [oracles.entry_order(sample) for sample in samples]
    kernel = batch_prefix_losses(
        samples, catalog, [[c for c, _ in e] for e in entries], profiles.criteria
    )
    assert np.array_equal(profiles.values, kernel)
    assert profiles.neg_confidences.shape == (len(samples), kernel.shape[2] - 1)
    for i, e in enumerate(entries):
        m = len(e)
        assert np.array_equal(profiles.neg_confidences[i, :m], [-conf for _, conf in e]), i
        assert np.all(profiles.neg_confidences[i, m:] == np.inf), i
    assert_grid_lookups_match(
        profiles, *oracles.loss_profiles(samples, catalog, profiles.criteria), grids
    )


def assert_grid_lookups_match(profiles, neg_confidences, values, grids):
    """`matrix_on_grid` equals `oracles.profile_matrix` on every grid."""
    import oracles

    for grid in grids:
        for j, k in enumerate(profiles.criteria):
            expected = oracles.profile_matrix(neg_confidences, values, j, grid)
            assert np.array_equal(profiles.matrix_on_grid(k, grid), expected), (k, len(grid))


PATHS = {"train": "a", "test": "b", "catalog": "c", "output_dir": "d"}

# One misspelt key per place a config file can hold one, and one removed key.
BAD_KEYS = {
    "top-level": ({"evaluation": {"nec": 4}}, "evaluation"),
    "paths": ({"paths": dict(PATHS, outdir="e")}, "outdir"),
    "budget": ({"budget": {"alpha_dys": 0.99}}, "alpha_dys"),
    "split": ({"split": {"fraction": 0.5}}, "fraction"),
    "calibration": ({"calibration": {"exact_mode": True}}, "exact_mode"),
    "eval": ({"eval": {"nec_max": 4}}, "nec_max"),
    "train": ({"train": {"epoch": 5}}, "epoch"),
    "train-removed": ({"train": {"l1_proximal": True}}, "l1_proximal"),
    "augmentation": ({"augmentation": {"min_counts": 3}}, "min_counts"),
}

# A config value of the wrong type or out of range, and a config that lacks a
# required path: each with the start of the error it must raise.
BAD_VALUES = {
    "nec-null": ({"eval": {"nec": None}}, "nec in config section 'eval' must be int"),
    "epochs-string": ({"train": {"epochs": "5"}}, "epochs in config section 'train' must be int"),
    "resolution-zero": ({"calibration": {"resolution": 0}}, "resolution must be in (0, 0.5], got 0"),
    "learning-rate-nan": (
        {"train": {"learning_rate": float("nan")}}, "learning_rate must be finite and >= 0, got nan"
    ),
    "learning-rate-inf": (
        {"train": {"learning_rate": float("inf")}}, "learning_rate must be finite and >= 0, got inf"
    ),
    "gamma1-nan": ({"train": {"gamma1": float("nan")}}, "gamma1 must be finite and >= 0, got nan"),
    "gamma2-inf": ({"train": {"gamma2": float("inf")}}, "gamma2 must be finite and >= 0, got inf"),
    "split-seed-negative": ({"split": {"seed": -1}}, "split_seed must be >= 0, got -1"),
    "train-seed-negative": ({"train": {"rng_seed": -1}}, "rng_seed must be >= 0, got -1"),
    "augmentation-seed-negative": (
        {"augmentation": {"rng_seed": -1}}, "rng_seed must be >= 0, got -1"
    ),
    "missing-path": (
        {"paths": {k: v for k, v in PATHS.items() if k != "test"}},
        "missing required path: test",
    ),
}
