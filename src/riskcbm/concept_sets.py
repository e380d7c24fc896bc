"""Threshold-parameterized concept sets and the three set-quality losses.

A concept enters the set for an image once one of its detections clears the
confidence threshold ``1 - lam``; the set only grows with ``lam``. The three
losses (discriminability, coverage, diversity) are all non-increasing in
``lam`` and bounded above by 1, which is what makes threshold calibration by
empirical risk sound.

The losses have one implementation, the nested-prefix kernel `prefix_losses`
(one ``*_prefix`` function per criterion), which scores every prefix of an
entry-ordered concept list at once; single-set losses are its last column.

All functions are pure over immutable inputs. Per-catalog geometry (normalized
concept matrix, per-class pair dissimilarities) is cached on first use, keyed
by catalog identity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AnnotatedSample,
    ConceptCatalog,
    ConceptId,
    DataError,
    NumericError,
    ZERO_NORM_TOL,
)

__all__ = [
    "CRITERIA",
    "PREFIX_LOSSES",
    "ConceptSet",
    "admission_threshold",
    "build_concept_set",
    "confidence_admits",
    "discriminability_prefix",
    "coverage_prefix",
    "diversity_prefix",
    "prefix_losses",
    "discriminability_loss",
    "coverage_loss",
    "diversity_loss",
    "loss_function",
    "set_size",
]

# The three set-quality criteria, in canonical order.
CRITERIA = ("dis", "cov", "div")

# Absorbs the one-ulp round-trip error of ``1 - (1 - t)`` so that a detection
# with confidence exactly at a threshold breakpoint is always admitted. Far
# above float noise (~2e-16), far below any meaningful confidence gap.
BOUNDARY_GUARD = 1e-12


def admission_threshold(lam):
    """Lowest confidence admitted at ``lam`` (scalar or array): ``1 - lam`` less the guard."""
    return (1.0 - lam) - BOUNDARY_GUARD


def confidence_admits(confidence: float, lam: float) -> bool:
    """Inclusive membership test: confidence >= 1 - lam, robust to float round-trip."""
    return confidence >= admission_threshold(lam)


@dataclass(frozen=True)
class ConceptSet:
    """A deduplicated set of concepts selected for one image.

    ``lambda_used`` records the threshold parameter that produced the set;
    it is None for sets built by other means (e.g. model-ranked sets).
    """

    members: frozenset[ConceptId]
    lambda_used: "float | None"

    def sorted_members(self) -> tuple[ConceptId, ...]:
        return tuple(sorted(self.members, key=lambda c: c.id))


def build_concept_set(sample: AnnotatedSample, lam: float) -> ConceptSet:
    """Concepts having at least one detection with confidence >= 1 - lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0,1], got {lam}")
    members = frozenset(
        det.concept for det in sample.detections if confidence_admits(det.confidence, lam)
    )
    return ConceptSet(members=members, lambda_used=float(lam))


def set_size(cset: ConceptSet) -> int:
    return len(cset.members)


class _CatalogCache:
    """Normalized concept geometry for one catalog, built once and reused."""

    def __init__(self, catalog: ConceptCatalog) -> None:
        concepts = catalog.all_concepts()  # sorted by id
        mat = np.stack([catalog.embedding_of(c) for c in concepts]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        if np.any(norms < ZERO_NORM_TOL):
            bad = concepts[int(np.argmin(norms))]
            raise NumericError(f"zero-norm embedding for concept {bad.id} ('{bad.text}')")
        self.concepts = concepts
        self.row_of = {c: i for i, c in enumerate(concepts)}
        self.unit = mat / norms[:, None]
        self.class_rows = {
            label: np.array(
                sorted(self.row_of[c] for c in catalog.concepts_for(label)), dtype=np.intp
            )
            for label in catalog.class_labels
        }
        # Pair-dissimilarity sum of each class's full pool, accumulated like a
        # diversity prefix so that the full pool in id order scores exactly 0.
        self.class_pair_sum = {
            label: float(_pair_sums(self._phi_block(rows, rows))[-1])
            for label, rows in self.class_rows.items()
            if len(rows) >= 2
        }

    def _phi_block(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        cos = np.clip(self.unit[rows_a] @ self.unit[rows_b].T, -1.0, 1.0)
        return (1.0 - cos) / 2.0

    def rows_of(self, concepts: Sequence[ConceptId]) -> np.ndarray:
        try:
            return np.array([self.row_of[c] for c in concepts], dtype=np.intp)
        except KeyError:
            missing = next(c for c in concepts if c not in self.row_of)
            raise DataError(
                f"concept {missing.id} ('{missing.text}') not in catalog"
            ) from None

    def unit_image(self, sample) -> np.ndarray:
        x = np.asarray(sample.image_embedding, dtype=np.float64)
        if x.shape[0] != self.unit.shape[1]:
            raise DataError(
                f"embedding dimension mismatch: sample has {x.shape[0]}, "
                f"catalog has {self.unit.shape[1]}"
            )
        norm = float(np.linalg.norm(x))
        if norm < ZERO_NORM_TOL:
            raise NumericError("cosine undefined for (near-)zero image embedding")
        return x / norm


_CACHES: "weakref.WeakKeyDictionary[ConceptCatalog, _CatalogCache]" = (
    weakref.WeakKeyDictionary()
)


def _cache_for(catalog: ConceptCatalog) -> _CatalogCache:
    cache = _CACHES.get(catalog)
    if cache is None:
        cache = _CatalogCache(catalog)
        _CACHES[catalog] = cache
    return cache


def discriminability_prefix(
    sample, catalog: ConceptCatalog, concepts: Sequence[ConceptId]
) -> np.ndarray:
    """Discriminability loss of each prefix ``concepts[:0..p]``: one minus the
    running selected similarity mass over the competing-class mass.

    The empty prefix scores 1. Losses may go negative when the selected mass
    exceeds the competing mass; the upper bound of 1 always holds.
    """
    if catalog.num_classes < 2:
        raise DataError("discriminability needs at least 2 classes")
    out = np.ones(len(concepts) + 1)
    if concepts:
        cache = _cache_for(catalog)
        sims = 1.0 + np.clip(cache.unit @ cache.unit_image(sample), -1.0, 1.0)
        own_rows = cache.class_rows[_checked_label(sample, catalog)]
        competing = float(np.sum(sims)) - float(np.sum(sims[own_rows]))
        if competing < ZERO_NORM_TOL:
            raise NumericError("degenerate competing-class similarity (denominator ~ 0)")
        out[1:] = 1.0 - np.cumsum(sims[cache.rows_of(concepts)]) / competing
    return out


def coverage_prefix(
    sample, catalog: ConceptCatalog, concepts: Sequence[ConceptId]
) -> np.ndarray:
    """Coverage loss of each prefix: the class pool's mean nearest-neighbor
    dissimilarity to it, a running minimum over dissimilarity columns.

    The empty prefix scores 1; a prefix holding the whole pool scores 0.
    """
    cache = _cache_for(catalog)
    cand_rows = cache.class_rows[_checked_label(sample, catalog)]
    out = np.ones(len(concepts) + 1)
    if concepts:
        phi = cache._phi_block(cand_rows, cache.rows_of(concepts))
        out[1:] = np.minimum.accumulate(phi, axis=1).mean(axis=0)
    return out


def diversity_prefix(
    sample, catalog: ConceptCatalog, concepts: Sequence[ConceptId]
) -> np.ndarray:
    """Diversity loss of each prefix: one minus its share of the class pool's
    total pairwise dissimilarity, from cumulative pair sums.

    Prefixes of fewer than two concepts score 1. A pool of fewer than two
    candidates is an error, even for the empty prefix.
    """
    cache = _cache_for(catalog)
    label = _checked_label(sample, catalog)
    if len(cache.class_rows[label]) < 2:
        raise DataError(f"diversity loss needs >= 2 candidate concepts for class {label}")
    denom = cache.class_pair_sum[label]
    if denom < ZERO_NORM_TOL:
        raise NumericError("degenerate candidate pool (all concepts pairwise identical)")
    out = np.ones(len(concepts) + 1)
    if len(concepts) >= 2:
        rows = cache.rows_of(concepts)
        out[2:] = 1.0 - _pair_sums(cache._phi_block(rows, rows))[1:] / denom
    return out


def _pair_sums(phi: np.ndarray) -> np.ndarray:
    """Pair sum of each leading block ``phi[:k, :k]``; column j of the strict
    upper triangle holds the pairs that concept j closes."""
    return np.cumsum(np.triu(phi, k=1).sum(axis=0))


def prefix_losses(
    sample, catalog: ConceptCatalog, concepts: Sequence[ConceptId]
) -> np.ndarray:
    """Losses of the nested sets ``concepts[:0..p]``, shape (3, p+1), rows in
    CRITERIA order: column k scores the set of the first k concepts."""
    return np.stack([PREFIX_LOSSES[k](sample, catalog, concepts) for k in CRITERIA])


def discriminability_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """Last column of `discriminability_prefix`, members in id order."""
    return float(discriminability_prefix(sample, catalog, cset.sorted_members())[-1])


def coverage_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """Last column of `coverage_prefix`, members in id order."""
    return float(coverage_prefix(sample, catalog, cset.sorted_members())[-1])


def diversity_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """Last column of `diversity_prefix`, members in id order."""
    return float(diversity_prefix(sample, catalog, cset.sorted_members())[-1])


# The prefix kernel and the single-set loss of each criterion.
PREFIX_LOSSES = dict(zip(CRITERIA, (discriminability_prefix, coverage_prefix, diversity_prefix)))
_LOSSES = dict(zip(CRITERIA, (discriminability_loss, coverage_loss, diversity_loss)))


def loss_function(criterion: str):
    """Look up a loss by its criterion key ('dis', 'cov', or 'div')."""
    try:
        return _LOSSES[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}") from None


def _checked_label(sample, catalog: ConceptCatalog) -> int:
    label = sample.label
    if not 0 <= label < catalog.num_classes:
        raise DataError(f"sample {sample.sample_id}: unknown class label {label}")
    return label
