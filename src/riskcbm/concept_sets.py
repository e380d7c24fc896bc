"""Threshold-parameterized concept sets and the three set-quality losses.

A concept enters the set for an image once one of its detections clears the
confidence threshold ``1 - lam``; the set only grows with ``lam``. The three
losses (discriminability, coverage, diversity) are all non-increasing in
``lam`` and bounded above by 1, which is what makes threshold calibration by
empirical risk sound.

The losses have one implementation, the nested-prefix kernel
`batch_prefix_losses`, which scores every prefix of many entry-ordered
concept lists at once. The single-set losses read its last column on a batch
of one; callers scoring many samples or prefixes use the kernel directly.

All functions are pure over immutable inputs. Per-catalog geometry (normalized
concept matrix, the table of pair dissimilarities, per-class pools and pair
sums) is cached on first use, keyed by catalog identity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    "ConceptSet",
    "admission_threshold",
    "build_concept_set",
    "confidence_admits",
    "batch_prefix_losses",
    "entry_prefix_losses",
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
    it is None for a set assembled from its members rather than by thresholding.
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
    """Normalized concept geometry for one catalog, built once and reused.

    ``phi`` holds the dissimilarity ``(1 - cos) / 2`` of every ordered
    concept pair: one C x C float64 table (C**2 * 8 bytes, 8 KB at 32
    concepts) that every coverage and diversity term is gathered from.
    ``pools`` holds each class's candidate rows in id order, padded with row
    0 to the largest class, ``pool_sizes`` their true counts and
    ``pool_padding`` the padded entries.
    """

    def __init__(self, catalog: ConceptCatalog) -> None:
        mat = catalog.embeddings  # the catalog checks every row is nonzero
        self.unit = mat / np.linalg.norm(mat, axis=1)[:, None]
        # A copy as the second operand keeps this a general matrix product;
        # numpy hands ``a @ a.T`` to a symmetric kernel that rounds differently.
        self.phi = (1.0 - np.clip(self.unit @ self.unit.copy().T, -1.0, 1.0)) / 2.0
        self.class_rows = {
            label: catalog.rows_of(catalog.concepts_for(label))
            for label in catalog.class_labels
        }
        pool_list = [self.class_rows[label] for label in catalog.class_labels]
        self.pool_sizes = np.array([len(rows) for rows in pool_list], dtype=np.intp)
        self.pools = np.zeros((len(pool_list), int(self.pool_sizes.max())), dtype=np.intp)
        self.pool_padding = ~_leading(self.pool_sizes, self.pools.shape[1])
        self.pools[~self.pool_padding] = np.concatenate(pool_list)
        # Pair-dissimilarity sum of each class's full pool, accumulated like a
        # diversity prefix so that the full pool in id order scores exactly 0.
        self.class_pair_sum = {
            label: float(_pair_sums(self.phi[np.ix_(rows, rows)])[-1])
            for label, rows in self.class_rows.items()
            if len(rows) >= 2
        }


_CACHES: "weakref.WeakKeyDictionary[ConceptCatalog, _CatalogCache]" = (
    weakref.WeakKeyDictionary()
)


def _cache_for(catalog: ConceptCatalog) -> _CatalogCache:
    cache = _CACHES.get(catalog)
    if cache is None:
        cache = _CatalogCache(catalog)
        _CACHES[catalog] = cache
    return cache


def _leading(lengths: np.ndarray, width: int) -> np.ndarray:
    """(len(lengths), width) mask of each row's first ``lengths[i]`` columns."""
    return np.arange(width) < lengths[:, None]


def _pair_sums(phi: np.ndarray) -> np.ndarray:
    """Pair sum of each leading block ``phi[..., :k, :k]``; column j of the
    strict upper triangle holds the pairs that concept j closes."""
    return np.cumsum(np.triu(phi, k=1).sum(axis=-2), axis=-1)


class _Batch(NamedTuple):
    """Samples with checked labels, and their concept lists as catalog rows
    padded with row 0 to the longest list."""

    samples: list
    labels: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray


def _dis_batch(cache: _CatalogCache, catalog: ConceptCatalog, batch: _Batch) -> np.ndarray:
    if catalog.num_classes < 2:
        raise DataError("discriminability needs at least 2 classes")
    n, width = batch.rows.shape
    selected = np.zeros((n, width))
    competing = np.ones(n)
    # A sample with an empty list is never embedded. The others are scored
    # in stacked products, which round each sample as its own norm and gemv
    # do; a batched matrix product would not. The first faulty sample's
    # error is raised, as if each sample were checked in turn.
    scored = batch.lengths.nonzero()[0]
    images = [batch.samples[i].image_embedding for i in scored.tolist()]
    dim = cache.unit.shape[1]
    bad_dim = next((j for j, x in enumerate(images) if x.shape[0] != dim), len(images))
    x = np.array(images[:bad_dim], dtype=np.float64).reshape(bad_dim, dim)
    norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    small = norms < ZERO_NORM_TOL
    zero = int(small.argmax()) if small.any() else bad_dim
    unit_images = x[:zero] / norms[:zero, None]
    sims = 1.0 + np.clip((cache.unit[None] @ unit_images[:, :, None])[..., 0], -1.0, 1.0)
    # The own-class sums stay per sample: summed over a gathered block, the
    # rows would round differently from these 1-D sums.
    own = [
        row[cache.class_rows[label]].sum()
        for row, label in zip(sims, batch.labels[scored[:zero]].tolist())
    ]
    mass = sims.sum(axis=1) - np.array(own, dtype=np.float64)
    if (mass < ZERO_NORM_TOL).any():
        raise NumericError("degenerate competing-class similarity (denominator ~ 0)")
    if zero < bad_dim:
        raise NumericError("cosine undefined for (near-)zero image embedding")
    if bad_dim < len(images):
        raise DataError(
            f"embedding dimension mismatch: sample has {images[bad_dim].shape[0]}, "
            f"catalog has {dim}"
        )
    competing[scored] = mass
    selected[scored] = sims[np.arange(len(scored))[:, None], batch.rows[scored]]
    out = np.ones((n, width + 1))
    out[:, 1:] = 1.0 - np.cumsum(selected, axis=1) / competing[:, None]
    return out


def _cov_batch(cache: _CatalogCache, catalog: ConceptCatalog, batch: _Batch) -> np.ndarray:
    pools = cache.pools[batch.labels]
    sizes = cache.pool_sizes[batch.labels]
    nearest = np.minimum.accumulate(
        cache.phi[pools[:, :, None], batch.rows[:, None, :]], axis=2
    )
    nearest[cache.pool_padding[batch.labels]] = 0.0
    # Pool rows are added one after another, as an accumulation does and as
    # ``mean(axis=0)`` sums one sample's (pool, prefix) block; padding rows
    # add zeros.
    total = np.cumsum(nearest, axis=1)[:, -1]
    out = np.ones((len(pools), batch.rows.shape[1] + 1))
    out[:, 1:] = total / sizes[:, None]
    return out


def _div_batch(cache: _CatalogCache, catalog: ConceptCatalog, batch: _Batch) -> np.ndarray:
    for label in dict.fromkeys(batch.labels.tolist()):
        if cache.pool_sizes[label] < 2:
            raise DataError(f"diversity loss needs >= 2 candidate concepts for class {label}")
        if cache.class_pair_sum[label] < ZERO_NORM_TOL:
            raise NumericError("degenerate candidate pool (all concepts pairwise identical)")
    n, width = batch.rows.shape
    out = np.ones((n, width + 1))
    if width >= 2:
        denom = np.array([cache.class_pair_sum[label] for label in batch.labels.tolist()])
        rows = batch.rows
        pair_sums = _pair_sums(cache.phi[rows[:, :, None], rows[:, None, :]])
        out[:, 2:] = 1.0 - pair_sums[:, 1:] / denom[:, None]
    return out


_BATCH_KERNELS = dict(zip(CRITERIA, (_dis_batch, _cov_batch, _div_batch)))


def batch_prefix_losses(
    samples: Sequence,
    catalog: ConceptCatalog,
    concept_lists: Sequence[Sequence[ConceptId]],
    criteria: Sequence[str] = CRITERIA,
) -> np.ndarray:
    """Prefix losses of many (sample, entry-ordered concept list) pairs.

    Returns shape (len(criteria), n, P+1), P the longest list: entry
    [c, i, k] scores the first k concepts of list i under ``criteria[c]``,
    and columns past a list's end repeat its last column. The lists are
    padded to the longest one, so the cumulative similarity sums, running
    minima, coverage means and pair sums are each one array operation; a
    pair's row is the same, bit for bit, whatever batch it is scored in.
    """
    samples = list(samples)
    concept_lists = list(concept_lists)
    if len(concept_lists) != len(samples):
        raise ValueError(
            f"{len(samples)} samples but {len(concept_lists)} concept lists"
        )
    cache = _cache_for(catalog)
    lengths = np.array([len(c) for c in concept_lists], dtype=np.intp)
    rows = catalog.rows_of([c for concepts in concept_lists for c in concepts])
    return _prefix_losses(cache, catalog, samples, rows, lengths, criteria)


def entry_prefix_losses(
    samples: Sequence, catalog: ConceptCatalog, criteria: Sequence[str] = CRITERIA
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix losses of each sample's detected concepts in the order they
    enter its set as ``lam`` grows: by decreasing best confidence, ties by
    concept id.

    Returns ``(neg_confidences, losses)``: (n, P) each entry's best
    confidence negated, padded with +inf, and the `batch_prefix_losses`
    output over the entry-ordered lists.
    """
    samples = list(samples)
    cache = _cache_for(catalog)
    detections = [det for sample in samples for det in sample.detections]
    owners = np.repeat(np.arange(len(samples)), [len(s.detections) for s in samples])
    # Best confidence per (sample, catalog row). A concept enters once some
    # detection's confidence exceeds -1; a NaN confidence never does.
    best = np.full((len(samples), len(cache.unit)), -1.0)
    np.fmax.at(
        best,
        (owners, catalog.rows_of([det.concept for det in detections])),
        np.array([det.confidence for det in detections], dtype=np.float64),
    )
    owners, rows = np.nonzero(best > -1.0)
    confidences = best[owners, rows]
    order = np.lexsort((rows, -confidences, owners))
    lengths = np.bincount(owners, minlength=len(samples))
    losses = _prefix_losses(cache, catalog, samples, rows[order], lengths, criteria)
    neg_confidences = np.full((len(samples), losses.shape[2] - 1), np.inf)
    neg_confidences[_leading(lengths, neg_confidences.shape[1])] = -confidences[order]
    return neg_confidences, losses


def _prefix_losses(
    cache: _CatalogCache,
    catalog: ConceptCatalog,
    samples: list,
    rows: np.ndarray,
    lengths: np.ndarray,
    criteria: Sequence[str],
) -> np.ndarray:
    """`batch_prefix_losses` of lists given as their catalog ``rows``,
    concatenated, and their ``lengths``: one batch of every pair, each
    criterion's kernel run once."""
    width = int(lengths.max(initial=0))
    padded = np.zeros((len(samples), width), dtype=np.intp)
    padded[_leading(lengths, width)] = rows
    batch = _Batch(
        samples=samples,
        labels=np.array([_checked_label(s, catalog) for s in samples], dtype=np.intp),
        rows=padded,
        lengths=lengths,
    )
    losses = np.stack([_BATCH_KERNELS[k](cache, catalog, batch) for k in criteria])
    # A column past a list's end reads the list's last column.
    cols = np.minimum(np.arange(width + 1), lengths[:, None])
    return losses[:, np.arange(len(samples))[:, None], cols]


def _last_column(criterion: str, cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """The kernel's score of the whole set, members in id order."""
    members = cset.sorted_members()
    return float(batch_prefix_losses([sample], catalog, [members], (criterion,))[0, 0, -1])


def discriminability_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """One minus the set's similarity mass to the image over the
    competing-class mass.

    The empty set scores 1. The loss may go negative when the selected mass
    exceeds the competing mass; the upper bound of 1 always holds.
    """
    return _last_column("dis", cset, sample, catalog)


def coverage_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """The class pool's mean nearest-neighbor dissimilarity to the set.

    The empty set scores 1; a set holding the whole pool scores 0.
    """
    return _last_column("cov", cset, sample, catalog)


def diversity_loss(cset: ConceptSet, sample, catalog: ConceptCatalog) -> float:
    """One minus the set's share of the class pool's total pairwise
    dissimilarity.

    Sets of fewer than two concepts score 1. A pool of fewer than two
    candidates is an error, even for the empty set.
    """
    return _last_column("div", cset, sample, catalog)


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
