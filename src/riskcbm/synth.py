"""Seeded synthetic datasets for end-to-end runs and guarantee checks.

Class prototypes are random unit directions; concept text embeddings cluster
around their class prototype, image embeddings are prototype plus isotropic
noise, and every class concept gets one detection per image whose confidence
is drawn high when the concept is "present" and low otherwise. Pixels are
small tensors with a colored rectangle per detection. Everything flows from
the single seed, so identical specs produce bit-identical datasets.

The random stream is fixed: `tests/data/digests.json`,
`tests/data/crc_seed3.json` and `tests/data/crc_shifted_seed3.json` pin the
bytes it yields, so a change to how samples are drawn must leave every draw
as it was. Per sample the stream
holds the embedding noise, one ``Generator.normal`` call, and then per
detection four words of the PCG64 bit generator: the presence double, the
confidence double, a word whose 32-bit halves, low half first, draw the box
width and height, and one whose halves draw its corner. Samples are drawn as
exactly that: a normal call and one ``random_raw`` block of four words per
detection, decoded for a whole class at once with numpy's own formulas (a
double is the top 53 bits of a word; an integer in ``[0, n)`` is Lemire's
multiply-shift of a 32-bit half). Lemire's method turns down a half, and
draws another, with a probability below 1e-8 at these ranges, and a range of
2**32 values or more is drawn from a whole word. Where either happens in any
class, the words of that class and of every later one no longer line up, so
the stream is restored to where the samples begin and every class is drawn
again one ``Generator`` call at a time.
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

_LOW32 = np.uint64(0xFFFFFFFF)


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
    presence_rate = np.empty((n_classes, m))
    for label in range(n_classes):
        for j in range(m):
            vec = prototypes[label] + _CONCEPT_SPREAD * rng.normal(size=d)
            concept = ConceptId(
                id=label * m + j, text=f"trait {label}.{j}", class_of_origin=label
            )
            concepts.append(concept)
            embeddings.append(vec / np.linalg.norm(vec))
            presence_rate[label, j] = rng.uniform(*_PRESENCE_RATE)
    catalog = ConceptCatalog(concepts, embeddings)

    state = rng.bit_generator.state
    draws = []
    for rates in presence_rate:
        decoded = _decoded_draws(rng, spec, rates)
        if decoded is None:
            # A rejected draw takes one more 32-bit half, and an odd count
            # leaves a half buffered for the next class's first box draw,
            # so from here on no later class's words line up either.
            rng.bit_generator.state = state
            draws = [_per_draw_draws(rng, spec, r) for r in presence_rate]
            break
        draws.append(decoded)
    samples: list[AnnotatedSample] = []
    for label, class_draws in enumerate(draws):
        samples += _class_samples(
            spec, label, prototypes[label], catalog.concepts_for(label), *class_draws
        )
    return samples, catalog


def _doubles(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw word: its top 53 bits, scaled."""
    return (words >> np.uint64(11)) * 2.0**-53


def _bounded(u32: np.ndarray, n) -> np.ndarray:
    """``Generator.integers(0, n)`` of each 32-bit word: Lemire's multiply-shift."""
    return (u32 * n) >> np.uint64(32)


def _rejects(u32, n) -> np.ndarray:
    """Where Lemire's draw of ``[0, n)`` turns down the 32-bit word ``u32``
    and takes another: its low product half falls below ``2**32 mod n``."""
    u32, n = np.asarray(u32, np.uint64), np.asarray(n, np.uint64)
    return (u32 * n) & _LOW32 < (np.uint64(2**32) - n) % n


def _decoded_draws(rng: np.random.Generator, spec: SynthSpec, rates: np.ndarray):
    """One class's noise, confidences and boxes, decoded from one raw-word
    block per sample; None where numpy's own draws would have consumed the
    words differently: a box range of 2**32 values or more, or a rejected
    Lemire draw. ``rng`` has then advanced, and every class must be drawn
    again per draw from the state before the first."""
    size = spec.image_size
    if size >= 2**32:
        return None
    n, m = spec.samples_per_class, len(rates)
    normal, raw = rng.normal, rng.bit_generator.random_raw
    noise = np.empty((n, spec.embedding_dim))
    block = np.empty((n, 4 * m), np.uint64)
    for i in range(n):
        noise[i] = normal(size=spec.embedding_dim)
        block[i] = raw(4 * m)
    # Per detection: presence double, confidence double, the w/h word and
    # the x1/y1 word, each 32-bit half drawn low half first.
    block = block.reshape(n, m, 4)
    present = _doubles(block[..., 0]) < rates
    lo = np.where(present, _PRESENT_CONF[0], _ABSENT_CONF[0])
    hi = np.where(present, _PRESENT_CONF[1], _ABSENT_CONF[1])
    conf = lo + (hi - lo) * _doubles(block[..., 1])
    halves = np.stack(
        [block[..., 2] & _LOW32, block[..., 2] >> np.uint64(32),
         block[..., 3] & _LOW32, block[..., 3] >> np.uint64(32)],
        axis=-1,
    )
    ranges = np.empty_like(halves)
    ranges[..., :2] = size // 3 - 8
    w = 8 + _bounded(halves[..., 0], ranges[..., 0])
    h = 8 + _bounded(halves[..., 1], ranges[..., 1])
    ranges[..., 2] = size - w
    ranges[..., 3] = size - h
    if _rejects(halves, ranges).any():
        return None
    x1 = _bounded(halves[..., 2], ranges[..., 2])
    y1 = _bounded(halves[..., 3], ranges[..., 3])
    corners = np.stack([x1, y1, x1 + w, y1 + h], axis=-1).astype(np.float64)
    return noise, conf, corners


def _per_draw_draws(rng: np.random.Generator, spec: SynthSpec, rates: np.ndarray):
    """What `_decoded_draws` returns, drawn one ``Generator`` call at a time."""
    n, m, size = spec.samples_per_class, len(rates), spec.image_size
    noise = np.empty((n, spec.embedding_dim))
    conf = np.empty((n, m))
    corners = np.empty((n, m, 4))
    for i in range(n):
        noise[i] = rng.normal(size=spec.embedding_dim)
        for j, rate in enumerate(rates):
            present = rng.random() < rate
            conf[i, j] = rng.uniform(*(_PRESENT_CONF if present else _ABSENT_CONF))
            w = int(rng.integers(8, size // 3))
            h = int(rng.integers(8, size // 3))
            x1 = int(rng.integers(0, size - w))
            y1 = int(rng.integers(0, size - h))
            corners[i, j] = (x1, y1, x1 + w, y1 + h)
    return noise, conf, corners


def _class_samples(
    spec: SynthSpec,
    label: int,
    prototype: np.ndarray,
    concepts: Sequence[ConceptId],
    noise: np.ndarray,
    conf: np.ndarray,
    corners: np.ndarray,
) -> list[AnnotatedSample]:
    """The samples of one class from its draws: sample i embeds at
    ``prototype + spec.noise * noise[i]`` and holds one detection per
    concept, with confidence ``conf[i, j]`` and box ``corners[i, j]``."""
    size = spec.image_size
    embeddings = prototype + spec.noise * noise
    colors = [_concept_color(c.id) for c in concepts] if spec.with_pixels else []
    samples = []
    for i, (confs, boxes) in enumerate(zip(conf.tolist(), corners.tolist())):
        pixels = None
        if spec.with_pixels:
            pixels = np.full((size, size, 3), 0.25, dtype=np.float32)
            for (x1, y1, x2, y2), color in zip(boxes, colors):
                pixels[int(y1) : int(y2), int(x1) : int(x2)] = color
            pixels.setflags(write=False)  # make_pixels keeps it without a copy
        samples.append(
            AnnotatedSample(
                sample_id=f"c{label}-s{i}",
                label=label,
                image_embedding=embeddings[i],
                detections=tuple(
                    Detection(box=BoundingBox(*box), confidence=c, concept=concept)
                    for box, c, concept in zip(boxes, confs, concepts)
                ),
                image_pixels=pixels,
            )
        )
    return samples


def shift_distribution(
    samples: Sequence[AnnotatedSample], seed: int = 0
) -> list[AnnotatedSample]:
    """Adversarially shifted copies: flipped embeddings, inverted confidences.

    Useful as a non-exchangeable target pool when demonstrating that the
    calibration guarantee needs exchangeability.
    """
    # One normal draw per detection, in sample order, as one call.
    z = np.random.default_rng(seed).normal(size=sum(len(s.detections) for s in samples))
    confidences = np.array([det.confidence for s in samples for det in s.detections])
    shifted = iter(np.clip((1.0 - confidences) + 0.05 * z, 0.0, 1.0).tolist())
    out = []
    for sample in samples:
        detections = tuple(
            Detection(box=det.box, confidence=next(shifted), concept=det.concept)
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
