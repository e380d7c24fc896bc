"""Synthetic generator: determinism, structure, and the noise knob."""

import re

import numpy as np
import pytest

from riskcbm.core import validate_dataset
from riskcbm.synth import SynthSpec, generate_synthetic, shift_distribution


class TestGenerate:
    def test_counts_and_validity(self):
        spec = SynthSpec(classes=2, concepts_per_class=5, samples_per_class=7, seed=0)
        samples, catalog = generate_synthetic(spec)
        assert len(samples) == 14
        assert catalog.num_classes == 2
        assert all(len(catalog.concepts_for(l)) == 5 for l in range(2))
        assert validate_dataset(samples, catalog) == []
        # one detection per class concept, all from the sample's own class
        for s in samples:
            assert len(s.detections) == 5
            assert {d.concept.class_of_origin for d in s.detections} == {s.label}

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(classes=3, concepts_per_class=4, samples_per_class=5, seed=9)
        a, cat_a = generate_synthetic(spec)
        b, cat_b = generate_synthetic(spec)
        for sa, sb in zip(a, b):
            assert sa.sample_id == sb.sample_id
            assert sa.image_embedding.tobytes() == sb.image_embedding.tobytes()
            assert sa.image_pixels.tobytes() == sb.image_pixels.tobytes()
            assert [d.confidence for d in sa.detections] == [
                d.confidence for d in sb.detections
            ]
        for c in cat_a.all_concepts():
            assert np.array_equal(cat_a.embedding_of(c), cat_b.embedding_of(c))

    def test_different_seed_differs(self):
        a, _ = generate_synthetic(SynthSpec(samples_per_class=3, seed=1))
        b, _ = generate_synthetic(SynthSpec(samples_per_class=3, seed=2))
        assert a[0].image_embedding.tobytes() != b[0].image_embedding.tobytes()

    def test_zero_noise_embeds_at_prototype(self):
        spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=4,
                         noise=0.0, seed=5)
        samples, _ = generate_synthetic(spec)
        by_class = {}
        for s in samples:
            by_class.setdefault(s.label, []).append(s.image_embedding)
        for embeddings in by_class.values():
            for e in embeddings[1:]:
                assert np.array_equal(embeddings[0], e)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise", float("nan"), "noise must be finite and >= 0, got nan"),
            ("noise", float("inf"), "noise must be finite and >= 0, got inf"),
            ("noise", -0.1, "noise must be finite and >= 0, got -0.1"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_spec_rejects_a_bad_noise_or_seed_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SynthSpec(**{field: value})

    def test_no_pixels_mode(self):
        spec = SynthSpec(samples_per_class=2, with_pixels=False)
        samples, _ = generate_synthetic(spec)
        assert all(s.image_pixels is None for s in samples)

    def test_pixels_paint_detection_boxes(self):
        spec = SynthSpec(classes=2, concepts_per_class=2, samples_per_class=2, seed=3)
        samples, _ = generate_synthetic(spec)
        s = samples[0]
        det = s.detections[-1]
        x1, y1 = int(det.box.x1), int(det.box.y1)
        inside = s.image_pixels[y1, x1]
        assert not np.array_equal(inside, np.array([0.25, 0.25, 0.25], np.float32))


class TestShift:
    def test_shift_flips_embeddings(self):
        samples, _ = generate_synthetic(SynthSpec(samples_per_class=2, seed=4))
        shifted = shift_distribution(samples, seed=0)
        assert len(shifted) == len(samples)
        for orig, shift in zip(samples, shifted):
            assert np.array_equal(shift.image_embedding, -orig.image_embedding)
            assert shift.sample_id.endswith("-shift")
