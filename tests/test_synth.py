"""Synthetic generator: determinism, structure, and the noise knob."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcbm import synth
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


def _as_bytes(samples, catalog) -> list:
    """Every sample's id, label, embedding, detections and pixels, then the
    catalog, as comparable values."""
    rows = [
        (
            s.sample_id,
            s.label,
            s.image_embedding.tobytes(),
            repr([(d.box, d.confidence, d.concept) for d in s.detections]),
            None if s.image_pixels is None else s.image_pixels.tobytes(),
        )
        for s in samples
    ]
    return rows + [catalog.concepts, catalog.embeddings.tobytes()]


def _per_draw(spec: SynthSpec) -> list:
    """`generate_synthetic(spec)` with every class drawn by the per-draw
    helper: each decoded block is rejected, so the state is restored and
    the class drawn again one `Generator` call at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_rejects", lambda u32, n: np.ones(np.shape(u32), bool))
        return _as_bytes(*generate_synthetic(spec))


class TestDraws:
    """Samples are decoded from one raw-word block each; numpy's own
    per-draw calls are the reference they must equal bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        classes=st.integers(1, 3),
        concepts=st.integers(1, 5),
        samples=st.integers(1, 6),
        dim=st.integers(2, 8),
        noise=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**31),
        image_size=st.sampled_from([32, 33, 45, 63, 64, 101, 257, 3_000_000_000]),
        with_pixels=st.booleans(),
    )
    def test_decoded_equals_per_draw(
        self, classes, concepts, samples, dim, noise, seed, image_size, with_pixels
    ):
        # 3e9 px makes real Lemire rejections common; its pixels would not fit.
        spec = SynthSpec(
            classes=classes, concepts_per_class=concepts, samples_per_class=samples,
            embedding_dim=dim, noise=noise, seed=seed, image_size=image_size,
            with_pixels=with_pixels and image_size < 2**16,
        )
        assert _as_bytes(*generate_synthetic(spec)) == _per_draw(spec)

    @pytest.mark.parametrize("u32, n, rejected", [
        (0, 13, True),  # 2**32 mod 13 is 9, and 0 * 13 falls below it
        (1, 13, False),  # 13 does not
        (2**32 - 1, 13, False),
        (0, 8, False),  # 8 divides 2**32: no word is ever rejected
        (1, 8, False),
        (2**31, 8, False),
        (2**32 - 1, 8, False),
    ])
    def test_lemire_rejection_by_hand(self, u32, n, rejected):
        assert bool(synth._rejects(u32, n)) is rejected

    def test_forced_rejection_on_the_last_draw_restores_the_state(self, monkeypatch):
        """Rejecting only the last decoded draw of the last class redraws
        every class per draw from the state saved before the first: the
        output is unchanged."""
        spec = SynthSpec(classes=3, concepts_per_class=4, samples_per_class=5, seed=11)
        expected = _as_bytes(*generate_synthetic(spec))
        real_rejects, calls, redrawn = synth._rejects, [], []

        def last_rejected(u32, n):
            out = real_rejects(u32, n)
            calls.append(out.shape)
            if len(calls) == spec.classes:
                out.flat[-1] = True
            return out

        real_per_draw = synth._per_draw_draws

        def per_draw(rng, spec, rates):
            redrawn.append(len(calls))
            return real_per_draw(rng, spec, rates)

        monkeypatch.setattr(synth, "_rejects", last_rejected)
        monkeypatch.setattr(synth, "_per_draw_draws", per_draw)
        assert _as_bytes(*generate_synthetic(spec)) == expected
        assert redrawn == [spec.classes] * spec.classes

    def test_a_real_rejection_redraws_every_class(self, monkeypatch):
        """At 3e9 px numpy turns box draws down often, taking one more
        32-bit half each time; an odd count leaves a half buffered for the
        next class's first box draw. So one rejecting class sends every
        class down the per-draw path, not only itself."""
        fell_back = set()
        real_per_draw = synth._per_draw_draws

        def per_draw(rng, spec, rates):
            fell_back.add(spec.seed)
            return real_per_draw(rng, spec, rates)

        for seed in range(30):
            spec = SynthSpec(classes=3, concepts_per_class=1, samples_per_class=1,
                             image_size=3_000_000_000, with_pixels=False, seed=seed)
            with monkeypatch.context() as mp:
                mp.setattr(synth, "_per_draw_draws", per_draw)
                decoded = _as_bytes(*generate_synthetic(spec))
            assert decoded == _per_draw(spec), seed
        assert 0 < len(fell_back) < 30  # some seeds reject, some decode throughout

    def test_a_range_of_2_to_the_32_or_more_draws_per_draw(self, monkeypatch):
        """Past 2**32 values numpy draws a box coordinate from a whole word,
        which the block decoding does not model."""
        spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=4,
                         image_size=2**33, with_pixels=False, seed=1)
        redrawn = []
        real_per_draw = synth._per_draw_draws

        def per_draw(rng, spec, rates):
            redrawn.append(rates.size)
            return real_per_draw(rng, spec, rates)

        monkeypatch.setattr(synth, "_per_draw_draws", per_draw)
        # Rejection cannot be what sends these classes down the per-draw path.
        monkeypatch.setattr(synth, "_rejects", lambda u32, n: np.zeros(np.shape(u32), bool))
        samples, _ = generate_synthetic(spec)
        assert redrawn == [3, 3]
        boxes = [d.box for s in samples for d in s.detections]
        assert all(0 <= b.x1 < b.x2 <= 2**33 and 0 <= b.y1 < b.y2 <= 2**33 for b in boxes)
        assert max(b.x1 for b in boxes) >= 2**32  # beyond any 32-bit draw


class TestShift:
    def test_shift_flips_embeddings(self):
        samples, _ = generate_synthetic(SynthSpec(samples_per_class=2, seed=4))
        shifted = shift_distribution(samples, seed=0)
        assert len(shifted) == len(samples)
        for orig, shift in zip(samples, shifted):
            assert np.array_equal(shift.image_embedding, -orig.image_embedding)
            assert shift.sample_id.endswith("-shift")
