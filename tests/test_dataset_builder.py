"""Vocabulary, labeling, and rare-concept augmentation."""

import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_catalog, make_sample, run_python
from riskcbm import dataio
from riskcbm.calibration import DEFAULT_BUDGET, RiskBudget
from riskcbm.concept_sets import confidence_admits
from riskcbm.core import AnnotatedSample, BoundingBox, DataError, Detection
from riskcbm.dataset_builder import (
    AugmentationConfig,
    ConceptVocabulary,
    Provenance,
    _rarest_first,
    augment_dataset,
    build_vocabulary,
    composite_patch,
    label_sample,
    positive_counts,
    resize_bilinear,
    sample_placement,
)
from riskcbm.synth import SynthSpec, generate_synthetic


@pytest.fixture
def catalog():
    return make_catalog(
        {0: [[1, 0], [0, 1], [1, 1]], 1: [[-1, 0], [0, -1]]}
    )


def gray(h=64, w=64, value=0.25):
    return np.full((h, w, 3), value, dtype=np.float32)


# One sample that detects six concepts, ids 100-105, of a catalog other than
# the one its vocabulary is built against.
FOREIGN_VOCABULARY = """
import sys
sys.path.insert(0, {tests!r})
from conftest import make_catalog, make_sample
from riskcbm.calibration import DEFAULT_BUDGET
from riskcbm.core import DataError
from riskcbm.dataset_builder import build_vocabulary
catalog = make_catalog({{0: [[1, 0]], 1: [[-1, 0]]}})
foreign = make_catalog({{0: [[1, 0]] * 3, 1: [[-1, 0]] * 3}}, start_id=100)
sample = make_sample("s0", 0, [1, 0], [(c, 0.9) for c in foreign.all_concepts()])
try:
    build_vocabulary([sample], catalog, 0.5, DEFAULT_BUDGET)
except DataError as exc:
    print(exc)
"""


def vocab_at(lambda_hat, *concepts):
    """A vocabulary of ``concepts`` built at ``lambda_hat``."""
    return ConceptVocabulary(concepts, lambda_hat, DEFAULT_BUDGET)


class TestVocabulary:
    def test_union_and_order(self, catalog):
        a, b, c = catalog.concepts_for(0)
        samples = [
            make_sample("s0", 0, [1, 0], [(a, 0.9), (b, 0.8)]),
            make_sample("s1", 0, [1, 0], [(b, 0.9), (c, 0.85)]),
        ]
        vocab = build_vocabulary(samples, catalog, 0.3, DEFAULT_BUDGET)
        assert vocab.concepts == (a, b, c)
        assert [vocab.index_of[x] for x in (a, b, c)] == [0, 1, 2]

    def test_order_independence(self, catalog):
        a, b, c = catalog.concepts_for(0)
        samples = [
            make_sample("s0", 0, [1, 0], [(a, 0.9)]),
            make_sample("s1", 0, [1, 0], [(c, 0.9)]),
            make_sample("s2", 0, [1, 0], [(b, 0.9)]),
        ]
        forward = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
        backward = build_vocabulary(list(reversed(samples)), catalog, 0.5, DEFAULT_BUDGET)
        assert forward.concepts == backward.concepts

    def test_empty_vocabulary_is_an_error(self, catalog):
        a = catalog.concepts_for(0)[0]
        samples = [make_sample("s0", 0, [1, 0], [(a, 0.99)])]
        with pytest.raises(DataError, match="empty vocabulary"):
            build_vocabulary(samples, catalog, 0.0, DEFAULT_BUDGET)

    def test_a_foreign_concept_error_names_the_lowest_id_under_any_hash_seed(self):
        """`ConceptId` hashes its text, so a set of concepts iterates in an
        order that changes with the hash seed; the error does not."""
        code = FOREIGN_VOCABULARY.format(tests=str(Path(__file__).parent))
        for seed in "12345":
            result = run_python("-c", code, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout == "vocabulary concept 100 ('t100') not in catalog\n", seed

    def test_lambda_one_collects_every_detected_concept(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        d = catalog.concepts_for(1)[0]
        samples = [
            make_sample("s0", 0, [1, 0], [(a, 0.01), (b, 0.2)]),
            make_sample("s1", 1, [-1, 0], [(d, 0.0)]),
        ]
        vocab = build_vocabulary(samples, catalog, 1.0, DEFAULT_BUDGET)
        assert set(vocab.concepts) == {a, b, d}

    def test_records_the_threshold_and_the_budget_it_was_built_at(self, catalog):
        a = catalog.concepts_for(0)[0]
        budget = RiskBudget(alpha_dis=0.8, alpha_cov=0.25, alpha_div=0.3)
        samples = [make_sample("s0", 0, [1, 0], [(a, 0.9)])]
        vocab = build_vocabulary(samples, catalog, 0.4, budget)
        assert (vocab.lambda_hat, vocab.budget) == (0.4, budget)

    def test_without_its_calibration_nothing_is_labeled(self, catalog, tmp_path):
        """A vocabulary is the output of a calibration: a file without
        `lambda_hat` and `budget` is malformed at load, naming the file and
        the key, so no vocabulary reaches `label_sample` without its
        threshold."""
        a, b, _ = catalog.concepts_for(0)
        path = tmp_path / "vocab.json"
        dataio.save_vocabulary(path, ConceptVocabulary((a, b), 0.5, DEFAULT_BUDGET))
        doc = json.loads(path.read_text())
        del doc["lambda_hat"], doc["budget"]
        path.write_text(json.dumps(doc))
        message = f"{path}: malformed vocabulary: KeyError('lambda_hat')"
        with pytest.raises(dataio.DataFormatError, match=re.escape(message)):
            dataio.load_vocabulary(path)

    @pytest.mark.parametrize("calibration, error, message", [
        ((0.5,), TypeError, "missing 1 required positional argument: 'budget'"),
        ((), TypeError, "missing 2 required positional arguments: 'lambda_hat' and 'budget'"),
        ((1.5, DEFAULT_BUDGET), DataError, r"lambda_hat must be in \[0, 1\]"),
        ((-0.1, DEFAULT_BUDGET), DataError, r"lambda_hat must be in \[0, 1\]"),
    ], ids=["lambda_hat_only", "neither", "above", "below"])
    def test_half_or_out_of_range_calibration_rejected(
        self, catalog, calibration, error, message
    ):
        a = catalog.concepts_for(0)[0]
        with pytest.raises(error, match=message):
            ConceptVocabulary((a,), *calibration)

    @pytest.mark.parametrize("calibration, message", [
        ((0.5, None), "budget must be a RiskBudget, got NoneType"),
        ((0.5, 0.2), "budget must be a RiskBudget, got float"),
        ((0.5, {"alpha_dis": 0.7}), "budget must be a RiskBudget, got dict"),
        ((True, DEFAULT_BUDGET), "lambda_hat must be a number, got bool"),
        (("0.5", DEFAULT_BUDGET), "lambda_hat must be a number, got str"),
    ], ids=["budget_none", "budget_float", "budget_dict", "lambda_bool", "lambda_str"])
    def test_calibration_of_the_wrong_type_rejected_by_name(self, catalog, calibration, message):
        """A budget that is not a RiskBudget, or a lambda_hat that is a bool
        or not a number, fails at construction, not at its first use."""
        a = catalog.concepts_for(0)[0]
        with pytest.raises(DataError, match=re.escape(message)):
            ConceptVocabulary((a,), *calibration)

    def test_numpy_lambda_hat_accepted(self, catalog):
        a = catalog.concepts_for(0)[0]
        for value in (np.float64(0.25), np.float32(0.25), 0):
            assert ConceptVocabulary((a,), value, DEFAULT_BUDGET).lambda_hat == value

    def test_duplicate_or_unsorted_construction_rejected(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        with pytest.raises(DataError):
            ConceptVocabulary((a, a), 0.5, DEFAULT_BUDGET)
        with pytest.raises(DataError):
            ConceptVocabulary((b, a), 0.5, DEFAULT_BUDGET)

    def test_index_is_derived_not_accepted(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        with pytest.raises(TypeError, match="index_of"):
            ConceptVocabulary((a, b), 0.5, DEFAULT_BUDGET, index_of={a: 1, b: 0})


class TestLabeling:
    @pytest.mark.parametrize("missing", ["source_id", "inserted_concept", "placement"])
    def test_augmented_provenance_records_its_source_concept_and_placement(
        self, catalog, missing
    ):
        given = {"source_id": "s0", "inserted_concept": catalog.concepts_for(0)[0],
                 "placement": BoundingBox(0.0, 0.0, 1.0, 1.0)}
        Provenance("augmented", **given)
        message = "augmented provenance needs source_id, inserted_concept and placement"
        with pytest.raises(DataError, match=message):
            Provenance("augmented", **{**given, missing: None})

    def test_indicator_vector(self, catalog):
        a, b, c = catalog.concepts_for(0)
        vocab = vocab_at(0.3, a, b, c)
        sample = make_sample("s0", 0, [1, 0], [(c, 0.9), (a, 0.95)], pixels=gray())
        labeled = label_sample(sample, vocab)
        assert labeled.concept_vector.tolist() == [1, 0, 1]
        assert labeled.is_original
        # A labeled row is an annotated sample and passes the same checks.
        assert isinstance(labeled, AnnotatedSample)
        assert not labeled.image_embedding.flags.writeable
        assert not labeled.image_pixels.flags.writeable
        # The sample's frozen arrays are shared, not copied again.
        assert labeled.image_embedding is sample.image_embedding
        assert labeled.image_pixels is sample.image_pixels
        with pytest.raises(DataError, match="non-finite"):
            replace(labeled, image_embedding=[np.nan, 0.0])

    def test_empty_set_gives_zero_vector(self, catalog):
        a, b, c = catalog.concepts_for(0)
        vocab = vocab_at(0.2, a, b, c)
        sample = make_sample("s0", 0, [1, 0], [(a, 0.1)])
        assert label_sample(sample, vocab).concept_vector.tolist() == [0, 0, 0]

    def test_full_set_gives_ones(self, catalog):
        a, b, c = catalog.concepts_for(0)
        vocab = vocab_at(0.5, a, b, c)
        sample = make_sample("s0", 0, [1, 0], [(a, 0.9), (b, 0.9), (c, 0.9)])
        assert label_sample(sample, vocab).concept_vector.tolist() == [1, 1, 1]

    def test_concepts_outside_vocab_ignored(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.5, a)
        sample = make_sample("s0", 0, [1, 0], [(a, 0.9), (b, 0.9)])
        assert label_sample(sample, vocab).concept_vector.tolist() == [1]

    def test_label_matches_membership_recomputation(self, catalog):
        rng = np.random.default_rng(41)
        concepts = catalog.concepts_for(0)
        for _ in range(25):
            confs = [(c, float(rng.uniform(0, 1))) for c in concepts]
            lam = float(rng.uniform(0, 1))
            vocab = vocab_at(lam, *concepts)
            sample = make_sample("s", 0, [1, 0], confs)
            labeled = label_sample(sample, vocab)
            for c, conf in confs:
                expected = 1 if confidence_admits(conf, lam) else 0
                assert labeled.concept_vector[vocab.index_of[c]] == expected


class TestSparseConcepts:
    def test_counts_and_ordering(self, catalog):
        a, b, c = catalog.concepts_for(0)
        vocab = vocab_at(0.5, a, b, c)
        samples = [
            make_sample(f"s{i}", 0, [1, 0], [(a, 0.9)] + ([(b, 0.9)] if i < 3 else []))
            for i in range(6)
        ]
        labeled = [label_sample(s, vocab) for s in samples]
        sparse = _rarest_first(positive_counts(labeled, vocab), vocab, min_count=10)
        assert sparse == [(c, 0), (b, 3), (a, 6)]

    def test_all_concepts_frequent_enough(self, catalog):
        a, _, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.5, a)
        samples = [make_sample(f"s{i}", 0, [1, 0], [(a, 0.9)]) for i in range(4)]
        labeled = [label_sample(s, vocab) for s in samples]
        assert _rarest_first(positive_counts(labeled, vocab), vocab, min_count=3) == []


class TestPlacement:
    def _target(self, catalog, detections):
        return make_sample("t", 0, [1, 0], detections, pixels=gray())

    def test_unconstrained_image_accepts_first_window(self, catalog):
        target = self._target(catalog, [])
        rng = np.random.default_rng(0)
        got = sample_placement(target, catalog.concepts_for(0)[0], 0.5,
                               BoundingBox(0, 0, 20, 20), rng)
        assert got is not None
        assert 0 <= got.x1 < got.x2 <= 64 and 0 <= got.y1 < got.y2 <= 64

    def test_fully_blocked_image_fails(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        blocker = Detection(box=BoundingBox(0, 0, 64, 64), confidence=0.95, concept=b)
        target = make_sample("t", 0, [1, 0], [], pixels=gray())
        target.detections = (blocker,)
        rng = np.random.default_rng(0)
        got = sample_placement(target, a, 0.5, BoundingBox(0, 0, 20, 20), rng,
                               max_attempts=50)
        assert got is None

    def test_rare_concepts_own_boxes_do_not_block(self, catalog):
        a, _, _ = catalog.concepts_for(0)
        own = Detection(box=BoundingBox(0, 0, 64, 64), confidence=0.95, concept=a)
        target = make_sample("t", 0, [1, 0], [], pixels=gray())
        target.detections = (own,)
        rng = np.random.default_rng(0)
        got = sample_placement(target, a, 0.5, BoundingBox(0, 0, 20, 20), rng)
        assert got is not None

    def test_left_half_blocked_forces_right_half(self, catalog):
        """Brute-force feasibility: every valid window lies in the right half."""
        a, b, _ = catalog.concepts_for(0)
        blocker = Detection(box=BoundingBox(0, 0, 32, 64), confidence=0.9, concept=b)
        target = make_sample("t", 0, [1, 0], [], pixels=gray())
        target.detections = (blocker,)
        source_box = BoundingBox(0, 0, 30, 60)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            got = sample_placement(target, a, 0.5, source_box, rng)
            assert got is not None
            w, h = int(got.width), int(got.height)
            feasible = {
                (x, y)
                for x in range(64 - w + 1)
                for y in range(64 - h + 1)
                if not BoundingBox(x, y, x + w, y + h).overlaps(blocker.box)
            }
            assert (int(got.x1), int(got.y1)) in feasible
            assert all(x >= 32 for x, _ in feasible)
            assert got.x1 >= 32

    def test_requires_pixels(self, catalog):
        target = make_sample("t", 0, [1, 0], [])
        with pytest.raises(DataError):
            sample_placement(target, catalog.concepts_for(0)[0], 0.5,
                             BoundingBox(0, 0, 10, 10), np.random.default_rng(0))


class TestComposite:
    def test_copies_source_inside_only(self):
        target = gray(16, 16)
        patch = np.ones((4, 4, 3), dtype=np.float32)
        out = composite_patch(target, patch, BoundingBox(2, 3, 6, 7))
        assert np.all(out[3:7, 2:6] == 1.0)
        untouched = np.ones((16, 16), dtype=bool)
        untouched[3:7, 2:6] = False
        assert np.array_equal(out[untouched], target[untouched])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            composite_patch(gray(8, 8), np.ones((3, 3, 3), np.float32),
                            BoundingBox(0, 0, 4, 4))

    def test_resize_bilinear_keeps_range(self):
        img = np.arange(16, dtype=np.float32).reshape(4, 4, 1).repeat(3, axis=2) / 15.0
        up = resize_bilinear(img, 8, 8)
        assert up.shape == (8, 8, 3)
        assert float(up.min()) >= 0.0 and float(up.max()) <= 1.0


def build_augmentation_fixture(seed=3, lam_hat=0.3, min_count=8):
    spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=12,
                     seed=seed, image_size=64)
    samples, catalog = generate_synthetic(spec)
    vocab = build_vocabulary(samples, catalog, lam_hat, DEFAULT_BUDGET)
    labeled = [label_sample(s, vocab) for s in samples]
    config = AugmentationConfig(min_count=min_count, max_placement_attempts=100,
                                rng_seed=0)
    return labeled, vocab, catalog, config


class TestAugmentation:
    # Hand-built vocabularies below hold one sparse concept, `a`; every other
    # vocabulary concept already has `min_count` positives.

    def test_appends_exactly_the_shortfall(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.3, a, b)
        samples = []
        for i in range(8):
            confs = [(b, 0.9)] + ([(a, 0.9)] if i < 3 else [(a, 0.1)])
            samples.append(
                make_sample(f"s{i}", 0, [1, 0], confs, pixels=gray())
            )
        labeled = [label_sample(s, vocab) for s in samples]
        out, report = augment_dataset(labeled, vocab, 0.3,
                                      AugmentationConfig(min_count=5, rng_seed=0))
        added = [s for s in out if not s.is_original]
        assert len(added) == 2
        idx = vocab.index_of[a]
        assert sum(int(s.concept_vector[idx]) for s in out) == 5
        assert [(o.concept, o.count_before, o.count_after, o.status)
                for o in report.outcomes] == [(a, 3, 5, "met")]

    def test_max_update_rule(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.3, a, b)
        samples = [
            make_sample("src", 0, [1, 0], [(a, 0.9), (b, 0.9)], pixels=gray()),
            make_sample("tgt", 0, [1, 0], [(b, 0.9)], pixels=gray()),
        ]
        labeled = [label_sample(s, vocab) for s in samples]
        assert labeled[1].concept_vector.tolist() == [0, 1]
        out, report = augment_dataset(labeled, vocab, 0.3,
                                      AugmentationConfig(min_count=2))
        added = [s for s in out if not s.is_original]
        assert len(added) == 1
        assert added[0].concept_vector.tolist() == [1, 1]
        assert added[0].provenance.source_id == "src"
        assert added[0].provenance.inserted_concept == a
        assert [o.concept for o in report.outcomes] == [a]
        # originals untouched
        assert labeled[1].concept_vector.tolist() == [0, 1]

    def test_unseedable_concept_is_reported_and_warned(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.3, a, b)
        samples = [
            make_sample(f"s{i}", 0, [1, 0], [(b, 0.9)], pixels=gray()) for i in range(2)
        ]
        labeled = [label_sample(s, vocab) for s in samples]
        with pytest.warns(UserWarning, match=r"unseedable concept \d+ .*no reliable source"):
            out, report = augment_dataset(labeled, vocab, 0.3,
                                          AugmentationConfig(min_count=2))
        assert len(out) == len(labeled)
        assert [(o.concept, o.count_before, o.count_after, o.status)
                for o in report.outcomes] == [(a, 0, 0, "unseedable")]

    def test_exhaustion_is_reported_and_warned(self, catalog):
        a, b, _ = catalog.concepts_for(0)
        vocab = vocab_at(0.3, a, b)
        # every possible target is fully blocked by a reliable box of b
        blocked = []
        for i in range(3):
            target = make_sample(f"tgt{i}", 0, [1, 0], [], pixels=gray())
            target.detections = (
                Detection(box=BoundingBox(0, 0, 64, 64), confidence=0.95, concept=b),
            )
            blocked.append(target)
        source = make_sample("src", 0, [1, 0], [(a, 0.9)], pixels=gray())
        labeled = [label_sample(s, vocab) for s in (source, *blocked)]
        config = AugmentationConfig(min_count=3, max_placement_attempts=20)
        with pytest.warns(UserWarning, match="exhausted .*reached 1 < 3 positives"):
            out, report = augment_dataset(labeled, vocab, 0.3, config)
        # source already counts one positive; the blocked targets add nothing
        assert len(out) == len(labeled)
        assert [(o.concept, o.count_before, o.count_after, o.status)
                for o in report.outcomes] == [(a, 1, 1, "exhausted")]

    def test_report_is_the_running_count(self):
        """Each outcome's counts agree with a recount of the rows on hand at
        its turn, and its status with ``min_count``."""
        seen = set()
        for seed, min_count, class1_pixels in ((3, 10, True), (3, 16, False), (5, 16, False)):
            labeled, vocab, _, config = build_augmentation_fixture(
                seed=seed, min_count=min_count
            )
            if not class1_pixels:
                labeled = [
                    s if s.label != 1 else replace(s, image_pixels=None) for s in labeled
                ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                augmented, report = augment_dataset(labeled, vocab, 0.3, config)
            done = set()
            for outcome in report.outcomes:
                concept = outcome.concept
                idx = vocab.index_of[concept]
                before_turn = [
                    s for s in augmented
                    if s.is_original or s.provenance.inserted_concept in done
                ]
                assert outcome.count_before == sum(
                    int(s.concept_vector[idx]) for s in before_turn
                )
                inserted = sum(
                    1 for s in augmented
                    if not s.is_original and s.provenance.inserted_concept == concept
                )
                assert outcome.count_after - outcome.count_before == inserted
                met = outcome.count_after >= config.min_count
                assert (outcome.status == "met") == met
                if outcome.status == "unseedable":
                    assert inserted == 0
                done.add(concept)
                seen.add(outcome.status)
        assert seen == {"met", "exhausted", "unseedable"}

    def test_full_run_meets_counts_and_invariants(self):
        labeled, vocab, catalog, config = build_augmentation_fixture()
        augmented, report = augment_dataset(labeled, vocab, 0.3, config)
        counts = np.zeros(len(vocab), dtype=int)
        for s in augmented:
            counts += s.concept_vector
        for outcome in report.outcomes:
            if outcome.status != "unseedable":
                assert counts[vocab.index_of[outcome.concept]] >= config.min_count
        originals = {s.sample_id: s for s in labeled}
        checked = 0
        for s in augmented:
            if s.is_original:
                continue
            checked += 1
            target = originals[s.sample_id.rsplit("-aug-", 1)[0]]
            placement = s.provenance.placement
            blocked = [
                d.box
                for d in target.detections
                if confidence_admits(d.confidence, 0.3)
                and d.concept != s.provenance.inserted_concept
            ]
            assert not any(placement.overlaps(b) for b in blocked)
            x1, y1, x2, y2 = (int(round(v)) for v in
                              (placement.x1, placement.y1, placement.x2, placement.y2))
            outside = np.ones(s.image_pixels.shape[:2], dtype=bool)
            outside[y1:y2, x1:x2] = False
            assert np.array_equal(s.image_pixels[outside], target.image_pixels[outside])
            assert not s.image_pixels.flags.writeable
            assert s.image_embedding is target.image_embedding
            expected = target.concept_vector.copy()
            expected[vocab.index_of[s.provenance.inserted_concept]] = 1
            assert np.array_equal(s.concept_vector, expected)
        assert checked > 0

    def test_determinism_under_fixed_seed(self):
        labeled, vocab, catalog, config = build_augmentation_fixture()
        a1, _ = augment_dataset(labeled, vocab, 0.3, config)
        a2, _ = augment_dataset(labeled, vocab, 0.3, config)
        assert [s.sample_id for s in a1] == [s.sample_id for s in a2]
        for s1, s2 in zip(a1, a2):
            assert np.array_equal(s1.concept_vector, s2.concept_vector)
            if not s1.is_original:
                assert s1.provenance.placement == s2.provenance.placement
                assert np.array_equal(s1.image_pixels, s2.image_pixels)
