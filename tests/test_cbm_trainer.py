"""Forward pass, objective terms, analytic gradients, and training behavior."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskcbm.calibration import DEFAULT_BUDGET
from riskcbm.cbm_trainer import (
    Batch,
    _bce,
    _terms,
    CbmModel,
    TrainConfig,
    TrainingDivergedError,
    forward,
    gradient_check,
    gradients,
    make_batch,
    objective,
    regularizer,
    sigmoid,
    train,
)
from riskcbm.core import ConceptId, DataError
from riskcbm.dataio import load_model
from riskcbm.dataset_builder import (
    ConceptLabeledSample,
    ConceptVocabulary,
    build_vocabulary,
    label_sample,
)
from riskcbm.evaluation import _ranked_candidates
from riskcbm.synth import SynthSpec, generate_synthetic


def model_of(wg, bg, wf, bf):
    return CbmModel(
        concept_weights=np.asarray(wg, dtype=float),
        concept_bias=np.asarray(bg, dtype=float),
        head_weights=np.asarray(wf, dtype=float),
        head_bias=np.asarray(bf, dtype=float),
    )


def random_model(rng, d=3, k=4, L=3, min_head=0.05):
    """Random model with head weights kept away from the L1 kink."""
    wf = rng.uniform(min_head, 0.6, size=(L, k)) * rng.choice([-1.0, 1.0], size=(L, k))
    return model_of(
        rng.normal(scale=0.5, size=(k, d)),
        rng.normal(scale=0.2, size=k),
        wf,
        rng.normal(scale=0.2, size=L),
    )


def random_batch(rng, n=6, d=3, k=4, L=3):
    return Batch(
        embeddings=rng.normal(size=(n, d)),
        concept_targets=rng.integers(0, 2, size=(n, k)).astype(float),
        labels=rng.integers(0, L, size=n),
    )


class TestForward:
    def test_zero_model(self):
        model = model_of(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        cl, acts, yl = forward(model, np.zeros((1, 3)))
        assert np.all(cl == 0.0) and np.all(yl == 0.0)
        assert np.all(acts == 0.5) and np.all(sigmoid(cl) == acts)

    def test_one_by_one(self):
        model = model_of([[1.0]], [0.0], [[2.0]], [0.0])
        cl, _, yl = forward(model, np.array([[0.0]]))
        assert cl[0, 0] == 0.0
        assert yl[0, 0] == 1.0  # 2 * sigmoid(0)

    def test_dimension_mismatch(self):
        model = model_of(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DataError, match=r"embedding shape \(4,\) != \(3,\)"):
            forward(model, np.zeros((1, 4)))

    def test_bottleneck_exclusivity(self):
        """Permuting embedding coordinates together with bottleneck columns is a no-op."""
        rng = np.random.default_rng(51)
        model = random_model(rng)
        z = rng.normal(size=(1, 3))
        perm = rng.permutation(3)
        permuted = model_of(
            model.concept_weights[:, perm],
            model.concept_bias,
            model.head_weights,
            model.head_bias,
        )
        cl, _, yl = forward(model, z)
        cl2, _, yl2 = forward(permuted, z[:, perm])
        np.testing.assert_allclose(cl, cl2, atol=1e-12)
        np.testing.assert_allclose(yl, yl2, atol=1e-12)


def concept_loss(model, batch):
    """The concept BCE term of the objective, as `_terms` computes it."""
    return _terms(model, batch, TrainConfig())[0]


def task_loss(model, batch):
    """The task cross-entropy term of the objective, as `_terms` computes it."""
    return _terms(model, batch, TrainConfig())[1]


class TestLossValues:
    def _single_concept_batch(self, target):
        return Batch(
            embeddings=np.zeros((1, 1)),
            concept_targets=np.array([[target]], dtype=float),
            labels=np.array([0]),
        )

    def test_bce_at_half(self):
        model = model_of([[0.0]], [0.0], [[0.0]], [0.0])
        assert concept_loss(model, self._single_concept_batch(1.0)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )
        assert concept_loss(model, self._single_concept_batch(0.0)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_bce_saturated_logit(self):
        # logit +20, target 1: softplus(-20)
        model = model_of([[0.0]], [20.0], [[0.0]], [0.0])
        got = concept_loss(model, self._single_concept_batch(1.0))
        assert got == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert got < 2.1e-9

    def test_ce_uniform(self):
        model = model_of([[0.0]], [0.0], [[0.0], [0.0]], [0.0, 0.0])
        batch = Batch(np.zeros((1, 1)), np.zeros((1, 1)), np.array([0]))
        assert task_loss(model, batch) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_ce_confident(self):
        # class logits (10, -10) via biases
        model = model_of([[0.0]], [0.0], [[0.0], [0.0]], [10.0, -10.0])
        batch0 = Batch(np.zeros((1, 1)), np.zeros((1, 1)), np.array([0]))
        batch1 = Batch(np.zeros((1, 1)), np.zeros((1, 1)), np.array([1]))
        expected_small = math.log1p(math.exp(-20.0))
        assert task_loss(model, batch0) == pytest.approx(expected_small, rel=1e-12)
        assert task_loss(model, batch1) == pytest.approx(20.0 + expected_small, rel=1e-12)

    def test_regularizer_hand_value(self):
        model = model_of(np.zeros((2, 1)), np.zeros(2), [[1.0, -2.0]], [0.0])
        assert regularizer(model, 0.5) == 2.75
        assert regularizer(model, 0.0) == 0.5 * 5.0
        assert regularizer(model, 1.0) == 3.0

    def test_regularizer_zero_weights(self):
        model = model_of(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), [0.0])
        assert regularizer(model, 0.7) == 0.0

    def test_objective_nonnegative(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            model = random_model(rng)
            batch = random_batch(rng)
            config = TrainConfig(gamma1=float(rng.uniform(0, 2)),
                                 gamma2=float(rng.uniform(0, 0.1)))
            assert objective(model, batch, config) >= 0.0
            assert concept_loss(model, batch) >= 0.0
            assert task_loss(model, batch) >= 0.0


class TestGradients:
    def test_matches_finite_differences(self):
        """Analytic gradient vs independent central differences, smooth points."""
        rng = np.random.default_rng(53)
        step = 1e-5
        for _ in range(5):
            model = random_model(rng)
            batch = random_batch(rng)
            config = TrainConfig(gamma1=1.3, gamma2=0.01, beta=0.4)
            analytic = gradients(model, batch, config)
            for attr in ("concept_weights", "concept_bias", "head_weights", "head_bias"):
                param = getattr(model, attr)
                grad = getattr(analytic, attr)
                flat = param.reshape(-1)
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + step
                    hi = objective(model, batch, config)
                    flat[i] = saved - step
                    lo = objective(model, batch, config)
                    flat[i] = saved
                    numeric = (hi - lo) / (2 * step)
                    assert grad.reshape(-1)[i] == pytest.approx(
                        numeric, abs=1e-7, rel=1e-5
                    )

    def test_gradient_check_small_models(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            model = random_model(rng)
            batch = random_batch(rng)
            config = TrainConfig(gamma1=1.0, gamma2=0.01, beta=0.5)
            assert gradient_check(model, batch, config) <= 1e-4

    def test_gradient_check_without_l1(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, min_head=0.0)
        batch = random_batch(rng)
        config = TrainConfig(gamma1=0.7, gamma2=0.0)
        assert gradient_check(model, batch, config) <= 1e-4

    def test_sign_zero_convention(self):
        model = model_of(np.zeros((1, 1)), np.zeros(1), [[0.0], [0.0]], np.zeros(2))
        batch = Batch(np.zeros((1, 1)), np.ones((1, 1)), np.array([0]))
        config = TrainConfig(gamma1=0.0, gamma2=1.0, beta=1.0)
        grad = gradients(model, batch, config)
        # pure L1 at w=0 contributes nothing under the sign(0)=0 convention
        assert np.all(grad.head_weights == 0.0)


EPS = np.finfo(np.float64).eps

# Logits at the edges of the logistic forms: 0, a logit whose softplus
# rounds to itself, exp(-|U|) at its last subnormal, the end of the float
# range, and subnormals.
EDGE_LOGITS = [
    0.0, 36.0, -36.0, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308,
]
LOGITS = (
    st.sampled_from(EDGE_LOGITS)
    | st.floats(-800.0, 800.0)
    | st.floats(allow_nan=False, allow_infinity=False)
)


class TestOneBceForm:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=LOGITS),
                arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])),
            )
        )
    )
    @example((np.array([EDGE_LOGITS]), np.zeros((1, len(EDGE_LOGITS)))))
    @example((np.array([EDGE_LOGITS]), np.ones((1, len(EDGE_LOGITS)))))
    def test_bce_matches_logaddexp(self, logits_and_targets):
        """Within 4 eps of the mean's uncancelled size mean(softplus(U) +
        O*|U|). Relative to the mean itself the bound cannot hold: where
        O = 1, softplus(U) - U cancels, and one ulp of softplus(U) near
        U = 1.5 reads as about 7 eps of the difference."""
        U, O = logits_and_targets
        with np.errstate(over="ignore"):
            got = _bce(U, O)
            want = float(np.mean(np.logaddexp(0.0, U) - O * U))
        if np.isinf(want):
            assert got == want
            return
        # half the size, summed from halves so that it cannot overflow
        half = np.sum((0.5 * np.logaddexp(0.0, U) + 0.5 * O * np.abs(U)) / U.size)
        assert abs(got - want) <= 8 * EPS * max(half, np.finfo(np.float64).tiny)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_log_rows_are_the_objective(self, momentum):
        """The row for epoch e is `objective` on the model after e epochs, exactly."""
        samples, vocab = separable_dataset(5)
        config = TrainConfig(epochs=5, momentum=momentum, batch_size=4, rng_seed=10)
        full = make_batch(samples)
        _, log = train(samples, vocab, config, n_classes=2)
        rows = {row.epoch: row for row in log}
        initial, _ = train(
            samples, vocab, replace(config, epochs=1, learning_rate=0.0), n_classes=2
        )
        assert rows[0].total == objective(initial, full, config)
        for e in set(rows) - {0}:
            model, _ = train(samples, vocab, replace(config, epochs=e), n_classes=2)
            assert rows[e].total == objective(model, full, config)

    @pytest.mark.parametrize("epochs", [1, 2, 3, 7, 8, 9, 200])
    def test_log_holds_the_log_spaced_epochs(self, epochs):
        """Epoch 0, each power of two up to `epochs`, and `epochs`, in order;
        the last row is the objective of the returned model."""
        samples, vocab = separable_dataset(3)
        config = TrainConfig(epochs=epochs, batch_size=4, rng_seed=11)
        model, log = train(samples, vocab, config, n_classes=2)
        powers = {2**i for i in range(8) if 2**i <= epochs}
        assert [row.epoch for row in log] == sorted({0, epochs} | powers)
        assert log[-1].total == objective(model, make_batch(samples), config)


def separable_dataset(n_per_class=20, seed=0):
    """Two linearly separable clusters with class-indicator concept labels."""
    rng = np.random.default_rng(seed)
    a = ConceptId(0, "left", 0)
    b = ConceptId(1, "right", 1)
    vocab = ConceptVocabulary(concepts=(a, b), lambda_hat=0.5, budget=DEFAULT_BUDGET)
    samples = []
    for label in (0, 1):
        center = np.array([2.0, 0.0]) if label == 0 else np.array([-2.0, 0.0])
        for i in range(n_per_class):
            vec = np.zeros(2, dtype=np.uint8)
            vec[label] = 1
            samples.append(
                ConceptLabeledSample(
                    sample_id=f"{label}-{i}",
                    label=label,
                    concept_vector=vec,
                    image_embedding=center + 0.3 * rng.normal(size=2),
                )
            )
    return samples, vocab


def objective_after_each_epoch(samples, vocab, config):
    """The full-data objective after epochs 0, 1, ..., `config.epochs`: the
    log keeps only some epochs, and a run of e epochs logs epoch e last."""
    _, log = train(samples, vocab, config, n_classes=2)
    return [log[0].total] + [
        train(samples, vocab, replace(config, epochs=e), n_classes=2)[1][-1].total
        for e in range(1, config.epochs + 1)
    ]


class TestTraining:
    def test_learns_separable_data(self):
        samples, vocab = separable_dataset()
        config = TrainConfig(epochs=200, learning_rate=0.5, batch_size=64, rng_seed=1)
        model, log = train(samples, vocab, config, n_classes=2)
        predicted, _ = _ranked_candidates(model, samples, vocab)
        correct = sum(int(p == s.label) for p, s in zip(predicted, samples))
        assert correct == len(samples)
        assert log[-1].total < log[0].total

    def test_zero_learning_rate_is_identity(self):
        samples, vocab = separable_dataset(4)
        config = TrainConfig(epochs=3, learning_rate=0.0, rng_seed=2)
        model, _ = train(samples, vocab, config, n_classes=2)
        reference, _ = train(samples, vocab, TrainConfig(epochs=1, learning_rate=0.0,
                                                         rng_seed=2), n_classes=2)
        assert np.array_equal(model.concept_weights, reference.concept_weights)
        assert np.array_equal(model.head_weights, reference.head_weights)

    def test_head_frozen_without_gradient_path(self):
        """gamma1 = gamma2 = 0: nothing propagates into the head."""
        samples, vocab = separable_dataset(4)
        config = TrainConfig(gamma1=0.0, gamma2=0.0, epochs=5, learning_rate=0.3,
                             rng_seed=3)
        model, _ = train(samples, vocab, config, n_classes=2)
        init, _ = train(samples, vocab,
                        TrainConfig(gamma1=0.0, gamma2=0.0, epochs=5,
                                    learning_rate=0.0, rng_seed=3), n_classes=2)
        assert np.array_equal(model.head_weights, init.head_weights)
        assert np.array_equal(model.head_bias, init.head_bias)
        # the bottleneck still moves under the concept loss
        assert not np.array_equal(model.concept_weights, init.concept_weights)

    def test_full_batch_objective_non_increasing(self):
        samples, vocab = separable_dataset(10)
        config = TrainConfig(gamma2=0.0, epochs=50, learning_rate=0.1,
                             batch_size=len(samples), rng_seed=4)
        totals = objective_after_each_epoch(samples, vocab, config)
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_full_batch_non_increasing_with_default_config(self):
        samples, vocab = separable_dataset(10)
        config = TrainConfig(epochs=50, learning_rate=0.1,
                             batch_size=len(samples), rng_seed=5)
        totals = objective_after_each_epoch(samples, vocab, config)
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_determinism_bit_identical(self):
        samples, vocab = separable_dataset(8)
        config = TrainConfig(epochs=20, rng_seed=6, batch_size=5)
        m1, log1 = train(samples, vocab, config, n_classes=2)
        m2, log2 = train(samples, vocab, config, n_classes=2)
        assert m1.concept_weights.tobytes() == m2.concept_weights.tobytes()
        assert m1.head_weights.tobytes() == m2.head_weights.tobytes()
        assert [r.total for r in log1] == [r.total for r in log2]

    def test_divergence_detected(self):
        # the ridge term at this rate multiplies head weights by ~-5e3 each
        # step, overflowing float64 well within the epoch budget
        samples, vocab = separable_dataset(6)
        config = TrainConfig(epochs=60, learning_rate=1e8, beta=0.0, rng_seed=7)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            train(samples, vocab, config, n_classes=2)

    def test_momentum_accepted(self):
        samples, vocab = separable_dataset(6)
        config = TrainConfig(epochs=30, momentum=0.9, learning_rate=0.05, rng_seed=9)
        model, log = train(samples, vocab, config, n_classes=2)
        assert np.all(np.isfinite(model.concept_weights))
        assert log[-1].total < log[0].total

    @pytest.mark.parametrize("label", [-1, 2])
    def test_a_label_outside_the_class_range_is_a_data_error(self, label):
        """A negative label would index the last class of the head."""
        samples, vocab = separable_dataset(3)
        samples[1] = replace(samples[1], label=label)
        with pytest.raises(DataError, match=rf"sample 0-1: class label {label} outside \[0, 2\)"):
            train(samples, vocab, TrainConfig(epochs=1), n_classes=2)

    def test_the_class_count_is_given_not_read_off_the_labels(self):
        """Data that lacks the top class still trains a head over every class."""
        samples, vocab = separable_dataset(3)
        model, _ = train(samples, vocab, TrainConfig(epochs=1), n_classes=3)
        assert model.num_classes == 3
        with pytest.raises(TypeError, match="n_classes"):
            train(samples, vocab, TrainConfig(epochs=1))

    def test_make_batch_shapes(self):
        samples, vocab = separable_dataset(3)
        batch = make_batch(samples)
        assert batch.embeddings.shape == (6, 2)
        assert batch.concept_targets.shape == (6, 2)
        assert batch.labels.shape == (6,)


GOLDEN_DIR = Path(__file__).parent / "data"


def golden_training(config):
    """The run behind a golden checkpoint: synth seed 3, concept sets at
    λ=0.5, trained under `config` (one of `GOLDEN_CONFIGS`)."""
    spec = SynthSpec(classes=3, concepts_per_class=4, samples_per_class=10,
                     embedding_dim=8, seed=3, with_pixels=False)
    samples, catalog = generate_synthetic(spec)
    vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
    labeled = [label_sample(s, vocab) for s in samples]
    model, _ = train(labeled, vocab, config, n_classes=catalog.num_classes)
    return model, vocab


# Each file was written by `dataio.save_model` from `golden_training` under
# its config. `model_seed3_momentum.json` was written before vocabularies
# recorded their `lambda_hat` and `budget`; those of `golden_training` were
# added to it by hand, and its arrays, vocabulary and config are as written.
# `model_seed3_plain.json` pins the default update rule, momentum 0, on 30
# samples in batches of 8, so each epoch ends on a batch of 6.
GOLDEN_CONFIGS = {
    "model_seed3_momentum.json": TrainConfig(
        epochs=30, momentum=0.9, learning_rate=0.05, batch_size=8, rng_seed=3
    ),
    "model_seed3_plain.json": TrainConfig(
        epochs=30, learning_rate=0.1, batch_size=8, rng_seed=3
    ),
}


def assert_retraining_reproduces(name):
    """The four arrays, the vocabulary with its calibration, and the config,
    exactly."""
    config = GOLDEN_CONFIGS[name]
    model, vocab = golden_training(config)
    golden, golden_vocab, golden_config = load_model(GOLDEN_DIR / name)
    for got, want in zip(model._arrays(), golden._arrays()):
        assert np.array_equal(got, want)
    assert vocab.concepts == golden_vocab.concepts
    assert (vocab.lambda_hat, vocab.budget) == (golden_vocab.lambda_hat, golden_vocab.budget)
    assert golden_config == config


class TestGoldenCheckpoint:
    def test_retraining_reproduces_the_checkpoint(self):
        """Pins the momentum update. The file was written while `TrainConfig`
        still had `l1_proximal`, so loading it also covers a checkpoint that
        records the removed key."""
        path = GOLDEN_DIR / "model_seed3_momentum.json"
        assert json.loads(path.read_text())["config"]["l1_proximal"] is False
        assert_retraining_reproduces(path.name)

    def test_retraining_reproduces_the_plain_checkpoint(self):
        """Pins the default update, momentum 0, with a short last batch."""
        assert_retraining_reproduces("model_seed3_plain.json")
