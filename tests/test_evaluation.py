"""Prediction, effective concept sets, and the compliance report."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_catalog, make_sample
from riskcbm.calibration import DEFAULT_BUDGET, RiskBudget
from riskcbm import dataio
from riskcbm.cbm_trainer import CbmModel, TrainConfig
from riskcbm.cli import main
from riskcbm.core import DataError
from riskcbm.dataset_builder import ConceptLabeledSample, ConceptVocabulary, Provenance
from riskcbm.evaluation import EvalConfig, _ranked_candidates, accuracy_report, cca_versus_nec


def bias_model(concept_biases, head, d=2):
    """Model whose concept logits are fixed biases, independent of input."""
    k = len(concept_biases)
    head = np.asarray(head, dtype=float)
    return CbmModel(
        concept_weights=np.zeros((k, d)),
        concept_bias=np.asarray(concept_biases, dtype=float),
        head_weights=head,
        head_bias=np.zeros(head.shape[0]),
    )


@pytest.fixture
def catalog():
    return make_catalog(
        {0: [[1, 0], [0, 1], [1, 1]], 1: [[-1, 0], [0, -1], [-1, -1]]}
    )


@pytest.fixture
def vocab(catalog):
    return ConceptVocabulary(
        concepts=tuple(catalog.concepts_for(0)) + tuple(catalog.concepts_for(1)),
        lambda_hat=0.5,
        budget=DEFAULT_BUDGET,
    )


def predicted(model, sample, vocab):
    """The sample's argmax class, from the batch ranking of one sample."""
    return _ranked_candidates(model, [sample], vocab)[0][0]


def effective_set(model, sample, vocab, nec):
    """The sample's top-``nec`` vocabulary concepts of its predicted class,
    from the batch ranking of one sample."""
    ranked = _ranked_candidates(model, [sample], vocab)[1][0]
    return [vocab.concepts[i] for i in ranked[:nec]]


def at_budget(vocab, alpha_dis, alpha_cov, alpha_div):
    """``vocab`` as if built at a calibration for this budget."""
    return replace(vocab, budget=RiskBudget(alpha_dis, alpha_cov, alpha_div))


class TestPredict:
    def test_argmax_and_ties(self, catalog, vocab):
        sample = make_sample("s", 0, [1.0, 0.0], [])
        k = len(vocab)
        def with_head_bias(bias):
            return CbmModel(
                concept_weights=np.zeros((k, 2)),
                concept_bias=np.zeros(k),
                head_weights=np.zeros((len(bias), k)),
                head_bias=np.asarray(bias, dtype=float),
            )
        assert predicted(with_head_bias([2.0, -1.0]), sample, vocab) == 0
        assert predicted(with_head_bias([1.0, 1.0]), sample, vocab) == 0  # tie-break
        assert predicted(with_head_bias([-5.0, -1.0, -3.0]), sample, vocab) == 1


class TestEffectiveConceptSet:
    def test_top_k_by_activation(self, catalog, vocab):
        # activations favor concepts 0 and 2 of the predicted class 0
        model = bias_model([3.0, -2.0, 1.5, -9, -9, -9], [[1.0] * 6, [0.0] * 6])
        sample = make_sample("s", 0, [1.0, 0.0], [])
        got = effective_set(model, sample, vocab, nec=2)
        ids = {c.id for c in got}
        assert ids == {0, 2}

    def test_nec_larger_than_class_pool(self, catalog, vocab):
        model = bias_model([0.0] * 6, [[1.0] * 6, [0.0] * 6])
        sample = make_sample("s", 0, [1.0, 0.0], [])
        got = effective_set(model, sample, vocab, nec=10)
        assert {c.id for c in got} == {0, 1, 2}

    def test_tie_break_smallest_index(self, catalog, vocab):
        model = bias_model([0.5] * 6, [[1.0] * 6, [0.0] * 6])
        sample = make_sample("s", 0, [1.0, 0.0], [])
        got = effective_set(model, sample, vocab, nec=1)
        assert {c.id for c in got} == {0}

    def test_set_restricted_to_predicted_class(self, catalog, vocab):
        # head prefers class 1, so candidates come from class 1 only
        model = bias_model([9.0] * 6, [[0.0] * 6, [1.0] * 6])
        sample = make_sample("s", 0, [1.0, 0.0], [])
        got = effective_set(model, sample, vocab, nec=2)
        assert all(c.class_of_origin == 1 for c in got)
        assert len(got) == 2


class TestAccuracyReport:
    def _samples(self, catalog):
        return [
            make_sample("a", 0, [1.0, 0.1], []),
            make_sample("b", 0, [1.0, -0.1], []),
            make_sample("c", 1, [-1.0, 0.1], []),
            make_sample("d", 1, [-1.0, -0.1], []),
        ]

    def _good_model(self, vocab):
        # concept logits track the matching class via the embedding sign
        k = len(vocab)
        wg = np.zeros((k, 2))
        for i, c in enumerate(vocab.concepts):
            wg[i, 0] = 4.0 if c.class_of_origin == 0 else -4.0
        head = np.zeros((2, k))
        for i, c in enumerate(vocab.concepts):
            head[c.class_of_origin, i] = 2.0
        return CbmModel(wg, np.zeros(k), head, np.zeros(2))

    def test_perfect_model(self, catalog, vocab):
        report = accuracy_report(
            self._good_model(vocab), self._samples(catalog),
            at_budget(vocab, 0.95, 0.6, 0.6), catalog, EvalConfig(nec=3),
        )
        assert report.overall_accuracy == 1.0
        assert report.worst_class_accuracy == 1.0
        assert report.cca == 1.0
        assert report.per_class_accuracy.tolist() == [1.0, 1.0]

    def test_worst_class_is_minimum(self, catalog, vocab):
        # flip one class-1 sample to the wrong side
        samples = self._samples(catalog)
        samples[3] = make_sample("d", 1, [1.0, -0.1], [])
        report = accuracy_report(
            self._good_model(vocab), samples,
            at_budget(vocab, 0.95, 0.6, 0.6), catalog, EvalConfig(nec=3),
        )
        assert report.per_class_accuracy.tolist() == [1.0, 0.5]
        assert report.worst_class_accuracy == 0.5
        assert report.overall_accuracy == 0.75

    def test_cca_counts_conjunction(self, catalog, vocab):
        # tight budgets fail the compliance indicators even when predictions hit
        report = accuracy_report(
            self._good_model(vocab), self._samples(catalog),
            at_budget(vocab, 0.05, 0.05, 0.05), catalog, EvalConfig(nec=1),
        )
        assert report.overall_accuracy == 1.0
        assert report.cca == 0.0
        assert all(not s.compliant for s in report.per_sample)

    def test_all_wrong_predictions(self, catalog, vocab):
        k = len(vocab)
        inverted = CbmModel(
            self._good_model(vocab).concept_weights * -1.0,
            np.zeros(k),
            self._good_model(vocab).head_weights,
            np.zeros(2),
        )
        report = accuracy_report(
            inverted, self._samples(catalog),
            at_budget(vocab, 0.95, 0.6, 0.6), catalog, EvalConfig(nec=3),
        )
        assert report.overall_accuracy == 0.0
        assert report.cca == 0.0

    def test_compliance_is_scored_at_the_vocabulary_budget(self, catalog, vocab):
        """The report records the budget its vocabulary was built at, and a
        vocabulary that records none, as one loaded from a checkpoint written
        before vocabularies recorded it, is an error."""
        report = accuracy_report(
            self._good_model(vocab), self._samples(catalog),
            at_budget(vocab, 0.95, 0.6, 0.6), catalog, EvalConfig(nec=3),
        )
        assert report.budget == RiskBudget(0.95, 0.6, 0.6)
        bare = ConceptVocabulary(concepts=vocab.concepts)
        with pytest.raises(DataError, match="records no lambda_hat and risk budget"):
            accuracy_report(self._good_model(vocab), self._samples(catalog), bare, catalog,
                            EvalConfig())

    def test_missing_class_is_an_error(self, catalog, vocab):
        samples = [make_sample("a", 0, [1.0, 0.1], [])]
        with pytest.raises(DataError, match="absent"):
            accuracy_report(self._good_model(vocab), samples, vocab, catalog,
                            EvalConfig())

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_model_and_catalog_class_counts_must_match(self, catalog, vocab, n_classes):
        k = len(vocab)
        model = CbmModel(np.zeros((k, 2)), np.zeros(k), np.zeros((n_classes, k)),
                         np.zeros(n_classes))
        with pytest.raises(DataError, match=f"model has {n_classes} classes, catalog has 2"):
            accuracy_report(model, self._samples(catalog), vocab, catalog, EvalConfig())

    def test_an_augmented_test_file_scores_every_row_in_the_cli_and_the_library(
        self, catalog, vocab, tmp_path
    ):
        originals = self._samples(catalog)
        rows = [
            ConceptLabeledSample(
                sample_id=s.sample_id, label=s.label, image_embedding=s.image_embedding,
                concept_vector=np.zeros(len(vocab)),
            )
            for s in originals
        ] + [
            ConceptLabeledSample(
                sample_id=f"aug-{s.sample_id}", label=s.label,
                concept_vector=np.zeros(len(vocab)), image_embedding=s.image_embedding,
                provenance=Provenance("augmented", s.sample_id, vocab.concepts[0]),
            )
            for s in originals
        ]
        model = self._good_model(vocab)
        dataio.save_catalog(tmp_path / "catalog.json", catalog)
        dataio.save_labeled_dataset(tmp_path / "aug.ndjson", rows)
        dataio.save_model(tmp_path / "model.json", model, vocab, TrainConfig())
        assert main([
            "evaluate", "--model", str(tmp_path / "model.json"),
            "--dataset", str(tmp_path / "aug.ndjson"),
            "--catalog", str(tmp_path / "catalog.json"), "--out", str(tmp_path / "report.json"),
        ]) == 0
        cli_report = dataio.load_eval_report(tmp_path / "report.json")
        library_report = accuracy_report(
            model, dataio.load_labeled_dataset(tmp_path / "aug.ndjson", catalog), vocab,
            catalog, EvalConfig(),
        )
        assert cli_report.n_samples == library_report.n_samples == len(rows)

    def test_cca_bounded_by_overall(self, catalog, vocab):
        rng = np.random.default_rng(61)
        samples = [
            make_sample(f"r{i}", int(rng.integers(2)),
                        rng.normal(size=2), [])
            for i in range(20)
        ]
        labels = {s.label for s in samples}
        if labels != {0, 1}:
            samples.append(make_sample("fix0", 0, rng.normal(size=2), []))
            samples.append(make_sample("fix1", 1, rng.normal(size=2), []))
        report = accuracy_report(
            self._good_model(vocab), samples,
            at_budget(vocab, 0.5, 0.3, 0.3), catalog, EvalConfig(nec=2),
        )
        assert report.cca <= report.overall_accuracy <= 1.0
        assert report.worst_class_accuracy <= report.overall_accuracy

    def test_nec_sweep(self, catalog, vocab):
        sweep = cca_versus_nec(
            self._good_model(vocab), self._samples(catalog), at_budget(vocab, 0.95, 0.6, 0.6),
            catalog, [1, 2, 3],
        )
        assert [nec for nec, _ in sweep] == [1, 2, 3]
        # at nec = full class pool the effective set is maximal, div loss is 0
        assert sweep[-1][1].cca == 1.0
