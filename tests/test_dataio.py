"""Serialization round trips and parse error reporting."""

import errno
import json
import os
import re
import shutil
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskcbm import dataio
from riskcbm.calibration import (
    DEFAULT_BUDGET,
    CalibrationResult,
    CriterionCoverage,
    ExchangeablePool,
    GuaranteeReport,
    RiskBudget,
    RiskCurve,
    calibrate,
    validate_guarantee,
)
from riskcbm.cbm_trainer import CbmModel, TrainConfig, train
from riskcbm.concept_sets import CRITERIA
from riskcbm.core import BoundingBox, ConceptId, DataError
from riskcbm.dataset_builder import (
    AugmentationConfig,
    ConceptVocabulary,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from riskcbm.evaluation import EvalConfig, EvalReport, SampleCompliance, accuracy_report
from riskcbm.pipeline import Paths, PipelineConfig, run_pipeline, split_train_cal
from riskcbm.synth import SynthSpec, generate_synthetic


@pytest.fixture
def synth():
    spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=8,
                     seed=17, image_size=32)
    return generate_synthetic(spec)


def assert_samples_equal(a, b):
    assert a.sample_id == b.sample_id
    assert a.label == b.label
    assert np.array_equal(a.image_embedding, b.image_embedding)
    assert len(a.detections) == len(b.detections)
    for da, db in zip(a.detections, b.detections):
        assert da.concept == db.concept
        assert da.confidence == db.confidence
        assert da.box == db.box
    if a.image_pixels is None:
        assert b.image_pixels is None
    else:
        assert np.array_equal(a.image_pixels, b.image_pixels)


class TestPixels:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.random((5, 7, 3)).astype(np.float32)
        path = tmp_path / "img.ult1"
        dataio.save_pixels(path, arr)
        assert path.read_bytes()[:4] == b"ULT1"
        back = dataio.load_pixels(path)
        assert np.array_equal(arr, back)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.ult1"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(dataio.DataFormatError, match="magic"):
            dataio.load_pixels(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "img.ult1"
        dataio.save_pixels(path, rng.random((4, 4, 3)).astype(np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(dataio.DataFormatError, match="truncated"):
            dataio.load_pixels(path)


class TestWrite:
    @pytest.mark.parametrize("old", [None, b"x" * 100, b"y"], ids=["new", "longer", "shorter"])
    @pytest.mark.parametrize("data", [b"abc\ndef\n", "ab\u00e9\n"], ids=["bytes", "str"])
    def test_file_holds_exactly_the_data(self, tmp_path, old, data):
        path = tmp_path / "f"
        if old is not None:
            path.write_bytes(old)
        dataio._write(path, data)
        want = data.encode("utf-8") if isinstance(data, str) else data
        assert path.read_bytes() == want

    def test_a_new_file_gets_the_mode_open_wb_gives(self, tmp_path):
        with open(tmp_path / "reference", "wb"):
            pass
        dataio._write(tmp_path / "f", b"")
        assert (tmp_path / "f").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_a_failed_write_leaves_the_prefix_written_and_no_old_tail(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f"
        path.write_bytes(b"o" * 64)
        real_write = os.write
        calls = []

        def failing_write(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, bytes(data[:5]))

        monkeypatch.setattr(os, "write", failing_write)
        with pytest.raises(OSError) as caught:
            dataio._write(path, b"0123456789")
        monkeypatch.undo()
        assert caught.value.errno == errno.ENOSPC
        assert path.read_bytes() == b"01234"

    def test_every_file_a_pipeline_run_writes_goes_through_it(self, tmp_path, monkeypatch):
        samples, catalog = generate_synthetic(
            SynthSpec(classes=2, concepts_per_class=3, samples_per_class=40,
                      seed=17, image_size=32)
        )
        dataio.save_catalog(tmp_path / "catalog.json", catalog)
        dataio.save_dataset(tmp_path / "train.ndjson", samples[::2])
        dataio.save_dataset(tmp_path / "test.ndjson", samples[1::2])
        written = []
        real_write = dataio._write

        def recording_write(path, data):
            written.append(Path(path))
            real_write(path, data)

        monkeypatch.setattr(dataio, "_write", recording_write)
        out = tmp_path / "run"
        run_pipeline(
            PipelineConfig(
                paths=Paths(
                    train=str(tmp_path / "train.ndjson"),
                    test=str(tmp_path / "test.ndjson"),
                    catalog=str(tmp_path / "catalog.json"),
                    output_dir=str(out),
                ),
                train=TrainConfig(epochs=3),
            )
        )
        on_disk = {p for p in out.rglob("*") if p.is_file()}
        assert any(p.suffix == ".ult1" for p in on_disk)
        assert on_disk == set(written)


class TestCatalog:
    def test_round_trip(self, tmp_path, synth):
        _, catalog = synth
        path = tmp_path / "catalog.json"
        dataio.save_catalog(path, catalog)
        back = dataio.load_catalog(path)
        assert back.num_classes == catalog.num_classes
        for c in catalog.all_concepts():
            assert np.array_equal(back.embedding_of(c), catalog.embedding_of(c))
        # second save is byte-identical
        path2 = tmp_path / "catalog2.json"
        dataio.save_catalog(path2, back)
        assert path.read_bytes() == path2.read_bytes()
        # a file listing classes and concepts out of id order loads in id order
        doc = json.loads(path.read_text())
        for entry in doc["classes"]:
            entry["concepts"].reverse()
        doc["classes"].reverse()
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(doc))
        back = dataio.load_catalog(shuffled)
        assert back.concepts == catalog.concepts
        assert back.embeddings.tobytes() == catalog.embeddings.tobytes()
        dataio.save_catalog(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_a_class_listed_twice_is_rejected(self, tmp_path, synth):
        _, catalog = synth
        path = tmp_path / "catalog.json"
        dataio.save_catalog(path, catalog)
        doc = json.loads(path.read_text())
        first, second = doc["classes"]
        second["label"] = 0
        for c in second["concepts"]:
            c["id"] += 100
        path.write_text(json.dumps(doc))
        with pytest.raises(dataio.DataFormatError, match=r"catalog\.json: .*class 0 listed twice"):
            dataio.load_catalog(path)

    def test_a_class_with_no_concepts_is_rejected(self, tmp_path, synth):
        _, catalog = synth
        path = tmp_path / "catalog.json"
        dataio.save_catalog(path, catalog)
        doc = json.loads(path.read_text())
        doc["classes"].append({"label": 2, "concepts": []})
        path.write_text(json.dumps(doc))
        with pytest.raises(dataio.DataFormatError, match=r"catalog\.json: .*class 2 has no concepts"):
            dataio.load_catalog(path)

    @pytest.mark.parametrize(
        "fault, problem",
        [("wider", "embedding dimension 17 != 16"), ("zero", "zero embedding")],
    )
    def test_an_unusable_concept_embedding_is_blamed_on_the_catalog(
        self, tmp_path, synth, fault, problem
    ):
        _, catalog = synth
        path = tmp_path / "catalog.json"
        dataio.save_catalog(path, catalog)
        doc = json.loads(path.read_text())
        concept = doc["classes"][1]["concepts"][1]
        if fault == "wider":
            concept["embedding"].append(0.5)
        else:
            concept["embedding"] = [0.0] * len(concept["embedding"])
        path.write_text(json.dumps(doc))
        with pytest.raises(
            dataio.DataFormatError,
            match=rf"catalog\.json: .*concept 4 \('trait 1\.1'\): {problem}",
        ):
            dataio.load_catalog(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('{"classes": [{"label": 0}]}')
        with pytest.raises(dataio.DataFormatError):
            dataio.load_catalog(path)


class TestDataset:
    def test_round_trip_with_pixels(self, tmp_path, synth):
        samples, catalog = synth
        path = tmp_path / "data.ndjson"
        dataio.save_dataset(path, samples)
        back = dataio.load_dataset(path, catalog)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert_samples_equal(a, b)
        # save(load(x)) is byte-identical to save(x); same filename so the
        # relative pixel paths match
        (tmp_path / "again").mkdir()
        path2 = tmp_path / "again" / "data.ndjson"
        dataio.save_dataset(path2, back)
        assert path.read_text() == path2.read_text()

    def test_truncated_line_names_lineno(self, tmp_path, synth):
        samples, catalog = synth
        path = tmp_path / "data.ndjson"
        dataio.save_dataset(path, samples[:3])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(dataio.DataFormatError, match=r"data\.ndjson:2"):
            dataio.load_dataset(path, catalog)

    def test_missing_pixel_tensor_names_the_line(self, tmp_path, synth):
        samples, catalog = synth
        dataio.save_dataset(tmp_path / "train.ndjson", samples)
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "train.ndjson"
        copy.write_text((tmp_path / "train.ndjson").read_text())  # no .pixels/
        missing = re.escape(f"train.pixels/{samples[0].sample_id}.ult1")
        with pytest.raises(dataio.DataFormatError,
                           match=rf"train\.ndjson:1: cannot read pixel tensor .*{missing}"):
            dataio.load_dataset(copy, catalog)

    @pytest.mark.parametrize("fault", ["absolute", "parent"])
    def test_a_pixels_path_outside_the_dataset_directory_is_rejected(
        self, tmp_path, synth, fault
    ):
        """Each named file is a valid tensor, so only the path rule rejects it."""
        samples, catalog = synth
        dataio.save_dataset(tmp_path / "train.ndjson", samples)
        shutil.copytree(tmp_path / "train.pixels", tmp_path / "copy" / "train.pixels")
        copy = tmp_path / "copy" / "train.ndjson"
        lines = (tmp_path / "train.ndjson").read_text().splitlines()
        doc = json.loads(lines[0])
        tensor = tmp_path / doc["pixels_path"]
        doc["pixels_path"] = {"absolute": str(tensor), "parent": f"../{doc['pixels_path']}"}[fault]
        copy.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        with pytest.raises(dataio.DataFormatError,
                           match=r"copy/train\.ndjson:1: pixels_path .* '\.\.' part"):
            dataio.load_dataset(copy, catalog)

    def test_a_bad_pixel_tensor_names_the_line(self, tmp_path, synth):
        samples, catalog = synth
        path = tmp_path / "train.ndjson"
        dataio.save_dataset(path, samples)
        tensor = tmp_path / json.loads(path.read_text().splitlines()[2])["pixels_path"]
        tensor.write_bytes(b"not a tensor")
        with pytest.raises(dataio.DataFormatError,
                           match=r"train\.ndjson:3: .*bad pixel tensor magic"):
            dataio.load_dataset(path, catalog)

    def test_unknown_concept_id(self, tmp_path, synth):
        samples, catalog = synth
        path = tmp_path / "data.ndjson"
        dataio.save_dataset(path, samples[:1])
        doc = json.loads(path.read_text().splitlines()[0])
        doc["detections"][0]["concept_id"] = 999
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataError, match="unknown concept id 999"):
            dataio.load_dataset(path, catalog)

    def test_line_that_is_not_an_object(self, tmp_path, synth):
        _, catalog = synth
        path = tmp_path / "data.ndjson"
        path.write_text("[1, 2]\n")
        with pytest.raises(dataio.DataFormatError, match=r"data\.ndjson:1: malformed sample"):
            dataio.load_dataset(path, catalog)

    def test_validation_failures_reported(self, tmp_path, synth):
        samples, catalog = synth
        path = tmp_path / "data.ndjson"
        dataio.save_dataset(path, samples[:1])
        doc = json.loads(path.read_text().splitlines()[0])
        doc["detections"][0]["confidence"] = 1.7
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataError, match="confidence out of"):
            dataio.load_dataset(path, catalog)
        # validate=False skips the check
        got = dataio.load_dataset(path, catalog, validate=False)
        assert got[0].detections[0].confidence == 1.7

    @pytest.mark.parametrize("fault", ["repeated", "escaping"])
    def test_unsafe_sample_id_raises_before_any_write(self, fault, tmp_path, synth):
        """Pixel tensors are written to files named by sample id: a repeated
        id would overwrite one, a `../` id would land outside the directory."""
        samples, _ = synth
        bad_id = {"repeated": samples[0].sample_id, "escaping": "../escaped"}[fault]
        samples = [samples[0], replace(samples[1], sample_id=bad_id), *samples[2:]]
        with pytest.raises(DataError, match=re.escape(f"sample {bad_id!r}: ")):
            dataio.save_dataset(tmp_path / "data.ndjson", samples)
        assert list(tmp_path.iterdir()) == []


class TestLabeledDataset:
    def test_a_smaller_save_removes_the_tensors_no_record_names(self, tmp_path, synth):
        """Only `.ult1` files go: another file in the pixel directory stays."""
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.4, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        path = tmp_path / "labeled.ndjson"
        dataio.save_labeled_dataset(path, labeled[:5])
        (tmp_path / "labeled.pixels" / "notes.txt").write_text("kept")
        dataio.save_labeled_dataset(path, labeled[2:5])
        names = sorted(p.name for p in (tmp_path / "labeled.pixels").iterdir())
        assert names == sorted(
            ["notes.txt", *(f"{s.sample_id}.ult1" for s in labeled[2:5])]
        )
        assert len(dataio.load_labeled_dataset(path, catalog)) == 3

    def test_a_save_without_pixels_leaves_no_pixel_directory(self, tmp_path, synth):
        samples, _ = synth
        path = tmp_path / "data.ndjson"
        dataio.save_dataset(path, samples[:2])
        dataio.save_dataset(path, [replace(s, image_pixels=None) for s in samples[:2]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.ndjson"]

    def test_round_trip_including_augmented(self, tmp_path, synth):
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.4, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        augmented, _ = augment_dataset(
            labeled, vocab, 0.4, AugmentationConfig(min_count=4, rng_seed=1)
        )
        path = tmp_path / "labeled.ndjson"
        dataio.save_labeled_dataset(path, augmented)
        back = dataio.load_labeled_dataset(path, catalog)
        assert len(back) == len(augmented)
        for a, b in zip(augmented, back):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.concept_vector, b.concept_vector)
            assert a.provenance.kind == b.provenance.kind
            if a.provenance.kind == "augmented":
                assert a.provenance.source_id == b.provenance.source_id
                assert a.provenance.inserted_concept == b.provenance.inserted_concept
                assert a.provenance.placement == b.provenance.placement
            if a.image_pixels is not None:
                assert np.array_equal(a.image_pixels, b.image_pixels)
        (tmp_path / "again").mkdir()
        path2 = tmp_path / "again" / "labeled.ndjson"
        dataio.save_labeled_dataset(path2, back)
        assert path.read_text() == path2.read_text()

    def test_an_augmented_record_loads_with_its_placement(self, artifacts, tmp_path):
        """The record that the `MALFORMED_VALUES` placement rows break loads
        as it is, so each of them fails on its placement alone."""
        (tmp_path / "catalog.json").write_bytes((artifacts / "catalog.json").read_bytes())
        doc = json.loads((artifacts / "labeled.ndjson").read_text())
        doc["provenance"] = AUGMENTED
        path = tmp_path / "labeled.ndjson"
        path.write_text(json.dumps(doc) + "\n")
        (sample,) = load_labeled(path)
        assert sample.provenance.placement == BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert sample.provenance.inserted_concept.id == 0

    def test_record_is_the_annotated_record_plus_two_fields(self, tmp_path, synth):
        """Both sample files share one layout: a labeled line without
        `concept_vector` and `provenance` is the annotated line."""
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.4, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        dataio.save_dataset(tmp_path / "a" / "data.ndjson", samples)
        dataio.save_labeled_dataset(tmp_path / "b" / "data.ndjson", labeled)
        plain = (tmp_path / "a" / "data.ndjson").read_text().splitlines()
        rich = (tmp_path / "b" / "data.ndjson").read_text().splitlines()
        assert len(plain) == len(rich) == len(samples)
        for a, b in zip(plain, rich):
            doc = json.loads(b)
            assert set(doc) - set(json.loads(a)) == {"concept_vector", "provenance"}
            del doc["concept_vector"], doc["provenance"]
            assert json.dumps(doc, sort_keys=True) == a


class TestVocabularyAndModel:
    def test_vocabulary_round_trip(self, tmp_path, synth):
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
        path = tmp_path / "vocab.json"
        dataio.save_vocabulary(path, vocab)
        back = dataio.load_vocabulary(path)
        assert back.concepts == vocab.concepts
        assert (back.lambda_hat, back.budget) == (0.5, DEFAULT_BUDGET)

    def test_model_round_trip(self, tmp_path, synth):
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        config = TrainConfig(epochs=5, rng_seed=2)
        model, _ = train(labeled, vocab, config, n_classes=catalog.num_classes)
        path = tmp_path / "model.json"
        dataio.save_model(path, model, vocab, config)
        model2, vocab2, config2 = dataio.load_model(path)
        assert np.array_equal(model.concept_weights, model2.concept_weights)
        assert np.array_equal(model.concept_bias, model2.concept_bias)
        assert np.array_equal(model.head_weights, model2.head_weights)
        assert np.array_equal(model.head_bias, model2.head_bias)
        assert vocab2.concepts == vocab.concepts
        assert (vocab2.lambda_hat, vocab2.budget) == (0.5, DEFAULT_BUDGET)
        assert config2 == config
        path2 = tmp_path / "model2.json"
        dataio.save_model(path2, model2, vocab2, config2)
        assert path.read_bytes() == path2.read_bytes()


class TestReports:
    def test_calibration_round_trip(self, tmp_path, synth):
        samples, catalog = synth
        result = calibrate(RiskBudget(0.7, 0.2, 0.2), samples, catalog,
                           resolution=1e-2)
        path = tmp_path / "calibration.json"
        dataio.save_calibration(path, result)
        back = dataio.load_calibration(path)
        assert back.lambda_hat == result.lambda_hat
        assert back.n_cal == result.n_cal
        for k, curve in result.curves.items():
            assert np.array_equal(back.curves[k].grid, curve.grid)
            assert np.array_equal(back.curves[k].risks, curve.risks)
        path2 = tmp_path / "calibration2.json"
        dataio.save_calibration(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_eval_report_round_trip(self, tmp_path, synth):
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        model, _ = train(labeled, vocab, TrainConfig(epochs=5),
                         n_classes=catalog.num_classes)
        report = accuracy_report(model, samples, vocab, catalog, EvalConfig())
        path = tmp_path / "report.json"
        dataio.save_eval_report(path, report)
        back = dataio.load_eval_report(path)
        assert back.overall_accuracy == report.overall_accuracy
        assert back.cca == report.cca
        assert np.array_equal(back.per_class_accuracy, report.per_class_accuracy)
        assert len(back.per_sample) == len(report.per_sample)
        path2 = tmp_path / "report2.json"
        dataio.save_eval_report(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_guarantee_report_round_trip(self, tmp_path, synth):
        samples, catalog = synth
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        report = validate_guarantee(RiskBudget(0.7, 0.2, 0.2), pool,
                                    n_cal=6, n_trials=100, seed=3)
        path = tmp_path / "crc.json"
        dataio.save_guarantee_report(path, report)
        back = dataio.load_guarantee_report(path)
        assert back.verdict == report.verdict
        for k in report.per_criterion:
            assert (back.per_criterion[k].mean_target_loss
                    == report.per_criterion[k].mean_target_loss)
        path2 = tmp_path / "crc2.json"
        dataio.save_guarantee_report(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_tabular_outputs(self, tmp_path, synth):
        samples, catalog = synth
        vocab = build_vocabulary(samples, catalog, 0.5, DEFAULT_BUDGET)
        labeled = [label_sample(s, vocab) for s in samples]
        model, log = train(labeled, vocab, TrainConfig(epochs=3),
                           n_classes=catalog.num_classes)
        dataio.save_training_log(tmp_path / "log.csv", log)
        text = (tmp_path / "log.csv").read_text()
        assert text.startswith("epoch,loss_concept,loss_task,regularizer,total")
        assert len(text.splitlines()) == len(log) + 1
        dataio.write_dat(tmp_path / "t.dat", ["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = (tmp_path / "t.dat").read_text().splitlines()
        assert lines[0] == "# a b"
        assert lines[1] == "1 2.5"


# ---------------------------------------------------------------------------
# Round-trip properties: every field of every JSON artifact, at values no
# program run produces.
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
ALPHA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
COUNT = st.integers(0, 2**40)
budgets = st.builds(RiskBudget, ALPHA, ALPHA, ALPHA)
configs = st.builds(
    TrainConfig,
    gamma1=st.floats(0.0, 1e6), gamma2=st.floats(0.0, 1e6), beta=UNIT,
    learning_rate=st.floats(0.0, 1e6), epochs=st.integers(1, 10**6),
    batch_size=st.integers(1, 10**6), rng_seed=COUNT,
    momentum=st.floats(0.0, 1.0, exclude_max=True),
)


def finite_arrays(shape):
    return arrays(np.float64, shape, elements=FINITE)


@st.composite
def vocabularies(draw, min_size=0):
    ids = sorted(draw(st.sets(COUNT, min_size=min_size, max_size=6)))
    return ConceptVocabulary(tuple(
        ConceptId(id=i, text=draw(st.text(min_size=1)), class_of_origin=draw(COUNT))
        for i in ids
    ), draw(UNIT), draw(budgets))


@st.composite
def checkpoints(draw):
    vocab = draw(vocabularies(min_size=1))
    k, d, n_classes = len(vocab), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    model = CbmModel(
        draw(finite_arrays((k, d))), draw(finite_arrays(k)),
        draw(finite_arrays((n_classes, k))), draw(finite_arrays(n_classes)),
    )
    return model, vocab, draw(configs)


@st.composite
def risk_curves(draw, criterion):
    grid = sorted(draw(st.lists(UNIT, min_size=1, max_size=6, unique=True)))
    risks = sorted(draw(st.lists(FINITE, min_size=len(grid), max_size=len(grid))), reverse=True)
    return RiskCurve(criterion, np.array(grid), np.array(risks))


@st.composite
def calibration_results(draw):
    lambdas = draw(st.lists(UNIT, min_size=3, max_size=3))
    criteria = draw(st.lists(st.sampled_from(CRITERIA), unique=True))
    return CalibrationResult(
        *lambdas, max(lambdas), draw(COUNT), draw(budgets),
        {k: draw(risk_curves(k)) for k in criteria},
    )


@st.composite
def guarantee_reports(draw):
    criteria = draw(st.lists(st.sampled_from(CRITERIA), unique=True))
    return GuaranteeReport(
        n_trials=draw(COUNT), n_cal=draw(COUNT), seed=draw(COUNT), slack=draw(FINITE),
        resolution=draw(FINITE), exchangeable=draw(st.booleans()), pool_size=draw(COUNT),
        budget=draw(budgets),
        per_criterion={
            k: CriterionCoverage(k, *draw(st.lists(FINITE, min_size=5, max_size=5)))
            for k in criteria
        },
        mean_lambda_hat=draw(FINITE), verdict=draw(st.text()),
        notes=draw(st.lists(st.text(), max_size=3)),
    )


eval_reports = st.builds(
    EvalReport,
    overall_accuracy=UNIT, worst_class_accuracy=UNIT, cca=UNIT,
    per_class_accuracy=finite_arrays(st.integers(0, 5)),
    per_sample=st.lists(st.builds(
        SampleCompliance, st.text(), st.booleans(), st.booleans(), st.booleans(),
        st.booleans(),
    ), max_size=5),
    nec=COUNT, budget=budgets, n_samples=COUNT,
)


def assert_fields_equal(a, b):
    """Equal field by field, down through nested dataclasses and containers;
    arrays by `np.array_equal` and shape, scalars by value and type."""
    assert type(a) is type(b), (a, b)
    if is_dataclass(a):
        for f in fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b), (a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_fields_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_fields_equal(x, y)
    else:
        assert a == b, (a, b)


def round_trip(save, load, *artifact):
    """Save, load and save again; the two files must be byte-identical.
    Returns what was loaded, as a tuple."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save(first, *artifact)
        back = load(first)
        back = back if isinstance(back, tuple) else (back,)
        save(second, *back)
        assert first.read_bytes() == second.read_bytes()
    return back


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(checkpoints())
    def test_model(self, checkpoint):
        assert_fields_equal(
            round_trip(dataio.save_model, dataio.load_model, *checkpoint), checkpoint
        )

    @settings(max_examples=60, deadline=None)
    @given(vocabularies())
    def test_vocabulary(self, vocab):
        assert_fields_equal(
            round_trip(dataio.save_vocabulary, dataio.load_vocabulary, vocab), (vocab,)
        )

    @settings(max_examples=60, deadline=None)
    @given(calibration_results())
    def test_calibration(self, result):
        assert_fields_equal(
            round_trip(dataio.save_calibration, dataio.load_calibration, result), (result,)
        )

    @settings(max_examples=60, deadline=None)
    @given(guarantee_reports())
    def test_guarantee_report(self, report):
        assert_fields_equal(
            round_trip(dataio.save_guarantee_report, dataio.load_guarantee_report, report),
            (report,),
        )

    @settings(max_examples=60, deadline=None)
    @given(eval_reports)
    def test_eval_report(self, report):
        assert_fields_equal(
            round_trip(dataio.save_eval_report, dataio.load_eval_report, report), (report,)
        )


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One valid file of each JSON artifact kind, and one-record sample
    files, plain and labeled."""
    out = tmp_path_factory.mktemp("artifacts")
    samples, catalog = generate_synthetic(
        SynthSpec(classes=2, concepts_per_class=3, samples_per_class=8, seed=17,
                  with_pixels=False)
    )
    budget = RiskBudget(0.7, 0.2, 0.2)
    vocab = build_vocabulary(samples, catalog, 0.5, budget)
    labeled = [label_sample(s, vocab) for s in samples]
    config = TrainConfig(epochs=3)
    model, _ = train(labeled, vocab, config, n_classes=catalog.num_classes)
    pool = ExchangeablePool(samples=samples, catalog=catalog)
    dataio.save_catalog(out / "catalog.json", catalog)
    dataio.save_dataset(out / "dataset.ndjson", samples[:1])
    dataio.save_labeled_dataset(out / "labeled.ndjson", labeled[:1])
    dataio.save_vocabulary(out / "vocabulary.json", vocab)
    dataio.save_model(out / "model.json", model, vocab, config)
    dataio.save_calibration(
        out / "calibration.json", calibrate(budget, samples, catalog, resolution=1e-2)
    )
    dataio.save_guarantee_report(
        out / "guarantee.json",
        validate_guarantee(budget, pool, n_cal=6, n_trials=100, seed=3),
    )
    dataio.save_eval_report(
        out / "eval.json", accuracy_report(model, samples, vocab, catalog, EvalConfig())
    )
    return out


def _set(*keys, value):
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
    return mutate


def _drop(*keys):
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return mutate


def _drop_calibration(doc):
    del doc["lambda_hat"], doc["budget"]


def _beside_catalog(load):
    """A sample-file loader that resolves concept ids against the catalog
    file in the same directory."""
    return lambda path: load(path, dataio.load_catalog(path.parent / "catalog.json"))


load_samples = _beside_catalog(dataio.load_dataset)
load_labeled = _beside_catalog(dataio.load_labeled_dataset)
AUGMENTED_UNKNOWN_CONCEPT = {"kind": "augmented", "source_id": "x", "inserted_concept_id": 999}
# An augmented provenance that loads, with its placement window.
AUGMENTED = {"kind": "augmented", "source_id": "x", "inserted_concept_id": 0,
             "placement": [0.0, 0.0, 1.0, 1.0]}


def _augmented(**changes):
    """`AUGMENTED` with ``changes``, a key given None left out."""
    return {k: v for k, v in {**AUGMENTED, **changes}.items() if v is not None}


# A value of the right JSON shape that the loader cannot build from, or a
# missing key, by input: the file it goes into, the loader and the change.
MALFORMED_VALUES = {
    "catalog": ("catalog.json", dataio.load_catalog,
                _set("classes", 0, "label", value="x")),
    "vocabulary": ("vocabulary.json", dataio.load_vocabulary,
                   _set("concepts", 0, "id", value="x")),
    "vocabulary_budget": ("vocabulary.json", dataio.load_vocabulary,
                          _set("budget", "alpha_dis", value=1.5)),
    "vocabulary_lambda_hat_only": ("vocabulary.json", dataio.load_vocabulary,
                                   _drop("budget")),
    "vocabulary_budget_only": ("vocabulary.json", dataio.load_vocabulary,
                               _drop("lambda_hat")),
    "vocabulary_no_calibration": ("vocabulary.json", dataio.load_vocabulary,
                                  _drop_calibration),
    "model": ("model.json", dataio.load_model, _set("config", "epochs", value=0)),
    "model_budget": ("model.json", dataio.load_model, _set("budget", "alpha_cov", value=0)),
    "model_no_calibration": ("model.json", dataio.load_model, _drop_calibration),
    "model_config_no_momentum": ("model.json", dataio.load_model, _drop("config", "momentum")),
    "calibration": ("calibration.json", dataio.load_calibration,
                    _set("lambda_hat", value=lambda v: v + 1.0)),
    "guarantee": ("guarantee.json", dataio.load_guarantee_report,
                  _set("n_trials", value="x")),
    "eval": ("eval.json", dataio.load_eval_report, _set("nec", value="x")),
    "guarantee_no_fallback_rate": ("guarantee.json", dataio.load_guarantee_report,
                                   _drop("per_criterion", "dis", "fallback_rate")),
    "guarantee_no_notes": ("guarantee.json", dataio.load_guarantee_report,
                           _drop("notes")),
    "calibration_no_curves": ("calibration.json", dataio.load_calibration,
                              _drop("curves")),
    "eval_no_sample_id": ("eval.json", dataio.load_eval_report,
                          _drop("per_sample", 0, "id")),
    "embedding": ("dataset.ndjson", load_samples,
                  _set("embedding", 0, value=float("nan"))),
    "detection_concept": ("dataset.ndjson", load_samples,
                          _set("detections", 0, "concept_id", value=999)),
    "concept_vector": ("labeled.ndjson", load_labeled,
                       _set("concept_vector", 0, value=2)),
    "concept_vector_negative": ("labeled.ndjson", load_labeled,
                                _set("concept_vector", 0, value=-1)),
    "provenance_kind": ("labeled.ndjson", load_labeled,
                        _set("provenance", "kind", value="pasted")),
    "inserted_concept": ("labeled.ndjson", load_labeled,
                         _set("provenance", value=AUGMENTED_UNKNOWN_CONCEPT)),
    "augmented_no_placement": ("labeled.ndjson", load_labeled,
                               _set("provenance", value=_augmented(placement=None))),
    # JSON typing: an int is also a float, a bool is neither. A value of
    # another JSON type is an error, never converted.
    "catalog_fractional_label": ("catalog.json", dataio.load_catalog,
                                 _set("classes", 0, "label", value=lambda v: v + 0.6)),
    "vocabulary_bool_lambda_hat": ("vocabulary.json", dataio.load_vocabulary,
                                   _set("lambda_hat", value=True)),
    "vocabulary_fractional_id": ("vocabulary.json", dataio.load_vocabulary,
                                 _set("concepts", 0, "id", value=lambda v: v + 0.9)),
    "model_fractional_epochs": ("model.json", dataio.load_model,
                                _set("config", "epochs", value=lambda v: v + 0.5)),
    "eval_string_correct": ("eval.json", dataio.load_eval_report,
                            _set("per_sample", 0, "correct", value="no")),
    "eval_fractional_nec": ("eval.json", dataio.load_eval_report,
                            _set("nec", value=lambda v: v + 0.9)),
    "fractional_label": ("dataset.ndjson", load_samples,
                         _set("label", value=lambda v: v + 0.6)),
    "bool_confidence": ("dataset.ndjson", load_samples,
                        _set("detections", 0, "confidence", value=True)),
    "bool_pixels_path": ("dataset.ndjson", load_samples, _set("pixels_path", value=False)),
    "int_pixels_path": ("dataset.ndjson", load_samples, _set("pixels_path", value=0)),
    "object_detections": ("dataset.ndjson", load_samples, _set("detections", value={})),
    "string_detections": ("dataset.ndjson", load_samples, _set("detections", value="")),
    "int_placement": ("labeled.ndjson", load_labeled,
                      _set("provenance", value=_augmented(placement=0))),
    "empty_placement": ("labeled.ndjson", load_labeled,
                        _set("provenance", value=_augmented(placement=[]))),
    # Arrays follow the same rule, item by item.
    "fractional_concept_vector": ("labeled.ndjson", load_labeled,
                                  _set("concept_vector", 0, value=0.6)),
    "bool_concept_vector": ("labeled.ndjson", load_labeled,
                            _set("concept_vector", 0, value=True)),
    "bool_embedding": ("dataset.ndjson", load_samples,
                       _set("embedding", 0, value=True)),
    "string_embedding": ("dataset.ndjson", load_samples,
                         _set("embedding", 0, value="0.5")),
    "catalog_bool_embedding": ("catalog.json", dataio.load_catalog,
                               _set("classes", 0, "concepts", 0, "embedding", 0,
                                    value=True)),
    "model_bool_weight": ("model.json", dataio.load_model,
                          _set("concept_weights", 0, 0, value=True)),
    "model_bool_bias": ("model.json", dataio.load_model,
                        _set("head_bias", 0, value=False)),
}


@pytest.mark.parametrize("kind", list(MALFORMED_VALUES))
def test_malformed_value_is_a_format_error_naming_the_file(kind, artifacts, tmp_path):
    """The message names the file once, and for a sample file its line."""
    name, load, mutate = MALFORMED_VALUES[kind]
    load(artifacts / name)  # the file as written loads
    doc = json.loads((artifacts / name).read_text())
    mutate(doc)
    (tmp_path / "catalog.json").write_bytes((artifacts / "catalog.json").read_bytes())
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    where = f"{path}:1" if path.suffix == ".ndjson" else f"{path}"
    with pytest.raises(dataio.DataFormatError, match=re.escape(f"{where}: malformed")) as exc:
        load(path)
    assert str(exc.value).count(str(path)) == 1, exc.value


@pytest.mark.parametrize("name", ["vocabulary.json", "dataset.ndjson"])
def test_file_that_is_not_utf8_is_a_format_error_naming_it(name, artifacts, tmp_path):
    load = {"vocabulary.json": dataio.load_vocabulary, "dataset.ndjson": load_samples}[name]
    (tmp_path / "catalog.json").write_bytes((artifacts / "catalog.json").read_bytes())
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe" + (artifacts / name).read_text().encode("utf-16-le"))
    with pytest.raises(dataio.DataFormatError, match=re.escape(f"{path}: not UTF-8")):
        load(path)


class TestSplit:
    def test_sizes(self, synth):
        samples, _ = synth
        train_part, cal_part = split_train_cal(samples, 0.8, seed=0)
        assert len(train_part) == round(0.8 * len(samples))
        assert len(train_part) + len(cal_part) == len(samples)
        ids = {s.sample_id for s in train_part} | {s.sample_id for s in cal_part}
        assert len(ids) == len(samples)

    def test_rounding_rule(self, synth):
        samples, _ = synth
        train_part, cal_part = split_train_cal(samples[:3], 0.5, seed=1)
        assert (len(train_part), len(cal_part)) == (2, 1)

    def test_determinism(self, synth):
        samples, _ = synth
        a = split_train_cal(samples, 0.75, seed=42)
        b = split_train_cal(samples, 0.75, seed=42)
        assert [s.sample_id for s in a[0]] == [s.sample_id for s in b[0]]
        assert [s.sample_id for s in a[1]] == [s.sample_id for s in b[1]]

    def test_too_few_samples(self, synth):
        samples, _ = synth
        with pytest.raises(DataError):
            split_train_cal(samples[:1], 0.5, seed=0)
        with pytest.raises(ValueError):
            split_train_cal(samples, 1.0, seed=0)
