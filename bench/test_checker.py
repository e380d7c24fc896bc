"""Tests of the benchmark's independent checker.

The losses are compared with values worked out by hand on an axis-aligned
catalog, and every check is shown to fail on an artifact corrupted in the
one way it guards against. Artifacts come from a small real pipeline run.
The last test covers the digest `run.py` compares reruns with.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402

E = np.eye(4)
AXIS_CATALOG = {
    "classes": [
        {"label": 0, "concepts": [
            {"id": 0, "text": "a", "embedding": E[0].tolist()},
            {"id": 1, "text": "b", "embedding": E[1].tolist()},
            {"id": 2, "text": "c", "embedding": (-E[0]).tolist()},
        ]},
        {"label": 1, "concepts": [
            {"id": 3, "text": "d", "embedding": E[2].tolist()},
            {"id": 4, "text": "e", "embedding": E[3].tolist()},
            {"id": 5, "text": "f", "embedding": (-E[2]).tolist()},
        ]},
    ]
}


def test_losses_match_hand_computed_values():
    # Image along e1, class 0. Similarities 1 + cos: a=2, b=1, c=0, and 1 for
    # each class-1 concept, so the competing mass is 3. Pool dissimilarities
    # (1 - cos)/2: ab=1/2, ac=1, bc=1/2, total 2.
    cat = checker.Catalog(AXIS_CATALOG)
    prefix = cat.prefix_losses(E[0], 0, [0, 1, 2])
    np.testing.assert_allclose(prefix[0], [1.0, 1 - 2 / 3, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(prefix[1], [1.0, 0.5, 1 / 6, 0.0], atol=1e-15)
    np.testing.assert_allclose(prefix[2], [1.0, 1.0, 0.75, 0.0], atol=1e-15)
    # {a, c}: selected mass 2; b is 1/2 from both; the one pair ac is 1.
    np.testing.assert_allclose(cat.set_losses(E[0], 0, [0, 2]), [1 / 3, 1 / 6, 0.5], atol=1e-15)


def test_grid_membership_is_decimal_exact():
    rule = checker.GridRule(1e-3)
    assert rule.entry_key(0.7) == 300
    assert rule.entry_key(0.73519) == 265
    assert rule.entry_key(1.0) == 0 and rule.entry_key(0.0) == 1000
    dets = [{"concept_id": 1, "confidence": 0.7}, {"concept_id": 2, "confidence": 0.69}]
    assert checker.admitted_ids(dets, rule, 0.3) == {1}
    assert checker.admitted_ids(dets, checker.BreakpointRule(), 1.0 - 0.69) == {1, 2}


# ---------------------------------------------------------------------------
# Corrupted artifacts
# ---------------------------------------------------------------------------

CONFIG = {
    "budget": {"alpha_dis": 0.8, "alpha_cov": 0.3, "alpha_div": 0.5},
    "augmentation": {"min_count": 30},
    "train": {"epochs": 40, "learning_rate": 0.5},
    "eval": {"nec": 4},
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    from riskcbm import dataio
    from riskcbm.pipeline import PipelineConfig, run_pipeline
    from riskcbm.synth import SynthSpec, generate_synthetic

    base = tmp_path_factory.mktemp("pipeline")
    inputs = base / "inputs"
    inputs.mkdir()
    samples, catalog = generate_synthetic(
        SynthSpec(classes=3, concepts_per_class=4, samples_per_class=50,
                  embedding_dim=16, noise=0.1, seed=3, image_size=32)
    )
    train = [s for s in samples if int(s.sample_id.split("-s")[1]) < 40]
    test = [s for s in samples if int(s.sample_id.split("-s")[1]) >= 40]
    dataio.save_catalog(inputs / "catalog.json", catalog)
    dataio.save_dataset(inputs / "train.ndjson", train)
    dataio.save_dataset(inputs / "test.ndjson", test)
    doc = dict(CONFIG, paths={
        "train": str(inputs / "train.ndjson"), "test": str(inputs / "test.ndjson"),
        "catalog": str(inputs / "catalog.json"), "output_dir": str(base / "out"),
    })
    run_pipeline(PipelineConfig.from_dict(doc))
    return inputs, base / "out"


def _checks(inputs, out, config=CONFIG):
    return {c.name: c for c in checker.check_pipeline(inputs, out, config, augmentation=True)}


def test_pristine_run_passes_every_check(pristine):
    checks = _checks(*pristine)
    assert checks["augment.rows"].ok, "fixture must exercise augmentation"
    assert [c for c in checks.values() if not c.ok] == []


def _edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _edit_rows(path, fn):
    rows = checker.read_ndjson(path)
    rows = fn(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _first(rows, kind):
    return next(r for r in rows if r["provenance"]["kind"] == kind)


def flip_concept_bit(out):
    def fn(rows):
        row = _first(rows, "original")
        row["concept_vector"][0] ^= 1
        return rows
    _edit_rows(out / "dataset_aug.ndjson", fn)


def drop_vocabulary_concept(out):
    _edit_json(out / "vocabulary.json", lambda d: d["concepts"].pop())


def raise_lambda(out):
    def fn(d):
        d["lambda_dis"] = round(d["lambda_dis"] + 0.05, 3)
        d["lambda_hat"] = max(d["lambda_hat"], d["lambda_dis"])
    _edit_json(out / "calibration.json", fn)


def edit_lambda_hat(out):
    _edit_json(out / "calibration.json", lambda d: d.update(lambda_hat=1.0))


def bend_curve(out):
    _edit_json(out / "calibration.json", lambda d: d["curves"]["cov"]["risks"].__setitem__(0, 0.5))


def move_placement(out):
    def fn(rows):
        row = _first(rows, "augmented")
        x1, y1, x2, y2 = row["provenance"]["placement"]
        row["provenance"]["placement"] = [x1 + 32, y1, x2 + 32, y2]
        return rows
    _edit_rows(out / "dataset_aug.ndjson", fn)


def repaint_outside_placement(out):
    row = _first(checker.read_ndjson(out / "dataset_aug.ndjson"), "augmented")
    x1, y1, x2, y2 = (int(v) for v in row["provenance"]["placement"])
    pixels = checker.read_pixels(out / row["pixels_path"]).copy()
    y = 0 if y1 > 0 else y2  # a row outside the placement
    pixels[y, 0, 0] = 1.0 - pixels[y, 0, 0]
    path = out / row["pixels_path"]
    path.write_bytes(path.read_bytes()[:16] + pixels.astype("<f4").tobytes())


def relabel_augmented(out):
    def fn(rows):
        row = _first(rows, "augmented")
        row["label"] = (row["label"] + 1) % 3
        return rows
    _edit_rows(out / "dataset_aug.ndjson", fn)


def self_sourced(out):
    def fn(rows):
        row = _first(rows, "augmented")
        row["provenance"]["source_id"] = row["id"].rsplit("-aug-", 1)[0]
        return rows
    _edit_rows(out / "dataset_aug.ndjson", fn)


def drop_augmented_rows(out):
    _edit_rows(out / "dataset_aug.ndjson",
               lambda rows: [r for r in rows if r["provenance"]["kind"] == "original"])


def edit_report(key):
    def fn(out):
        _edit_json(out / "eval_report.json", lambda d: d.update({key: d[key] - 0.01}))
    return fn


def zero_cca(out):
    _edit_json(out / "eval_report.json", lambda d: d.update(cca=0.0))


def worsen_training(out):
    path = out / "training_log.csv"
    lines = path.read_text().splitlines()
    first_total = lines[1].split(",")[-1]
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + [first_total])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "corrupt, failing",
    [
        (flip_concept_bit, "concept_vectors"),
        (drop_vocabulary_concept, "vocabulary"),
        (raise_lambda, "calibration.dis"),
        (edit_lambda_hat, "calibration.lambda_hat"),
        (bend_curve, "curve.cov"),
        (move_placement, "augment.placement"),
        (repaint_outside_placement, "augment.pixels"),
        (relabel_augmented, "augment.label"),
        (self_sourced, "augment.source"),
        (drop_augmented_rows, "min_count"),
        (drop_augmented_rows, "augment.rows"),
        (edit_report("overall_accuracy"), "eval.accuracy"),
        (edit_report("worst_class_accuracy"), "eval.worst_class"),
        (edit_report("cca"), "eval.cca"),
        (zero_cca, "eval.cca_nonzero"),
        (worsen_training, "training.converged"),
    ],
)
def test_each_check_fails_on_its_corruption(pristine, tmp_path, corrupt, failing):
    inputs, out = pristine
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy)
    checks = _checks(inputs, copy)
    assert not checks[failing].ok, checks[failing]


def test_unattained_budget_fails_calibration(pristine):
    inputs, out = pristine
    config = dict(CONFIG, budget=dict(CONFIG["budget"], alpha_dis=0.05))
    check = _checks(inputs, out, config)["calibration.dis"]
    assert not check.ok and "unattained" in check.detail


# ---------------------------------------------------------------------------
# crc-check report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crc_report(tmp_path_factory):
    from riskcbm import dataio
    from riskcbm.calibration import ExchangeablePool, RiskBudget, validate_guarantee
    from riskcbm.synth import SynthSpec, generate_synthetic

    samples, catalog = generate_synthetic(
        SynthSpec(samples_per_class=60, seed=5, with_pixels=False)
    )
    report = validate_guarantee(
        RiskBudget(0.7, 0.2, 0.2), ExchangeablePool(samples, catalog),
        n_cal=50, n_trials=200, seed=5,
    )
    path = tmp_path_factory.mktemp("crc") / "crc.json"
    dataio.save_guarantee_report(path, report)
    return path


def test_crc_report_checks(crc_report, tmp_path):
    assert all(c.ok for c in checker.check_guarantee(crc_report, 0.01))
    corruptions = {
        "crc.verdict": lambda d: d.update(verdict="fail"),
        "crc.fallback": lambda d: d["per_criterion"]["div"].update(fallback_rate=0.1),
        "crc.target_loss.dis": lambda d: d["per_criterion"]["dis"].update(mean_target_loss=0.8),
    }
    for name, fn in corruptions.items():
        path = tmp_path / f"{name}.json"
        shutil.copy(crc_report, path)
        _edit_json(path, fn)
        failed = {c.name for c in checker.check_guarantee(path, 0.01) if not c.ok}
        assert name in failed


# ---------------------------------------------------------------------------
# Rerun digest
# ---------------------------------------------------------------------------


def test_digest_covers_files_in_subdirectories(tmp_path):
    import run

    (tmp_path / "dataset_aug.ndjson").write_text("{}\n")
    (tmp_path / "dataset_aug.pixels").mkdir()
    tensor = tmp_path / "dataset_aug.pixels" / "s0.ult1"
    tensor.write_bytes(b"ULT1\x01")
    digests = [run._digest(tmp_path)]
    tensor.write_bytes(b"ULT1\x02")
    digests.append(run._digest(tmp_path))
    tensor.rename(tmp_path / "dataset_aug.pixels" / "s1.ult1")
    digests.append(run._digest(tmp_path))
    assert len(set(digests)) == 3
