"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration
at runtime.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import make_catalog, make_sample, random_instance
from riskcbm import dataio
from riskcbm.calibration import (
    ExchangeablePool,
    RiskBudget,
    build_loss_profiles,
    calibrate,
    calibrate_criterion,
    corrected_budget,
    default_grid,
    empirical_risk,
    validate_guarantee,
)
from riskcbm.cbm_trainer import Batch, TrainConfig, gradient_check, train
from riskcbm.concept_sets import (
    CRITERIA,
    ConceptSet,
    build_concept_set,
    confidence_admits,
    coverage_loss,
    discriminability_loss,
    diversity_loss,
    set_size,
)
from riskcbm.dataset_builder import (
    AugmentationConfig,
    augment_dataset,
    build_vocabulary,
    label_sample,
)
from riskcbm.evaluation import EvalConfig, accuracy_report
from riskcbm.pipeline import split_train_cal
from riskcbm.synth import SynthSpec, generate_synthetic


BUDGET = RiskBudget(alpha_dis=0.7, alpha_cov=0.2, alpha_div=0.2)


def passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def crc_pool():
    spec = SynthSpec(classes=4, concepts_per_class=6, samples_per_class=500,
                     embedding_dim=16, noise=0.1, seed=0, with_pixels=False)
    samples, catalog = generate_synthetic(spec)
    return ExchangeablePool(samples=samples, catalog=catalog)


@pytest.fixture(scope="module")
def crc_report(crc_pool):
    start = time.perf_counter()
    report = validate_guarantee(BUDGET, crc_pool, n_cal=100, n_trials=2000, seed=0)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """Criterion-8 setup: 4 classes x 6 concepts x 50 train samples per class,
    default config, held-out test split from the same generation run."""
    start = time.perf_counter()
    spec = SynthSpec(classes=4, concepts_per_class=6, samples_per_class=70,
                     embedding_dim=16, noise=0.1, seed=0)
    samples, catalog = generate_synthetic(spec)
    by_class: dict[int, list] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    train_samples, test_samples = [], []
    for label in sorted(by_class):
        train_samples.extend(by_class[label][:50])
        test_samples.extend(by_class[label][50:])

    train_part, cal_part = split_train_cal(train_samples, 0.8, seed=0)
    result = calibrate(BUDGET, cal_part, catalog)
    vocab = build_vocabulary(train_part, catalog, result.lambda_hat, result.budget)
    labeled = [label_sample(s, vocab) for s in train_part]
    augmented, _ = augment_dataset(labeled, vocab, result.lambda_hat,
                                   AugmentationConfig())
    model, log = train(augmented, vocab, TrainConfig(),
                       n_classes=catalog.num_classes)
    report = accuracy_report(model, test_samples, vocab, catalog, EvalConfig())
    elapsed = time.perf_counter() - start
    return {
        "catalog": catalog,
        "test": test_samples,
        "result": result,
        "vocab": vocab,
        "model": model,
        "config": TrainConfig(),
        "report": report,
        "elapsed": elapsed,
        "augmented": augmented,
    }


class TestCriterion1:
    def test_crc_guarantee(self, crc_report):
        """Mean target loss per criterion within alpha + 0.01 over 2000 trials."""
        report, elapsed = crc_report
        assert report.verdict == "pass"
        for k in CRITERIA:
            cov = report.per_criterion[k]
            assert cov.mean_target_loss <= cov.alpha + 0.01, k
        assert elapsed <= 60.0
        passed(1, (
            "crc-check 2000 trials, n_cal=100: "
            + ", ".join(
                f"{k} {report.per_criterion[k].mean_target_loss:.4f}<="
                f"{report.per_criterion[k].alpha}+0.01"
                for k in CRITERIA
            )
            + f" ({elapsed:.1f}s)"
        ))


class TestCriterion2:
    def test_conservativeness_on_fixtures(self):
        """empirical_risk at lambda_k meets the corrected budget whenever lambda_k < 1."""
        rng = np.random.default_rng(100)
        checked = 0
        for trial in range(12):
            spec = SynthSpec(classes=3, concepts_per_class=4,
                             samples_per_class=int(rng.integers(8, 20)),
                             seed=int(rng.integers(100_000)), with_pixels=False)
            samples, catalog = generate_synthetic(spec)
            budget = RiskBudget(
                alpha_dis=float(rng.uniform(0.3, 0.85)),
                alpha_cov=float(rng.uniform(0.15, 0.5)),
                alpha_div=float(rng.uniform(0.15, 0.5)),
            )
            result = calibrate(budget, samples, catalog)
            assert result.lambda_hat == max(
                result.lambda_dis, result.lambda_cov, result.lambda_div
            )
            for k in CRITERIA:
                lam = result.lambda_for(k)
                if lam < 1.0:
                    limit = corrected_budget(budget.alpha_for(k), len(samples))
                    assert empirical_risk(k, lam, samples, catalog) <= limit
                    checked += 1
        assert checked >= 12
        passed(2, f"conservativeness exact on {checked} calibrated thresholds "
                  "across 12 fixtures")


class TestCriterion3:
    def test_monotonicity_suite(self):
        """Losses non-increasing and set size non-decreasing on a 1001-point grid."""
        rng = np.random.default_rng(101)
        grid = np.linspace(0.0, 1.0, 1001)
        losses = {
            "dis": discriminability_loss,
            "cov": coverage_loss,
            "div": diversity_loss,
        }
        violations = 0
        for _ in range(100):
            sample, catalog = random_instance(
                rng, n_classes=3, per_class=int(rng.integers(3, 7)), d=8
            )
            previous_set = None
            previous = {"size": -1}
            for lam in grid:
                cset = build_concept_set(sample, float(lam))
                size = set_size(cset)
                if size < previous["size"]:
                    violations += 1
                if previous_set is not None and cset.members == previous_set:
                    # identical member set: the losses are pure functions of
                    # the set, so the values cannot have changed
                    previous["size"] = size
                    continue
                values = {k: fn(cset, sample, catalog) for k, fn in losses.items()}
                if previous_set is not None:
                    for k in CRITERIA:
                        if values[k] > previous[k]:
                            violations += 1
                previous = {**values, "size": size}
                previous_set = cset.members
        assert violations == 0
        passed(3, "losses non-increasing and |C| non-decreasing over 100 samples "
                  "x 1001-point grid, zero violations")

    def test_direct_grid_spot_check(self):
        """Full direct evaluation (no set-change shortcut) on 5 samples."""
        rng = np.random.default_rng(102)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(5):
            sample, catalog = random_instance(rng, per_class=4, d=8)
            last = {"dis": np.inf, "cov": np.inf, "div": np.inf, "size": -1}
            for lam in grid:
                cset = build_concept_set(sample, float(lam))
                now = {
                    "dis": discriminability_loss(cset, sample, catalog),
                    "cov": coverage_loss(cset, sample, catalog),
                    "div": diversity_loss(cset, sample, catalog),
                    "size": set_size(cset),
                }
                assert now["dis"] <= last["dis"]
                assert now["cov"] <= last["cov"]
                assert now["div"] <= last["div"]
                assert now["size"] >= last["size"]
                last = now


class TestCriterion4:
    def test_search_equals_exhaustive_scan(self):
        rng = np.random.default_rng(103)
        grid = default_grid()
        agreements = 0
        for trial in range(20):
            spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=2,
                             seed=int(rng.integers(100_000)), with_pixels=False)
            samples, catalog = generate_synthetic(spec)
            criterion = CRITERIA[trial % 3]
            alpha = float(rng.uniform(0.4, 0.9))
            searched = calibrate_criterion(criterion, alpha, samples, catalog)
            risks = build_loss_profiles(samples, catalog).risk_on_grid(criterion, grid)
            budget = corrected_budget(alpha, len(samples))
            assert searched == oracles.scan_threshold(risks, budget, grid), (
                "search equals exhaustive scan"
            )
            agreements += 1
        passed(4, f"search equals exhaustive scan on {agreements} fixtures; "
                  "losses match brute force to 1e-12 (see companion test)")

    def test_losses_match_brute_force(self):
        rng = np.random.default_rng(104)
        for _ in range(50):
            per_class = int(rng.integers(2, 7))  # candidate pools of at most 6
            sample, catalog = random_instance(rng, per_class=per_class)
            lam = float(rng.uniform(0, 1))
            cset = build_concept_set(sample, lam)
            assert cset.members == oracles.concept_set(sample, lam)
            assert abs(
                discriminability_loss(cset, sample, catalog)
                - oracles.loss_dis(cset.members, sample, catalog)
            ) <= 1e-12
            assert abs(
                coverage_loss(cset, sample, catalog)
                - oracles.loss_cov(cset.members, sample, catalog)
            ) <= 1e-12
            assert abs(
                diversity_loss(cset, sample, catalog)
                - oracles.loss_div(cset.members, sample, catalog)
            ) <= 1e-12


class TestCriterion5:
    def test_empty_and_singleton_conventions(self):
        catalog = make_catalog({0: [[1, 0], [0, 1], [1, 1]], 1: [[-1, 0], [0, -1]]})
        sample = make_sample("s", 0, [1.0, 0.3], [])
        empty = ConceptSet(members=frozenset(), lambda_used=0.0)
        assert discriminability_loss(empty, sample, catalog) == 1.0
        assert coverage_loss(empty, sample, catalog) == 1.0
        assert diversity_loss(empty, sample, catalog) == 1.0
        singleton = ConceptSet(
            members=frozenset({catalog.concepts_for(0)[0]}), lambda_used=None
        )
        assert diversity_loss(singleton, sample, catalog) == 1.0
        passed(5, "empty set scores exactly 1 on all criteria; "
                  "singleton diversity is exactly 1")


class TestCriterion6:
    def test_fifty_augmentation_runs(self):
        lam_hat = 0.3
        min_count = 8
        total_augmented = 0
        for seed in range(50):
            spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=12,
                             seed=seed, image_size=64)
            samples, catalog = generate_synthetic(spec)
            vocab = build_vocabulary(samples, catalog, lam_hat, BUDGET)
            labeled = [label_sample(s, vocab) for s in samples]
            config = AugmentationConfig(min_count=min_count, rng_seed=seed)
            augmented, report = augment_dataset(labeled, vocab, lam_hat, config)
            counts = np.zeros(len(vocab), dtype=int)
            for s in augmented:
                counts += s.concept_vector
            for outcome in report.outcomes:
                if outcome.status != "unseedable":
                    assert counts[vocab.index_of[outcome.concept]] >= min_count, (
                        seed, outcome.concept.id, outcome.status,
                    )
            originals = {s.sample_id: s for s in labeled}
            for s in augmented:
                if s.is_original:
                    continue
                total_augmented += 1
                target = originals[s.sample_id.rsplit("-aug-", 1)[0]]
                placement = s.provenance.placement
                blocked = [
                    d.box for d in target.detections
                    if confidence_admits(d.confidence, lam_hat)
                    and d.concept != s.provenance.inserted_concept
                ]
                assert not any(placement.overlaps(b) for b in blocked)
                x1, y1, x2, y2 = (int(round(v)) for v in (
                    placement.x1, placement.y1, placement.x2, placement.y2))
                outside = np.ones(s.image_pixels.shape[:2], dtype=bool)
                outside[y1:y2, x1:x2] = False
                assert np.array_equal(
                    s.image_pixels[outside], target.image_pixels[outside]
                )
                expected = np.asarray(target.concept_vector).copy()
                expected[vocab.index_of[s.provenance.inserted_concept]] = 1
                assert np.array_equal(s.concept_vector, expected)
        assert total_augmented > 0
        passed(6, f"50 augmentation runs, {total_augmented} synthesized samples, "
                  "zero placement/pixel/label violations, all counts met")


class TestCriterion7:
    def test_gradient_check_ten_models(self):
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(10):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(2, 6))
            L = int(rng.integers(2, 5))
            n = int(rng.integers(2, 8))
            from riskcbm.cbm_trainer import CbmModel
            head = rng.uniform(0.05, 0.6, size=(L, k)) * rng.choice(
                [-1.0, 1.0], size=(L, k)
            )
            model = CbmModel(
                concept_weights=rng.normal(scale=0.5, size=(k, d)),
                concept_bias=rng.normal(scale=0.2, size=k),
                head_weights=head,
                head_bias=rng.normal(scale=0.2, size=L),
            )
            batch = Batch(
                embeddings=rng.normal(size=(n, d)),
                concept_targets=rng.integers(0, 2, size=(n, k)).astype(float),
                labels=rng.integers(0, L, size=n),
            )
            config = TrainConfig(
                gamma1=float(rng.uniform(0.2, 2.0)),
                gamma2=float(rng.uniform(0.001, 0.05)),
                beta=float(rng.uniform(0.0, 1.0)),
            )
            worst = max(worst, gradient_check(model, batch, config, step=1e-5))
        assert worst <= 1e-4
        passed(7, f"max relative gradient error {worst:.2e} <= 1e-4 "
                  "over 10 random small models")


class TestCriterion8:
    def test_end_to_end_synthetic_pipeline(self, e2e_run):
        report = e2e_run["report"]
        result = e2e_run["result"]
        assert report.overall_accuracy >= 0.9
        assert report.cca >= 0.5
        held_out = {
            k: empirical_risk(k, result.lambda_hat, e2e_run["test"],
                              e2e_run["catalog"])
            for k in CRITERIA
        }
        for k in CRITERIA:
            assert held_out[k] <= BUDGET.alpha_for(k) + 0.05, (k, held_out[k])
        assert e2e_run["elapsed"] <= 120.0
        passed(8, (
            f"end-to-end: accuracy {report.overall_accuracy:.3f}>=0.9, "
            f"cca {report.cca:.3f}>=0.5, held-out risks "
            + ", ".join(f"{k}={held_out[k]:.3f}" for k in CRITERIA)
            + f" within alpha+0.05 ({e2e_run['elapsed']:.1f}s)"
        ))


class TestCriterion9:
    def test_crc_rerun_bit_identical(self, crc_pool, crc_report, tmp_path):
        report, _ = crc_report
        rerun = validate_guarantee(BUDGET, crc_pool, n_cal=100, n_trials=2000,
                                   seed=0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dataio.save_guarantee_report(a, report)
        dataio.save_guarantee_report(b, rerun)
        assert a.read_bytes() == b.read_bytes()
        passed(9, "crc-check and pipeline reruns with identical seeds are "
                  "bit-identical (pipeline half in companion test)")

    def test_pipeline_rerun_bit_identical(self, e2e_run, tmp_path):
        rerun = {}
        spec = SynthSpec(classes=4, concepts_per_class=6, samples_per_class=70,
                         embedding_dim=16, noise=0.1, seed=0)
        samples, catalog = generate_synthetic(spec)
        by_class: dict[int, list] = {}
        for s in samples:
            by_class.setdefault(s.label, []).append(s)
        train_samples, test_samples = [], []
        for label in sorted(by_class):
            train_samples.extend(by_class[label][:50])
            test_samples.extend(by_class[label][50:])
        train_part, cal_part = split_train_cal(train_samples, 0.8, seed=0)
        result = calibrate(BUDGET, cal_part, catalog)
        vocab = build_vocabulary(train_part, catalog, result.lambda_hat, result.budget)
        labeled = [label_sample(s, vocab) for s in train_part]
        augmented, _ = augment_dataset(labeled, vocab, result.lambda_hat,
                                       AugmentationConfig())
        model, _ = train(augmented, vocab, TrainConfig(),
                         n_classes=catalog.num_classes)
        report = accuracy_report(model, test_samples, vocab, catalog, EvalConfig())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dataio.save_eval_report(a, e2e_run["report"])
        dataio.save_eval_report(b, report)
        assert a.read_bytes() == b.read_bytes()
        ma, mb = tmp_path / "ma.json", tmp_path / "mb.json"
        dataio.save_model(ma, e2e_run["model"], e2e_run["vocab"], TrainConfig())
        dataio.save_model(mb, model, vocab, TrainConfig())
        assert ma.read_bytes() == mb.read_bytes()


class TestCriterion10:
    def test_round_trip_identity(self, tmp_path, e2e_run, crc_report):
        spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=6,
                         seed=11, image_size=32)
        samples, catalog = generate_synthetic(spec)

        dataio.save_catalog(tmp_path / "cat.json", catalog)
        catalog2 = dataio.load_catalog(tmp_path / "cat.json")
        dataio.save_catalog(tmp_path / "cat2.json", catalog2)
        assert (tmp_path / "cat.json").read_bytes() == (tmp_path / "cat2.json").read_bytes()

        (tmp_path / "again").mkdir()
        dataio.save_dataset(tmp_path / "d.ndjson", samples)
        back = dataio.load_dataset(tmp_path / "d.ndjson", catalog)
        dataio.save_dataset(tmp_path / "again" / "d.ndjson", back)
        assert (tmp_path / "d.ndjson").read_text() == (
            tmp_path / "again" / "d.ndjson"
        ).read_text()

        model, vocab = e2e_run["model"], e2e_run["vocab"]
        dataio.save_model(tmp_path / "m.json", model, vocab, e2e_run["config"])
        m2, v2, c2 = dataio.load_model(tmp_path / "m.json")
        dataio.save_model(tmp_path / "m2.json", m2, v2, c2)
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

        dataio.save_calibration(tmp_path / "c.json", e2e_run["result"])
        r2 = dataio.load_calibration(tmp_path / "c.json")
        dataio.save_calibration(tmp_path / "c2.json", r2)
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

        dataio.save_eval_report(tmp_path / "e.json", e2e_run["report"])
        e2 = dataio.load_eval_report(tmp_path / "e.json")
        dataio.save_eval_report(tmp_path / "e2.json", e2)
        assert (tmp_path / "e.json").read_bytes() == (tmp_path / "e2.json").read_bytes()

        report, _ = crc_report
        dataio.save_guarantee_report(tmp_path / "g.json", report)
        g2 = dataio.load_guarantee_report(tmp_path / "g.json")
        dataio.save_guarantee_report(tmp_path / "g2.json", g2)
        assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()
        passed(10, "dataset/catalog/model/calibration/eval/guarantee artifacts "
                   "round-trip byte-identically")
