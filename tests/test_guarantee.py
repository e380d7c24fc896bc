"""Monte Carlo validation of the risk-control guarantee."""

import numpy as np
import pytest

from conftest import make_catalog, make_sample
from riskcbm.calibration import (
    ExchangeablePool,
    RiskBudget,
    calibrate,
    corrected_budget,
    validate_guarantee,
)
from riskcbm.concept_sets import CRITERIA
from riskcbm.core import DataError
from riskcbm.synth import SynthSpec, generate_synthetic, shift_distribution


def degenerate_pool(n=40):
    """Identical samples whose three losses are all exactly 0 at lam=0.

    Image at (1,0); own concepts (1,0),(0,1) give similarity mass 3, matched
    exactly by the competing concepts (-1,0),(0,-1),(1,0); both own concepts
    are detected at confidence 1.0 so the full pool is selected at lam=0.
    """
    catalog = make_catalog(
        {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1], [1, 0]]}
    )
    c0, c1 = catalog.concepts_for(0)
    samples = [
        make_sample(f"d{i}", 0, [1.0, 0.0], [(c0, 1.0), (c1, 1.0)])
        for i in range(n)
    ]
    return samples, catalog


class TestDegenerateSource:
    def test_zero_loss_pool_passes_with_zero_means(self):
        samples, catalog = degenerate_pool()
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        report = validate_guarantee(
            RiskBudget(0.7, 0.2, 0.2), pool, n_cal=10, n_trials=100, seed=0
        )
        assert report.verdict == "pass"
        assert report.exchangeable
        for k in CRITERIA:
            assert report.per_criterion[k].mean_target_loss == 0.0
        assert report.mean_lambda_hat == 0.0


class TestSyntheticSource:
    def test_iid_pool_meets_risk_levels(self):
        spec = SynthSpec(classes=3, concepts_per_class=5, samples_per_class=120,
                         seed=1, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        budget = RiskBudget(0.7, 0.2, 0.2)
        report = validate_guarantee(budget, pool, n_cal=50, n_trials=400, seed=2)
        assert report.verdict == "pass"
        for k in CRITERIA:
            cov = report.per_criterion[k]
            assert cov.mean_target_loss <= cov.alpha + report.slack
            # Monte Carlo bound: mean within alpha + 3 standard errors
            assert cov.mean_target_loss <= cov.alpha + 3.0 * cov.mc_stderr + 1e-12

    def test_determinism(self):
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=80,
                         seed=3, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        budget = RiskBudget(0.7, 0.2, 0.2)
        a = validate_guarantee(budget, pool, n_cal=30, n_trials=150, seed=5)
        b = validate_guarantee(budget, pool, n_cal=30, n_trials=150, seed=5)
        for k in CRITERIA:
            assert a.per_criterion[k].mean_target_loss == b.per_criterion[k].mean_target_loss
            assert a.per_criterion[k].std_target_loss == b.per_criterion[k].std_target_loss
        assert a.mean_lambda_hat == b.mean_lambda_hat

    def test_seed_changes_the_draws(self):
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=80,
                         seed=3, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        budget = RiskBudget(0.7, 0.2, 0.2)
        a = validate_guarantee(budget, pool, n_cal=30, n_trials=150, seed=5)
        b = validate_guarantee(budget, pool, n_cal=30, n_trials=150, seed=6)
        assert any(
            a.per_criterion[k].mean_target_loss != b.per_criterion[k].mean_target_loss
            for k in CRITERIA
        )


class TestUnattainableBudget:
    def test_fallback_regime_is_flagged(self):
        """Risk levels below the full-set loss force lambda=1 and an honest fail."""
        spec = SynthSpec(classes=4, concepts_per_class=5, samples_per_class=60,
                         seed=6, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        report = validate_guarantee(
            RiskBudget(0.3, 0.1, 0.1), pool, n_cal=60, n_trials=150, seed=4
        )
        assert report.verdict == "fail"
        assert report.per_criterion["dis"].fallback_rate == 1.0
        assert any("fell back" in note for note in report.notes)

    def test_non_positive_budget_falls_back_as_calibrate_does(self):
        """With two classes the dis risk goes negative, so a negative corrected
        budget is still reachable; both paths must fall back to lambda=1."""
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=40,
                         seed=3, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        budget = RiskBudget(0.05, 0.9, 0.9)
        assert corrected_budget(0.05, 10) < 0.0
        with pytest.warns(UserWarning, match="too small"):
            assert calibrate(budget, samples[:10], catalog).lambda_dis == 1.0
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        with pytest.warns(UserWarning, match="non-positive"):
            report = validate_guarantee(budget, pool, n_cal=10, n_trials=100, seed=0)
        assert report.per_criterion["dis"].fallback_rate == 1.0
        assert report.mean_lambda_hat == 1.0


class TestShiftedTargets:
    def test_shifted_pool_is_flagged_not_covered(self):
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=60,
                         seed=7, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        pool = ExchangeablePool(
            samples=samples,
            catalog=catalog,
            target_samples=shift_distribution(samples, seed=8),
        )
        report = validate_guarantee(
            RiskBudget(0.7, 0.2, 0.2), pool, n_cal=30, n_trials=150, seed=9
        )
        assert report.verdict == "not covered by theorem"
        assert not report.exchangeable
        assert any("exchangeability" in note for note in report.notes)
        # means are still reported so the operator can inspect the damage
        assert all(
            np.isfinite(report.per_criterion[k].mean_target_loss) for k in CRITERIA
        )


class TestPreconditions:
    def test_minimum_trials(self):
        samples, catalog = degenerate_pool(20)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        with pytest.raises(ValueError):
            validate_guarantee(RiskBudget(0.7, 0.2, 0.2), pool, 5, 50, 0)

    def test_pool_must_cover_ncal_plus_target(self):
        samples, catalog = degenerate_pool(10)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        with pytest.raises(DataError):
            validate_guarantee(RiskBudget(0.7, 0.2, 0.2), pool, 10, 100, 0)
