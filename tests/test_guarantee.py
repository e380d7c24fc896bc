"""Monte Carlo validation of the risk-control guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_catalog, make_sample
from riskcbm import calibration
from riskcbm.calibration import (
    ExchangeablePool,
    RiskBudget,
    _draw_without_replacement,
    _guarantee_report,
    calibrate,
    corrected_budget,
    validate_guarantee,
)
from riskcbm.concept_sets import CRITERIA
from riskcbm.core import DataError
from riskcbm.synth import SynthSpec, generate_synthetic, shift_distribution


def degenerate_pool(n=40, confidence=1.0):
    """Identical samples whose three losses are all exactly 0 once both own
    concepts are admitted, and 1 before.

    Image at (1,0); own concepts (1,0),(0,1) give similarity mass 3, matched
    exactly by the competing concepts (-1,0),(0,-1),(1,0). Both own concepts
    are detected at ``confidence``: at 1.0 the full pool is selected at lam=0,
    at 0.0 only at lam=1.
    """
    catalog = make_catalog(
        {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1], [1, 0]]}
    )
    c0, c1 = catalog.concepts_for(0)
    samples = [
        make_sample(f"d{i}", 0, [1.0, 0.0], [(c0, confidence), (c1, confidence)])
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


class TestDraws:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_are_distinct_and_independent_of_the_block_size(self, shape, n_draws, seed):
        population, size = shape
        drawn = _draw_without_replacement(np.random.default_rng(seed), population, size, n_draws)
        assert drawn.shape == (n_draws, size)
        assert np.all((0 <= drawn) & (drawn < population))
        assert all(len(set(row)) == size for row in drawn.tolist())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calibration, "_DRAW_CELLS", 1)
            one_row_blocks = _draw_without_replacement(
                np.random.default_rng(seed), population, size, n_draws
            )
        assert np.array_equal(drawn, one_row_blocks)

    def test_every_index_is_equally_likely_in_every_column(self):
        """Column 2 is the target of an n_cal=2 trial; 30000 draws over 5
        indices give each 6000 per column, standard deviation about 69."""
        drawn = _draw_without_replacement(np.random.default_rng(0), 5, 3, 30000)
        for column in drawn.T:
            counts = np.bincount(column, minlength=5)
            assert np.all(np.abs(counts - 6000) <= 350), counts


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

    @pytest.mark.parametrize("slack", [float("nan"), float("inf"), float("-inf"), -0.01])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        """An infinite slack would pass every run and a NaN one fail every
        run, writing a non-JSON ``NaN`` into the report."""
        samples, catalog = degenerate_pool(20)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        with pytest.raises(ValueError, match="slack must be finite and >= 0"):
            validate_guarantee(RiskBudget(0.7, 0.2, 0.2), pool, 5, 100, 0, slack=slack)

    def test_pool_must_cover_ncal_plus_target(self):
        samples, catalog = degenerate_pool(10)
        pool = ExchangeablePool(samples=samples, catalog=catalog)
        with pytest.raises(DataError):
            validate_guarantee(RiskBudget(0.7, 0.2, 0.2), pool, 10, 100, 0)


def _synth_pool(classes, seed, shifted=False):
    spec = SynthSpec(classes=classes, concepts_per_class=4, samples_per_class=40,
                     seed=seed, with_pixels=False)
    samples, catalog = generate_synthetic(spec)
    targets = shift_distribution(samples, seed=seed + 1) if shifted else None
    return ExchangeablePool(samples=samples, catalog=catalog, target_samples=targets)


def _degenerate(confidence):
    samples, catalog = degenerate_pool(confidence=confidence)
    return ExchangeablePool(samples=samples, catalog=catalog)


# name: (pool, budget, n_cal, check of the regime the case stands for)
ENGINE_CASES = {
    "exchangeable": (
        lambda: _synth_pool(3, 1), RiskBudget(0.7, 0.2, 0.2), 30,
        lambda r: r.exchangeable,
    ),
    "shifted": (
        lambda: _synth_pool(2, 7, shifted=True), RiskBudget(0.7, 0.2, 0.2), 30,
        lambda r: not r.exchangeable,
    ),
    "met_at_first_column": (
        lambda: _degenerate(1.0), RiskBudget(0.7, 0.2, 0.2), 10,
        lambda r: r.mean_lambda_hat == 0.0,
    ),
    "met_at_last_column_only": (
        lambda: _degenerate(0.0), RiskBudget(0.7, 0.2, 0.2), 10,
        lambda r: r.mean_lambda_hat == 1.0
        and all(c.fallback_rate == 0.0 for c in r.per_criterion.values()),
    ),
    "never_met": (
        lambda: _synth_pool(4, 6), RiskBudget(0.3, 0.1, 0.1), 60,
        lambda r: r.per_criterion["dis"].fallback_rate == 1.0,
    ),
    "non_positive_budget": (
        lambda: _synth_pool(2, 3), RiskBudget(0.05, 0.9, 0.9), 10,
        lambda r: r.per_criterion["dis"].fallback_rate == 1.0,
    ),
}


class TestBatchedSearchMatchesTrialLoop:
    """The batched per-draw bisection reports exactly what the per-trial loop
    over full-grid means reports. Grid lengths 1001, 101, 4 and 3 take 10, 7,
    3 and 2 bisection steps."""

    @pytest.mark.filterwarnings("ignore:corrected budget non-positive")
    @pytest.mark.parametrize("resolution", [1e-3, 0.01, 0.3, 0.5])
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_report_equals_reference(self, case, resolution):
        make_pool, budget, n_cal, regime = ENGINE_CASES[case]
        pool = make_pool()
        n_trials, seed, slack = 120, 11, 0.01
        report = validate_guarantee(budget, pool, n_cal, n_trials, seed,
                                    resolution=resolution, slack=slack)
        lambda_hats, target_losses, fallbacks = oracles.crc_trials(
            budget, pool, n_cal, n_trials, seed, resolution
        )
        expected = _guarantee_report(
            budget, pool, n_cal, seed, resolution=resolution, slack=slack,
            lambda_hats=lambda_hats, target_losses=target_losses, fallbacks=fallbacks,
        )
        assert regime(report)
        for name, value in vars(expected).items():
            if name == "per_criterion":
                for k in CRITERIA:
                    assert vars(report.per_criterion[k]) == vars(value[k]), k
            else:
                assert getattr(report, name) == value, name
