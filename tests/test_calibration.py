"""Empirical risk, threshold search, and the calibration result contract."""

import warnings

import numpy as np
import pytest

import oracles
from conftest import (
    assert_grid_lookups_match,
    assert_profiles_match,
    make_catalog,
    make_sample,
    random_instance,
)
from riskcbm.calibration import (
    CalibrationResult,
    LossProfiles,
    RiskBudget,
    RiskCurve,
    _breakpoints,
    build_loss_profiles,
    calibrate,
    calibrate_criterion,
    corrected_budget,
    default_grid,
    empirical_risk,
)
from riskcbm.concept_sets import CRITERIA, admission_threshold, build_concept_set
from riskcbm.core import AnnotatedSample, DataError, Detection
from riskcbm.synth import SynthSpec, generate_synthetic


def step_loss_fixture(cutoffs):
    """Samples whose coverage loss is exactly 1{lam < c} for each cutoff c.

    One candidate concept per class and a single detection at confidence
    1 - c: the set is empty below the cutoff (loss 1) and the full singleton
    pool above it (loss 0).
    """
    catalog = make_catalog({0: [[1.0, 0.0]], 1: [[0.0, 1.0]]})
    c0 = catalog.concepts_for(0)[0]
    samples = [
        make_sample(f"s{i}", 0, [1.0, 0.0], [(c0, 1.0 - c)])
        for i, c in enumerate(cutoffs)
    ]
    return samples, catalog


class TestRiskBudget:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            RiskBudget(alpha_dis=0.0, alpha_cov=0.2, alpha_div=0.2)
        with pytest.raises(ValueError):
            RiskBudget(alpha_dis=0.7, alpha_cov=1.0, alpha_div=0.2)
        budget = RiskBudget(0.7, 0.2, 0.3)
        assert budget.alpha_for("div") == 0.3


class TestEmpiricalRisk:
    def test_mean_of_losses(self):
        samples, catalog = step_loss_fixture([0.3, 0.7])
        # at lam=0.5 one sample is covered (loss 0), one is not (loss 1)
        assert empirical_risk("cov", 0.5, samples, catalog) == 0.5

    def test_all_empty_sets_score_one(self):
        catalog = make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, 1], [1, 1]]})
        c0, c1 = catalog.concepts_for(0)
        samples = [
            make_sample(f"s{i}", 0, [1.0, 0.0], [(c0, 0.9), (c1, 0.8)])
            for i in range(3)
        ]
        # at lam=0 the threshold is 1.0, so every set is empty
        assert empirical_risk("cov", 0.0, samples, catalog) == 1.0
        assert empirical_risk("div", 0.0, samples, catalog) == 1.0
        assert empirical_risk("dis", 0.0, samples, catalog) == 1.0

    def test_single_sample_zero_loss(self):
        samples, catalog = step_loss_fixture([0.2])
        assert empirical_risk("cov", 0.5, samples, catalog) == 0.0

    def test_empty_calibration_set(self):
        _, catalog = step_loss_fixture([0.2])
        with pytest.raises(DataError):
            empirical_risk("cov", 0.5, [], catalog)


class TestCalibrateCriterion:
    def test_step_losses_hand_computed(self):
        """cutoffs (0.1,0.2,0.6,0.9), alpha=0.5, n=4: budget 0.375, lam_hat 0.6."""
        samples, catalog = step_loss_fixture([0.1, 0.2, 0.6, 0.9])
        assert corrected_budget(0.5, 4) == 0.375
        got = calibrate_criterion("cov", 0.5, samples, catalog)
        assert got == 0.6
        assert empirical_risk("cov", 0.6, samples, catalog) == 0.25
        assert empirical_risk("cov", 0.599, samples, catalog) == 0.5

    def test_zero_losses_give_zero_threshold(self):
        samples, catalog = step_loss_fixture([0.0, 0.0, 0.0, 0.0])
        assert calibrate_criterion("cov", 0.5, samples, catalog) == 0.0

    def test_unsatisfiable_budget_falls_back_to_one(self):
        # Only one of the two class concepts is ever detected, so coverage
        # never drops below 0.25; a tiny (but positive) corrected budget is
        # unreachable at every lam and the threshold falls back to 1.
        catalog = make_catalog({0: [[1.0, 0.0], [0.0, 1.0]], 1: [[1.0, 1.0]]})
        c0 = catalog.concepts_for(0)[0]
        samples = [
            make_sample(f"s{i}", 0, [1.0, 0.0], [(c0, 0.5)]) for i in range(20)
        ]
        assert corrected_budget(0.05, 20) > 0.0
        got = calibrate_criterion("cov", 0.05, samples, catalog)
        assert got == 1.0
        assert empirical_risk("cov", 1.0, samples, catalog) == 0.25

    def test_unattained_budget_warns_with_its_floor(self):
        """Discriminability cannot drop below one minus own over competing
        mass. With alpha_dis under that floor, calibrate falls back to
        lambda=1 and says so, naming the criterion, the corrected budget and
        the risk at lambda=1; the attainable criteria stay silent."""
        catalog = make_catalog(
            {
                0: [[0, 1, 0], [0, 0, 1]],
                1: [[1, 0, 0], [1, 0.1, 0], [1, 0, 0.1], [1, 0.1, 0.1]],
            }
        )
        c0, c1 = catalog.concepts_for(0)
        samples = [
            make_sample(f"s{i}", 0, [1.0, 0.02 * i, 0.0], [(c0, 0.9), (c1, 0.6)])
            for i in range(10)
        ]
        floor = empirical_risk("dis", 1.0, samples, catalog)
        budget = corrected_budget(0.5, len(samples))
        assert 0.0 < budget < floor
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = calibrate(RiskBudget(0.5, 0.9, 0.9), samples, catalog)
        assert result.lambda_dis == 1.0
        assert result.lambda_cov < 1.0 and result.lambda_div < 1.0
        assert [str(w.message) for w in caught] == [
            f"no threshold meets the dis budget: corrected budget {budget:.4g} "
            f"is below the risk at lambda=1 ({floor:.4g}); falling back to lambda=1"
        ]

    def test_too_small_calibration_set_warns(self):
        samples, catalog = step_loss_fixture([0.0])
        with pytest.warns(UserWarning, match="too small"):
            got = calibrate_criterion("cov", 0.5, samples, catalog)
        assert got == 1.0

    def test_alpha_bounds(self):
        samples, catalog = step_loss_fixture([0.1, 0.2])
        with pytest.raises(ValueError):
            calibrate_criterion("cov", 1.0, samples, catalog)

    def test_search_equals_exhaustive_scan_on_random_fixtures(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            samples = []
            catalog = None
            for i in range(n):
                sample, catalog = random_instance(rng)
                samples.append(
                    make_sample(f"s{i}", 0, sample.image_embedding,
                                [(d.concept, d.confidence) for d in sample.detections])
                )
            alpha = float(rng.uniform(0.15, 0.9))
            criterion = CRITERIA[int(rng.integers(3))]
            searched = calibrate_criterion(criterion, alpha, samples, catalog)
            grid = default_grid()
            risks = build_loss_profiles(samples, catalog).risk_on_grid(criterion, grid)
            budget = corrected_budget(alpha, len(samples))
            assert searched == oracles.scan_threshold(risks, budget, grid), (
                "search equals exhaustive scan"
            )

    def test_exact_mode_finds_breakpoint_infimum(self):
        samples, catalog = step_loss_fixture([0.13, 0.377, 0.61, 0.955])
        grid_lam = calibrate_criterion("cov", 0.5, samples, catalog)
        exact_lam = calibrate_criterion("cov", 0.5, samples, catalog, exact=True)
        # the exact infimum is the third cutoff; the grid rounds up to 1e-3
        assert exact_lam == 0.61
        assert exact_lam <= grid_lam <= exact_lam + 1e-3
        budget = corrected_budget(0.5, 4)
        assert empirical_risk("cov", exact_lam, samples, catalog) <= budget

    def test_conservativeness_on_random_fixtures(self):
        """Whenever lam_hat < 1, the calibration-set risk meets the corrected budget."""
        rng = np.random.default_rng(32)
        for trial in range(10):
            spec = SynthSpec(
                classes=3,
                concepts_per_class=4,
                samples_per_class=int(rng.integers(7, 16)),
                seed=int(rng.integers(10_000)),
                with_pixels=False,
            )
            samples, catalog = generate_synthetic(spec)
            alpha = float(rng.uniform(0.15, 0.8))
            criterion = CRITERIA[trial % 3]
            lam = calibrate_criterion(criterion, alpha, samples, catalog)
            if lam < 1.0:
                budget = corrected_budget(alpha, len(samples))
                assert empirical_risk(criterion, lam, samples, catalog) <= budget


class TestCalibrate:
    def test_combined_is_max(self):
        spec = SynthSpec(classes=3, concepts_per_class=4, samples_per_class=8,
                         seed=4, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        result = calibrate(RiskBudget(0.7, 0.3, 0.35), samples, catalog)
        assert result.lambda_hat == max(
            result.lambda_dis, result.lambda_cov, result.lambda_div
        )
        assert result.n_cal == len(samples)
        assert set(result.curves) == set(CRITERIA)

    def test_curves_are_non_increasing_and_on_grid(self):
        spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=10,
                         seed=5, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        result = calibrate(RiskBudget(0.7, 0.2, 0.2), samples, catalog, resolution=1e-2)
        for curve in result.curves.values():
            assert len(curve.grid) == 101
            assert np.all(np.diff(curve.risks) <= 0.0)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            CalibrationResult(
                lambda_dis=0.2, lambda_cov=0.3, lambda_div=0.1,
                lambda_hat=0.9, n_cal=10, budget=RiskBudget(0.7, 0.2, 0.2),
            )

    def test_curve_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            RiskCurve(criterion="cov", grid=[0.0, 0.5, 1.0], risks=[0.1, 0.5, 0.2])

    def test_determinism(self):
        spec = SynthSpec(classes=2, concepts_per_class=3, samples_per_class=12,
                         seed=7, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        budget = RiskBudget(0.7, 0.2, 0.2)
        a = calibrate(budget, samples, catalog)
        b = calibrate(budget, samples, catalog)
        assert (a.lambda_dis, a.lambda_cov, a.lambda_div) == (
            b.lambda_dis, b.lambda_cov, b.lambda_div
        )
        for k in CRITERIA:
            assert a.curves[k].risks.tobytes() == b.curves[k].risks.tobytes()


def two_decimal_pool(per_class, dim, seed):
    """Synthetic pool with confidences rounded to two decimals, plus a sample
    without detections, a single-detection sample per (class, concept), and
    a sample detecting one concept twice, tying two confidences and seeing a
    cross-class concept at confidence 0."""
    spec = SynthSpec(classes=3, concepts_per_class=per_class, samples_per_class=8,
                     embedding_dim=dim, seed=seed, with_pixels=False)
    synth, catalog = generate_synthetic(spec)
    pool = [
        AnnotatedSample(
            sample_id=s.sample_id,
            label=s.label,
            image_embedding=s.image_embedding,
            detections=[
                Detection(box=d.box, confidence=round(d.confidence, 2), concept=d.concept)
                for d in s.detections
            ],
        )
        for s in synth
    ]
    c0, c1 = catalog.concepts_for(0)[:2]
    c2 = catalog.concepts_for(1)[0]
    x = synth[0].image_embedding
    pool.append(make_sample("empty", 0, x, []))
    pool += [
        make_sample(f"one{c.id}", label, x, [(c, 0.42)])
        for label in range(3)
        for c in catalog.all_concepts()
    ]
    pool.append(make_sample("twice", 2, x, [(c1, 0.3), (c0, 0.3), (c1, 0.71), (c2, 0.0)]))
    return pool, catalog


class TestLossProfiles:
    def test_lookup_on_a_confidence_exactly_at_a_bound(self):
        """A confidence equal to a grid point's admission threshold is
        admitted there, as the per-sample lookup admits it."""
        grid = default_grid(0.1)
        on_bound = np.sort(admission_threshold(grid[[2, 6]]))
        neg = [-on_bound[::-1], np.array([-0.5])]
        vals = [np.array([[1.0, 0.5, 0.25]]), np.array([[0.75, 0.0]])]
        profiles = LossProfiles(
            ("dis",),
            [[*neg[0]], [neg[1][0], np.inf]],
            [[[*vals[0][0]], [*vals[1][0], 0.0]]],
        )
        assert_grid_lookups_match(profiles, neg, vals, [grid])

    def test_columns_between_tied_entries_are_never_read(self):
        """Two entries tied at 0.7 enter together, so the column after the
        first of them (a NaN sentinel here) holds no grid point, on any grid
        or at the breakpoints and their neighbors."""
        profiles = LossProfiles(
            ("dis",),
            [[-0.7, -0.7, -0.3], [-0.5, np.inf, np.inf]],
            [[[1.0, np.nan, 0.5, 0.2], [0.9, 0.4, 0.4, 0.4]]],
        )
        neg = [np.array([-0.7, -0.3]), np.array([-0.5])]
        vals = [np.array([[1.0, 0.5, 0.2]]), np.array([[0.9, 0.4]])]
        breaks = np.array([0.0, 1.0 - 0.7, 1.0 - 0.5, 1.0 - 0.3, 1.0])
        around = np.sort(np.concatenate(
            [breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)]
        ))
        grids = [default_grid(r) for r in (1e-3, 0.01, 0.1, 0.3, 0.5)] + [breaks, around]
        for grid in grids:
            assert not np.isnan(profiles.matrix_on_grid("dis", grid)).any(), len(grid)
        assert_grid_lookups_match(profiles, neg, vals, grids)

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("per_class", [4, 6, 8])
    def test_batched_profiles_equal_the_per_sample_loop(self, per_class, dim):
        samples, catalog = two_decimal_pool(per_class, dim, seed=per_class * dim)
        grid = default_grid(1e-3)
        grids = [default_grid(r) for r in (1e-3, 0.01, 0.3, 0.5)] + [
            np.pad(grid, (0, 23), mode="edge"),  # the search's 1024-point grid
            _breakpoints(samples),
        ]
        assert_profiles_match(build_loss_profiles(samples, catalog), samples, catalog, grids)

    def test_profiles_match_direct_evaluation(self):
        """Along the grid and one ulp either side of every breakpoint, each
        profile lookup is the profile column of the set `build_concept_set`
        builds: its members are the first entries."""
        spec = SynthSpec(classes=3, concepts_per_class=4, samples_per_class=6,
                         seed=9, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        profiles = build_loss_profiles(samples, catalog)
        edges = _breakpoints(samples)
        grid = np.unique(np.clip(np.concatenate([
            default_grid(1e-2), edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)
        ]), 0.0, 1.0))
        for c, k in enumerate(profiles.criteria):
            matrix = profiles.matrix_on_grid(k, grid)
            for i, sample in enumerate(samples):
                for j, lam in enumerate(grid):
                    size = len(build_concept_set(sample, float(lam)).members)
                    assert matrix[i, j] == profiles.values[c, i, size], (k, i, j)

    def test_profile_risk_matches_empirical_risk(self):
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=10,
                         seed=10, with_pixels=False)
        samples, catalog = generate_synthetic(spec)
        profiles = build_loss_profiles(samples, catalog)
        grid = default_grid(1e-2)
        for k in CRITERIA:
            risks = profiles.risk_on_grid(k, grid)
            for j in (0, 17, 50, 100):
                assert risks[j] == empirical_risk(k, float(grid[j]), samples, catalog)

    def test_profile_risk_matches_empirical_risk_on_decimal_confidences(self):
        """Decimal confidences sit exactly on grid thresholds (1 - 0.7 != 0.3 in
        floats); profiles must admit them as `build_concept_set` does."""
        catalog = make_catalog(
            {0: [[1, 0, 0], [0, 1, 0], [1, 1, 1]], 1: [[-1, 0, 0], [0, 0, -1]]}
        )
        c0, c1, c2 = catalog.concepts_for(0)
        hand = [make_sample("h", 0, [1.0, 0.2, 0.1], [(c0, 0.7), (c1, 0.3), (c2, 0.15)])]
        spec = SynthSpec(classes=2, concepts_per_class=4, samples_per_class=6,
                         seed=11, with_pixels=False)
        synth, synth_catalog = generate_synthetic(spec)
        two_decimal = [
            AnnotatedSample(
                sample_id=s.sample_id,
                label=s.label,
                image_embedding=s.image_embedding,
                detections=[
                    Detection(box=d.box, confidence=round(d.confidence, 2), concept=d.concept)
                    for d in s.detections
                ],
            )
            for s in synth
        ]
        for samples, cat in ((hand, catalog), (two_decimal, synth_catalog)):
            profiles = build_loss_profiles(samples, cat)
            for lams in (default_grid(1e-3), _breakpoints(samples)):
                for k in CRITERIA:
                    risks = profiles.risk_on_grid(k, lams)
                    direct = [empirical_risk(k, float(lam), samples, cat) for lam in lams]
                    np.testing.assert_array_equal(risks, direct)
