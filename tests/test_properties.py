"""Property tests of the nested-prefix loss kernel on random small catalogs.

Confidences carry two or three decimals, as detector exports usually do, so
many of them sit exactly on a threshold ``1 - conf`` where float round-trip
error decides membership unless the boundary guard absorbs it.
"""

import warnings
from random import Random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_profiles_match, make_catalog, make_sample
from riskcbm.calibration import (
    LossProfiles,
    RiskBudget,
    _leftmost_within_budget,
    build_loss_profiles,
    calibrate,
    corrected_budget,
    default_grid,
    empirical_risk,
)
from riskcbm.concept_sets import CRITERIA, batch_prefix_losses


@st.composite
def instances(draw, max_samples=4):
    """A random catalog whose classes may differ in size, plus samples
    detecting random concepts at decimal confidences."""
    n_classes = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 4), min_size=n_classes, max_size=n_classes))
    per_class = max(sizes)
    dim = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    catalog = make_catalog(
        {label: [rng.normal(size=dim) for _ in range(size)] for label, size in enumerate(sizes)}
    )
    concepts = catalog.all_concepts()
    scale = 10 ** draw(st.sampled_from([2, 3]))
    samples = []
    for i in range(draw(st.integers(1, max_samples))):
        label = draw(st.integers(0, n_classes - 1))
        detections = draw(
            st.lists(
                st.tuples(st.sampled_from(concepts), st.integers(0, scale)),
                max_size=2 * per_class,
            )
        )
        samples.append(
            make_sample(
                f"s{i}", label, rng.normal(size=dim),
                [(concept, tick / scale) for concept, tick in detections],
            )
        )
    return samples, catalog


def _near_parallel_instance():
    """Class 0's two concepts are nearly parallel, so its pool's pair sum is
    tiny and a prefix holding a cross-class pair scores a diversity loss
    near -18582; summed in another order, that loss moves by 3.6e-12."""
    catalog = make_catalog(
        {0: [[1.0, 0.0, 0.0], [1.0, 0.02, 0.0]], 1: [[2.0, 1.0, -1.0], [-0.5, 2.0, 0.5]]}
    )
    sample = make_sample("s0", 0, [-1.0, 1.0, 1.0], [(c, 0.5) for c in catalog.all_concepts()])
    return [sample], catalog


@settings(max_examples=60, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
@example(_near_parallel_instance(), Random(0))
def test_prefix_columns_match_brute_force_and_never_increase(instance, random):
    """Agreement is relative for losses beyond magnitude 1: the kernel and the
    oracle sum in different orders, which moves a loss by about 1e-16 of its
    magnitude."""
    samples, catalog = instance
    for sample in samples:
        order = list(catalog.all_concepts())
        random.shuffle(order)
        losses = batch_prefix_losses([sample], catalog, [order])[:, 0]
        assert losses.shape == (len(CRITERIA), len(order) + 1)
        for j, k in enumerate(CRITERIA):
            for p in range(len(order) + 1):
                expected = oracles.LOSSES[k](set(order[:p]), sample, catalog)
                assert abs(losses[j, p] - expected) <= 1e-12 * max(1.0, abs(expected)), (k, p)
        assert np.all(np.diff(losses, axis=1) <= 0.0)


def _seed_337_instance():
    """A class-1 sample whose set at lambda=1 holds class 0's first two
    concepts, nearly parallel here, so its diversity loss is near -20638;
    scored in id order rather than entry order, that loss moves by 3.6e-12."""
    rng = np.random.default_rng(337)
    catalog = make_catalog(
        {label: [rng.normal(size=3) for _ in range(size)] for label, size in enumerate([3, 2])}
    )
    t0, t1, _, t3, t4 = catalog.all_concepts()
    sample = make_sample(
        "s0", 1, rng.normal(size=3), [(t0, 0.0), (t1, 0.0), (t3, 0.0), (t4, 0.01)]
    )
    return [sample], catalog


@settings(max_examples=60, deadline=None)
@given(instances())
@example(_seed_337_instance())
def test_profile_risk_equals_empirical_risk_at_guard_edges(instance):
    samples, catalog = instance
    profiles = build_loss_profiles(samples, catalog)
    edges = sorted({1.0 - d.confidence for s in samples for d in s.detections} | {0.0, 1.0})
    for k in CRITERIA:
        risks = profiles.risk_on_grid(k, np.asarray(edges))
        for lam, risk in zip(edges, risks):
            assert risk == empirical_risk(k, lam, samples, catalog), (k, lam)


@settings(max_examples=40, deadline=None)
@given(instances(max_samples=12), st.sampled_from([0.01, 0.3, 0.5]))
def test_empirical_risk_equals_the_calibrated_curves(instance, resolution):
    """Past eight samples numpy sums a single column pairwise, so the curves,
    one-point reads of the profiles and `empirical_risk` agree only if all
    sum in sample order."""
    samples, catalog = instance
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unattainable or non-positive budgets
        result = calibrate(RiskBudget(0.5, 0.2, 0.2), samples, catalog, resolution=resolution)
    profiles = build_loss_profiles(samples, catalog)
    for k in CRITERIA:
        curve = result.curves[k]
        direct = [empirical_risk(k, float(lam), samples, catalog) for lam in curve.grid]
        assert np.array_equal(curve.risks, direct), k
        alone = [profiles.risk_on_grid(k, [lam])[0] for lam in curve.grid]
        assert np.array_equal(alone, direct), k


@settings(max_examples=60, deadline=None)
@given(instances(max_samples=8), st.sampled_from([1e-3, 0.01, 0.3, 0.5]))
def test_batched_profiles_equal_the_per_sample_loop(instance, resolution):
    """Covers empty samples, duplicate and cross-class detections and
    single-concept samples."""
    samples, catalog = instance
    edges = sorted({1.0 - d.confidence for s in samples for d in s.detections} | {0.0, 1.0})
    assert_profiles_match(
        build_loss_profiles(samples, catalog),
        samples,
        catalog,
        [default_grid(resolution), np.asarray(edges)],
    )


@settings(max_examples=60, deadline=None)
@given(
    instances(max_samples=8),
    st.data(),
    st.sampled_from([1e-3, 0.01, 0.3, 0.5]),
    st.tuples(*[st.floats(0.05, 0.95)] * 3),
)
def test_calibrate_picks_the_scanned_threshold(instance, data, resolution, alphas):
    """On the grid, and with ``exact=True`` on every detection's ``1 - t``,
    `calibrate` picks, per criterion, the threshold a linear scan of the
    draw's mean risks picks. Exact mode searches only the profiles' entries,
    so the scan also covers lower-confidence duplicate detections, which
    change no set. The breakpoints are not uniform, so exact mode also runs
    the bisection on uneven candidates."""
    pool, catalog = instance
    n_cal = data.draw(st.integers(1, len(pool)))
    budget = RiskBudget(*alphas)
    for _ in range(3):
        rows = data.draw(st.permutations(range(len(pool))))[:n_cal]
        cal_set = [pool[i] for i in rows]
        profiles = build_loss_profiles(cal_set, catalog)
        for exact in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # unattainable or non-positive budgets
                result = calibrate(
                    budget, cal_set, catalog, resolution=resolution, exact=exact
                )
            candidates = oracles.breakpoints(cal_set) if exact else default_grid(resolution)
            for k in CRITERIA:
                risks = profiles.risk_on_grid(k, candidates)
                corrected = corrected_budget(budget.alpha_for(k), n_cal)
                expected = oracles.scan_threshold(risks, corrected, candidates)
                assert result.lambda_for(k) == expected, (k, exact, list(rows))


# Losses whose sums round differently in different orders (2**-53 vanishes
# next to 1.0 unless two of them meet first).
AWKWARD_LOSSES = [1.0, 0.7, 1 / 3, 0.3, 0.2, 0.1, 2.0**-52, 2.0**-53, 0.0, -0.05]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 7]))
def test_batched_search_is_exact_at_the_budget(seed, per_slice):
    """Up to 40 draws are searched in one call, on grids of 1001, 101, 4 and
    3 points, and again in contiguous slices of ``per_slice`` draws, as few
    as one. With the budget set to one draw's own mean risk at some grid
    point, or one ulp below it, every draw's bisection lands where a scan of
    its own full mean-risk vector does, whatever slice it is searched in; a
    mean summed in any other order would miss."""
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(2, 9))
    neg_confidences = np.full((n_samples, 4), np.inf)
    values = np.empty((1, n_samples, 5))
    for i in range(n_samples):
        n_states = int(rng.integers(1, 6))
        confs = rng.choice(np.arange(1, 100) / 100, size=n_states - 1, replace=False)
        neg_confidences[i, : n_states - 1] = np.sort(-confs)
        row = np.sort(rng.choice(AWKWARD_LOSSES, size=(1, n_states)))[0, ::-1]
        values[0, i] = np.pad(row, (0, 5 - n_states), mode="edge")
    profiles = LossProfiles(("dis",), neg_confidences, values)
    n_cal = int(rng.integers(1, n_samples + 1))
    rows = np.stack(
        [rng.choice(n_samples, size=n_cal, replace=False) for _ in range(rng.integers(1, 41))]
    )
    for resolution in (1e-3, 0.01, 0.3, 0.5):
        grid = default_grid(resolution)
        matrix = profiles.matrix_on_grid("dis", grid)
        risks = np.stack([matrix[draw].mean(axis=0) for draw in rows])
        for _ in range(5):
            at = risks[rng.integers(len(rows)), rng.integers(len(grid))]
            for budget in (at, np.nextafter(at, -np.inf)):
                expected = [oracles.leftmost_scan(draw_risks, budget) for draw_risks in risks]
                found = _leftmost_within_budget(matrix, rows, budget)
                assert found.tolist() == [-1 if e is None else e for e in expected], (
                    len(grid), budget,
                )
                for lo in range(0, len(rows), per_slice):
                    part = _leftmost_within_budget(matrix, rows[lo : lo + per_slice], budget)
                    assert np.array_equal(part, found[lo : lo + per_slice]), (lo, per_slice)


@settings(max_examples=60, deadline=None)
@given(instances(max_samples=8), st.randoms(use_true_random=False), st.integers(1, 3))
def test_a_profile_row_does_not_depend_on_its_batch(instance, random, batch_size):
    """Each sample's prefix losses over its entry order are the same bits
    whether it is scored alone, in the full batch, in a shuffled batch, or
    in a contiguous slice of ``batch_size`` samples, padded only to the
    slice's longest list."""
    samples, catalog = instance
    lists = [[concept for concept, _ in oracles.entry_order(s)] for s in samples]
    alone = [batch_prefix_losses([s], catalog, [c])[:, 0] for s, c in zip(samples, lists)]
    order = list(range(len(samples)))
    random.shuffle(order)
    shuffled = batch_prefix_losses(
        [samples[i] for i in order], catalog, [lists[i] for i in order]
    )
    whole = batch_prefix_losses(samples, catalog, lists)
    for batch, positions in (
        (whole, range(len(samples))),
        (shuffled, [order.index(i) for i in range(len(samples))]),
    ):
        for i, pos in enumerate(positions):
            width = len(lists[i]) + 1
            assert np.array_equal(batch[:, pos, :width], alone[i]), i
            assert np.all(batch[:, pos, width:] == alone[i][:, -1:]), i
    for lo in range(0, len(samples), batch_size):
        part = batch_prefix_losses(
            samples[lo : lo + batch_size], catalog, lists[lo : lo + batch_size]
        )
        assert np.array_equal(part, whole[:, lo : lo + batch_size, : part.shape[2]]), lo
