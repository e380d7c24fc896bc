"""Independent brute-force evaluators used as test oracles.

Everything here is written with plain Python loops and ``math`` so it shares
no code path with the package's vectorized implementations. The exceptions
are loops that a batched implementation must reproduce exactly: `crc_trials`,
the per-trial Monte Carlo loop behind ``validate_guarantee``'s threshold
search, and `loss_profiles` with `profile_matrix`, the per-sample profile
build and lookup behind ``build_loss_profiles`` and ``matrix_on_grid``.
"""

from __future__ import annotations

import math

import numpy as np


def cosine(a, b) -> float:
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


def sim(a, b) -> float:
    return 1.0 + cosine(a, b)


def phi(a, b) -> float:
    return (1.0 - cosine(a, b)) / 2.0


def concept_set(sample, lam):
    """Literal membership rule: confidence >= 1 - lam (inclusive)."""
    return {d.concept for d in sample.detections if d.confidence >= 1.0 - lam}


def loss_dis(members, sample, catalog) -> float:
    if not members:
        return 1.0
    x = sample.image_embedding
    numerator = sum(sim(x, catalog.embedding_of(c)) for c in members)
    denominator = 0.0
    for label in catalog.class_labels:
        if label == sample.label:
            continue
        for c in catalog.concepts_for(label):
            denominator += sim(x, catalog.embedding_of(c))
    return 1.0 - numerator / denominator


def loss_cov(members, sample, catalog) -> float:
    if not members:
        return 1.0
    candidates = catalog.concepts_for(sample.label)
    total = 0.0
    for s1 in candidates:
        total += min(
            phi(catalog.embedding_of(s1), catalog.embedding_of(s2)) for s2 in members
        )
    return total / len(candidates)


def loss_div(members, sample, catalog) -> float:
    candidates = list(catalog.concepts_for(sample.label))
    if len(members) < 2:
        return 1.0

    def pair_sum(concepts):
        concepts = sorted(concepts, key=lambda c: c.id)
        total = 0.0
        for i in range(len(concepts)):
            for j in range(i + 1, len(concepts)):
                total += phi(
                    catalog.embedding_of(concepts[i]),
                    catalog.embedding_of(concepts[j]),
                )
        return total

    return 1.0 - pair_sum(members) / pair_sum(candidates)


LOSSES = {"dis": loss_dis, "cov": loss_cov, "div": loss_div}


def numeric_gradient(params, objective_of_params, step=1e-5):
    """Central finite differences of a scalar function over flat parameters."""
    grads = []
    for k in range(len(params)):
        bumped = list(params)
        bumped[k] = params[k] + step
        hi = objective_of_params(bumped)
        bumped[k] = params[k] - step
        lo = objective_of_params(bumped)
        grads.append((hi - lo) / (2.0 * step))
    return grads


def leftmost_scan(risks, budget):
    """Index of the first risk <= budget, or None: a linear scan."""
    for i, risk in enumerate(risks):
        if risk <= budget:
            return i
    return None


def scan_threshold(risks, budget, candidates):
    """The calibration rule by linear scan: the first candidate whose risk is
    <= a positive corrected budget; 1.0 when none is or the budget is not
    positive."""
    found = leftmost_scan(risks, budget) if budget > 0.0 else None
    return 1.0 if found is None else float(candidates[found])


def breakpoints(samples):
    """Every detection's ``1 - t`` in [0, 1], plus 0 and 1, sorted: a superset
    of the points where a calibration loss can change, since a concept's
    lower-confidence duplicate detections change no set."""
    points = {0.0, 1.0}
    for sample in samples:
        for det in sample.detections:
            lam = 1.0 - float(det.confidence)
            if 0.0 <= lam <= 1.0:
                points.add(lam)
    return np.array(sorted(points), dtype=np.float64)


def crc_trials(budget, generator, n_cal, n_trials, seed, resolution):
    """One trial at a time: shuffle, search the full-grid mean risk, combine.

    Returns the per-trial combined thresholds, the (trials, criteria) target
    losses and the per-criterion fallback counts, as `validate_guarantee`
    summarizes them.
    """
    from riskcbm.calibration import build_loss_profiles, corrected_budget, default_grid
    from riskcbm.concept_sets import CRITERIA

    pool = list(generator.samples)
    grid = default_grid(resolution)
    budgets = [corrected_budget(budget.alpha_for(k), n_cal) for k in CRITERIA]
    profiles = build_loss_profiles(pool, generator.catalog)
    value_grids = {k: profiles.matrix_on_grid(k, grid) for k in CRITERIA}
    if generator.exchangeable:
        target_grids = value_grids
    else:
        targets = build_loss_profiles(list(generator.target_samples), generator.catalog)
        target_grids = {k: targets.matrix_on_grid(k, grid) for k in CRITERIA}

    # The random numbers are the input, drawn by the same generator calls as
    # `validate_guarantee`: every trial's swap targets, then, for a separate
    # target pool, every trial's target.
    rng = np.random.default_rng(seed)
    size = n_cal + 1 if generator.exchangeable else n_cal
    swaps = rng.integers(np.arange(size), len(pool), size=(n_trials, size))
    if not generator.exchangeable:
        targets_drawn = rng.integers(len(target_grids["dis"]), size=n_trials)
    last = len(grid) - 1
    target_losses = np.empty((n_trials, len(CRITERIA)), dtype=np.float64)
    lambda_hats = np.empty(n_trials, dtype=np.float64)
    fallbacks = [0] * len(CRITERIA)
    for t in range(n_trials):
        # Partial Fisher-Yates shuffle: step j swaps positions j and swaps[t, j].
        order = list(range(len(pool)))
        for j in range(size):
            k = int(swaps[t, j])
            order[j], order[k] = order[k], order[j]
        cal_rows = order[:n_cal]
        if generator.exchangeable:
            target_row = order[n_cal]
        else:
            target_row = int(targets_drawn[t])
        combined_idx = 0
        for j, k in enumerate(CRITERIA):
            idx = None
            if budgets[j] > 0.0:
                risks = value_grids[k][cal_rows].mean(axis=0)
                idx = leftmost_scan(risks, budgets[j])
            if idx is None:
                idx = last
                fallbacks[j] += 1
            combined_idx = max(combined_idx, idx)
        lambda_hats[t] = grid[combined_idx]
        for j, k in enumerate(CRITERIA):
            target_losses[t, j] = target_grids[k][target_row, combined_idx]
    return lambda_hats, target_losses, fallbacks


def entry_order(sample):
    """(concept, best confidence) pairs in the order concepts enter the set:
    decreasing confidence, ties by concept id."""
    best = {}
    for det in sample.detections:
        conf = float(det.confidence)
        if conf > best.get(det.concept, -1.0):
            best[det.concept] = conf
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0].id))


def loss_profiles(samples, catalog, criteria):
    """One sample at a time: entry order, one prefix-kernel call, and a
    state after each run of equal confidences.

    Returns per-sample lists: the distinct confidences negated (ascending),
    and (criteria, states) loss arrays whose column j scores the set of the
    j highest.
    """
    from riskcbm.concept_sets import batch_prefix_losses

    neg_confidences, values = [], []
    for sample in samples:
        ordered = entry_order(sample)
        concepts = [concept for concept, _ in ordered]
        confs = np.array([conf for _, conf in ordered], dtype=np.float64)
        ends = np.flatnonzero(np.append(confs[1:] != confs[:-1], confs.size > 0)) + 1
        losses = batch_prefix_losses([sample], catalog, [concepts], criteria)[:, 0]
        neg_confidences.append(-confs[ends - 1])
        values.append(losses[:, np.concatenate(([0], ends))])
    return neg_confidences, values


def profile_matrix(neg_confidences, values, row, grid):
    """(samples, len(grid)) losses of criterion ``row`` along the grid, one
    `searchsorted` per sample on profiles from `loss_profiles`."""
    from riskcbm.concept_sets import admission_threshold

    bounds = -admission_threshold(np.asarray(grid, dtype=np.float64))
    out = np.empty((len(values), len(bounds)), dtype=np.float64)
    for i, (neg, vals) in enumerate(zip(neg_confidences, values)):
        out[i] = vals[row, np.searchsorted(neg, bounds, side="right")]
    return out
