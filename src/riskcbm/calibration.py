"""Threshold calibration with distribution-free risk control.

For each criterion the calibrated threshold is the smallest ``lam`` whose
empirical risk on the calibration set stays within the finite-sample
corrected budget ``alpha - (1 - alpha) / n_cal``; the combined threshold is
the maximum of the three. Under exchangeability of calibration set and
target, the expected loss of the resulting concept sets is bounded by each
``alpha``; ``validate_guarantee`` checks that bound by Monte Carlo.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .concept_sets import CRITERIA, admission_threshold, entry_prefix_losses
from .core import AnnotatedSample, ConceptCatalog, DataError

__all__ = [
    "RiskBudget",
    "CalibrationConfig",
    "RiskCurve",
    "CalibrationResult",
    "ExchangeablePool",
    "CriterionCoverage",
    "GuaranteeReport",
    "default_grid",
    "empirical_risk",
    "calibrate_criterion",
    "calibrate",
    "validate_guarantee",
]

DEFAULT_RESOLUTION = 1e-3
DEFAULT_SLACK = 0.01  # how far above alpha a `validate_guarantee` pass may lie

# Monotonicity slack for validating externally supplied risk curves; the
# curves this module produces are non-increasing without tolerance.
_CURVE_TOL = 1e-12


@dataclass(frozen=True)
class RiskBudget:
    """User-specified risk levels for the three criteria, each strictly in
    (0,1); the defaults are the budget a run uses when none is given."""

    alpha_dis: float = 0.7
    alpha_cov: float = 0.2
    alpha_div: float = 0.2

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not 0.0 < value < 1.0:
                raise ValueError(f"alpha_{name} must be strictly inside (0,1), got {value}")

    def as_dict(self) -> dict[str, float]:
        return {"dis": self.alpha_dis, "cov": self.alpha_cov, "div": self.alpha_div}

    def alpha_for(self, criterion: str) -> float:
        return self.as_dict()[criterion]


DEFAULT_BUDGET = RiskBudget()


@dataclass(frozen=True)
class CalibrationConfig:
    """How `calibrate` searches for thresholds: the grid step, and whether to
    search the loss breakpoints instead of the grid."""

    resolution: float = DEFAULT_RESOLUTION
    exact: bool = False

    def __post_init__(self) -> None:
        default_grid(self.resolution)  # raises on a resolution out of range


@dataclass(eq=False)
class RiskCurve:
    """Empirical risk of one criterion sampled along a lambda grid."""

    criterion: str
    grid: np.ndarray
    risks: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.risks = np.asarray(self.risks, dtype=np.float64)
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.grid.shape != self.risks.shape or self.grid.ndim != 1:
            raise ValueError("grid and risks must be 1-D and the same length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(self.risks) > _CURVE_TOL):
            raise ValueError("risks must be non-increasing along the grid")


@dataclass(eq=False)
class CalibrationResult:
    """Per-criterion thresholds, the conservative combined threshold, and risk curves."""

    lambda_dis: float
    lambda_cov: float
    lambda_div: float
    lambda_hat: float
    n_cal: int
    budget: RiskBudget
    curves: dict[str, RiskCurve] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for k in CRITERIA:
            if not 0.0 <= self.lambda_for(k) <= 1.0:
                raise ValueError(f"lambda_{k} must be in [0, 1], got {self.lambda_for(k)}")
        expected = max(self.lambda_dis, self.lambda_cov, self.lambda_div)
        if self.lambda_hat != expected:
            raise ValueError(
                f"lambda_hat must equal max of the per-criterion thresholds "
                f"({expected}), got {self.lambda_hat}"
            )

    def lambda_for(self, criterion: str) -> float:
        return {
            "dis": self.lambda_dis,
            "cov": self.lambda_cov,
            "div": self.lambda_div,
        }[criterion]


def default_grid(resolution: float = DEFAULT_RESOLUTION) -> np.ndarray:
    """Uniform lambda grid over [0,1] at the given step; includes both endpoints."""
    if not 0.0 < resolution <= 0.5:
        raise ValueError(f"resolution must be in (0, 0.5], got {resolution}")
    steps = int(round(1.0 / resolution))
    return np.linspace(0.0, 1.0, steps + 1)


def corrected_budget(alpha: float, n_cal: int) -> float:
    """Finite-sample corrected risk budget alpha - (1 - alpha) / n_cal."""
    return alpha - (1.0 - alpha) / n_cal


def empirical_risk(
    criterion: str,
    lam: float,
    cal_set: Sequence[AnnotatedSample],
    catalog: ConceptCatalog,
) -> float:
    """Mean loss of the criterion over the calibration set at threshold ``lam``, read
    from the loss profiles as the search and the `calibrate` curves read it."""
    if len(cal_set) == 0:
        raise DataError("empirical risk undefined on an empty calibration set")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0,1], got {lam}")
    return float(_profiles(cal_set, catalog, (criterion,)).risk_on_grid(criterion, [lam])[0])


def _candidates(profiles: "LossProfiles", resolution: float, exact: bool) -> np.ndarray:
    """The thresholds the search scans: the uniform grid, or with ``exact`` the
    profiles' breakpoints, ``1 - t`` for each entry's (best) confidence t, plus 0 and 1."""
    if not exact:
        return default_grid(resolution)
    # The +inf padding, like any point outside [0, 1], clips onto 0 or 1.
    points = np.clip(1.0 + profiles.neg_confidences, 0.0, 1.0)
    return np.array(sorted({0.0, 1.0, *points.ravel().tolist()}))


def _thresholds(
    profiles: "LossProfiles", alphas: dict[str, float], candidates: np.ndarray
) -> dict[str, float]:
    """Per criterion, the smallest candidate whose profile risk meets the
    corrected budget; 1.0, with a warning, when none does or the budget is
    not positive. The calibration set is a single draw of every row."""
    if profiles.n_samples == 0:
        raise DataError("cannot calibrate on an empty calibration set")
    budgets = {k: corrected_budget(alpha, profiles.n_samples) for k, alpha in alphas.items()}
    found = _leftmost_indices(profiles, budgets, candidates, np.arange(profiles.n_samples)[None])
    lambdas = {}
    for k, alpha in alphas.items():
        budget, idx = budgets[k], int(found[k][0])
        if budget <= 0.0:
            warnings.warn(
                f"calibration set too small for alpha={alpha} "
                f"(corrected budget {budget:.4g} <= 0); falling back to lambda=1",
                stacklevel=3,
            )
        elif idx < 0:
            # Candidates end at lambda=1, where risk is at its floor.
            floor = profiles.risk_on_grid(k, candidates[-1:])[0]
            warnings.warn(
                f"no threshold meets the {k} budget: corrected budget "
                f"{budget:.4g} is below the risk at lambda=1 ({floor:.4g}); "
                "falling back to lambda=1",
                stacklevel=3,
            )
        lambdas[k] = 1.0 if idx < 0 else float(candidates[idx])
    return lambdas


def calibrate_criterion(
    criterion: str,
    alpha: float,
    cal_set: Sequence[AnnotatedSample],
    catalog: ConceptCatalog,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    exact: bool = False,
) -> float:
    """Smallest threshold meeting the corrected budget for one criterion.

    Searches a uniform grid by default; with ``exact=True`` it searches the
    loss profiles' breakpoints ``1 - t`` instead, which recovers the exact
    infimum. Returns 1.0 when no threshold qualifies or when the calibration
    set is too small for a positive corrected budget.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be strictly inside (0,1), got {alpha}")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    profiles = _profiles(cal_set, catalog, (criterion,))
    candidates = _candidates(profiles, resolution, exact)
    return _thresholds(profiles, {criterion: alpha}, candidates)[criterion]


def calibrate(
    budget: RiskBudget,
    cal_set: Sequence[AnnotatedSample],
    catalog: ConceptCatalog,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    exact: bool = False,
) -> CalibrationResult:
    """Calibrate all three criteria and combine conservatively (max threshold).

    The loss profiles are built once; they serve the threshold search (on
    their breakpoints with ``exact=True``) and the full risk curves on the
    uniform grid returned for reporting. Each `validate_guarantee` trial runs
    the same search, so the two agree by construction.
    """
    profiles = build_loss_profiles(cal_set, catalog)
    grid = default_grid(resolution)
    lambdas = _thresholds(profiles, budget.as_dict(), _candidates(profiles, resolution, exact))
    curves = {
        k: RiskCurve(criterion=k, grid=grid, risks=profiles.risk_on_grid(k, grid))
        for k in CRITERIA
    }
    return CalibrationResult(
        lambda_dis=lambdas["dis"],
        lambda_cov=lambdas["cov"],
        lambda_div=lambdas["div"],
        lambda_hat=max(lambdas.values()),
        n_cal=len(cal_set),
        budget=budget,
        curves=curves,
    )


class LossProfiles:
    """Per-sample losses as piecewise-constant functions of lambda.

    A sample's concepts enter its set in decreasing order of their best
    confidence. ``values`` (criteria, n, P+1) is the prefix-kernel output
    over those entry-ordered lists, P the longest: column j holds the losses
    of the set of the first j entries, and columns past a list's end repeat
    its last column. ``neg_confidences`` (n, P) holds each entry's
    confidence negated (ascending), padded with +inf. Tied entries enter
    together, so the columns between them hold no grid point. Membership
    uses `admission_threshold`, as `build_concept_set` does, so profile
    lookups equal direct evaluation.
    """

    def __init__(
        self, criteria: Sequence[str], neg_confidences: np.ndarray, values: np.ndarray
    ) -> None:
        self.criteria = tuple(criteria)
        self.neg_confidences = np.asarray(neg_confidences, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.n_samples = self.values.shape[1]

    def matrix_on_grid(self, criterion: str, grid: np.ndarray) -> np.ndarray:
        """(n_samples, len(grid)) matrix of per-sample losses along a
        non-decreasing grid."""
        row = self.criteria.index(criterion)
        # confidence >= threshold  <=>  -confidence <= -threshold
        bounds = -admission_threshold(np.asarray(grid, dtype=np.float64))
        # Grid points before first[i, j] admit fewer than j + 1 entries, so
        # column j covers first[i, j-1] <= g < first[i, j]; a column between
        # tied entries or after a +inf pad covers none.
        first = np.searchsorted(bounds, self.neg_confidences, side="left")
        counts = np.diff(first, prepend=0, append=len(bounds), axis=1)
        return np.repeat(self.values[row].ravel(), counts.ravel()).reshape(
            self.n_samples, len(bounds)
        )

    def risk_on_grid(self, criterion: str, grid: np.ndarray) -> np.ndarray:
        """Mean loss over all profiled samples along the grid, summed as the
        search sums a draw: one draw of every row, in order."""
        matrix = self.matrix_on_grid(criterion, grid)
        return _mean_over_draws(matrix, np.arange(self.n_samples)[None])[0]


def build_loss_profiles(
    samples: Sequence[AnnotatedSample], catalog: ConceptCatalog
) -> LossProfiles:
    """Profiles of all three criteria: one batched prefix-kernel pass."""
    return _profiles(samples, catalog, CRITERIA)


def _profiles(
    samples: Sequence[AnnotatedSample], catalog: ConceptCatalog, criteria: Sequence[str]
) -> LossProfiles:
    return LossProfiles(criteria, *entry_prefix_losses(samples, catalog, criteria))


@dataclass(eq=False)
class ExchangeablePool:
    """Sample source for the Monte Carlo guarantee check.

    Each trial draws ``n_cal + 1`` items uniformly without replacement from
    ``samples``; a uniformly drawn subset of an i.i.d. pool is exchangeable,
    which is exactly the precondition of the risk-control guarantee. Supplying
    ``target_samples`` makes targets come from a different pool, deliberately
    breaking exchangeability for negative testing.
    """

    samples: Sequence[AnnotatedSample]
    catalog: ConceptCatalog
    target_samples: "Sequence[AnnotatedSample] | None" = None

    @property
    def exchangeable(self) -> bool:
        return self.target_samples is None


@dataclass(eq=False)
class CriterionCoverage:
    criterion: str
    alpha: float
    mean_target_loss: float
    std_target_loss: float
    mc_stderr: float
    # fraction of trials where no threshold met the corrected budget and the
    # criterion fell back to lambda = 1
    fallback_rate: float = 0.0

    @property
    def gap(self) -> float:
        return self.alpha - self.mean_target_loss


@dataclass(eq=False)
class GuaranteeReport:
    """Monte Carlo summary of the risk-control guarantee."""

    n_trials: int
    n_cal: int
    seed: int
    slack: float
    resolution: float
    exchangeable: bool
    pool_size: int
    budget: RiskBudget
    per_criterion: dict[str, CriterionCoverage]
    mean_lambda_hat: float
    verdict: str
    notes: list[str] = field(default_factory=list)


def validate_guarantee(
    budget: RiskBudget,
    generator: ExchangeablePool,
    n_cal: int,
    n_trials: int,
    seed: int,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    slack: float = DEFAULT_SLACK,
) -> GuaranteeReport:
    """Empirically check the calibration guarantee over repeated trials.

    Each trial calibrates on a fresh draw of ``n_cal`` samples and evaluates
    the three losses of the combined threshold on one held-out target. The
    verdict is "pass" iff every criterion's trial-averaged target loss stays
    within ``alpha + slack``; non-exchangeable sources get the verdict
    "not covered by theorem" since the guarantee does not apply.

    All trials are drawn first, then searched together on precomputed loss
    profiles. The draws take one generator call: the swap targets of a
    partial Fisher-Yates shuffle of the pool for every trial (see
    `_draw_without_replacement`), followed, when targets come from a
    separate pool, by one call for every trial's target. A seed therefore
    selects the same rows on every run, whatever the search does with them.
    Per criterion each trial bisects its own range of grid columns, reading
    one column per step, for ``len(grid).bit_length()`` steps. Every mean is
    a `_mean_over_draws` read, which sums the drawn rows in draw order and so
    never increases along the grid; that makes each bisection exact. The
    `calibrate` curves and `empirical_risk` read one draw of every row
    through it too, so all three agree by construction. ``slack`` must be
    finite and non-negative.
    """
    if n_trials < 100:
        raise ValueError(f"n_trials must be >= 100, got {n_trials}")
    if n_cal < 1:
        raise ValueError(f"n_cal must be >= 1, got {n_cal}")
    if not (np.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be finite and >= 0, got {slack}")
    pool = list(generator.samples)
    if len(pool) < n_cal + 1:
        raise DataError(
            f"pool of {len(pool)} samples cannot support n_cal={n_cal} plus a target"
        )
    grid = default_grid(resolution)
    budgets = {k: corrected_budget(budget.alpha_for(k), n_cal) for k in CRITERIA}
    if min(budgets.values()) <= 0.0:
        warnings.warn(
            "corrected budget non-positive for some criterion; thresholds will "
            "fall back to lambda=1",
            stacklevel=2,
        )

    profiles = target_profiles = build_loss_profiles(pool, generator.catalog)
    targets_separate = not generator.exchangeable
    if targets_separate:
        target_profiles = build_loss_profiles(list(generator.target_samples), generator.catalog)

    rng = np.random.default_rng(seed)
    if targets_separate:
        cal_rows = _draw_without_replacement(rng, len(pool), n_cal, n_trials)
        target_rows = rng.integers(target_profiles.n_samples, size=n_trials)
    else:
        drawn = _draw_without_replacement(rng, len(pool), n_cal + 1, n_trials)
        cal_rows, target_rows = drawn[:, :n_cal], drawn[:, n_cal]

    found = _leftmost_indices(profiles, budgets, grid, cal_rows)
    fallbacks = np.array([np.count_nonzero(found[k] < 0) for k in CRITERIA])
    combined = np.max([np.where(found[k] < 0, len(grid) - 1, found[k]) for k in CRITERIA], axis=0)
    target_losses = np.stack(
        [target_profiles.matrix_on_grid(k, grid)[target_rows, combined] for k in CRITERIA],
        axis=1,
    )
    return _guarantee_report(
        budget, generator, n_cal, seed,
        resolution=resolution,
        slack=slack,
        lambda_hats=grid[combined],
        target_losses=target_losses,
        fallbacks=fallbacks,
    )


# Cells of the index block `_draw_without_replacement` shuffles at once, 4 MB
# of int32: fewer rows per block mean more passes of its loop over swap
# positions, more mean cache misses on the gathers.
_DRAW_CELLS = 1 << 20


def _draw_without_replacement(
    rng: np.random.Generator, population: int, size: int, n_draws: int
) -> np.ndarray:
    """(n_draws, size) indices; each row holds ``size`` distinct indices of
    ``range(population)``, drawn uniformly and in uniform order.

    Row t is the first ``size`` entries of a partial Fisher-Yates shuffle of
    ``arange(population)`` whose step j swaps positions j and ``swaps[t, j]``,
    uniform on [j, population). All swap targets come from one generator
    call, so the rows depend only on the generator state and the three sizes,
    never on how many rows a block shuffles at once.
    """
    swaps = rng.integers(np.arange(size), population, size=(n_draws, size))
    per_block = max(1, _DRAW_CELLS // population)
    drawn = np.empty((n_draws, size), dtype=np.intp)
    for lo in range(0, n_draws, per_block):
        part = swaps[lo : lo + per_block]
        rows = len(part)
        # Column r is the shuffle of draw lo + r, so position j of every
        # draw in the block is one contiguous row.
        block = np.tile(np.arange(population, dtype=np.int32)[:, None], rows)
        cells = block.reshape(-1)
        targets = np.ascontiguousarray((part * rows + np.arange(rows)[:, None]).T)
        for j in range(size):
            held = block[j].copy()
            block[j] = cells[targets[j]]
            cells[targets[j]] = held
        drawn[lo : lo + rows] = block[:size].T
    return drawn


def _leftmost_indices(
    profiles: LossProfiles, budgets: dict[str, float], candidates: np.ndarray, rows: np.ndarray
) -> dict[str, np.ndarray]:
    """The one threshold search of `calibrate` and `validate_guarantee`: per
    criterion and per draw (a row of ``rows``), the index of the first
    candidate whose mean loss over the drawn samples is <= the corrected
    budget; -1 where none is, and for every draw, with no search, where the
    budget is not positive."""
    return {
        k: _leftmost_within_budget(profiles.matrix_on_grid(k, candidates), rows, budget)
        if budget > 0.0
        else np.full(len(rows), -1, dtype=np.intp)
        for k, budget in budgets.items()
    }


def _mean_over_draws(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row t is the mean of the rows ``table[rows[t]]``, summed in draw order
    whatever the column count: the one average of losses along lambda."""
    acc = table[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        acc += table[rows[:, j]]
    acc /= rows.shape[1]
    return acc


def _leftmost_within_budget(matrix: np.ndarray, rows: np.ndarray, budget: float) -> np.ndarray:
    """Per draw (a row of ``rows``), the index of the first column of the
    (n_samples, candidates) loss ``matrix`` whose mean over the drawn samples
    is <= budget; -1 where none is.

    The means never increase along the candidates, so each draw bisects its
    own half-open range [lo, hi) of columns that may hold the first
    qualifying one, reading one column per step; a range that closes at the
    end of the candidates finds none. All draws step together.
    """
    n_cols = matrix.shape[1]
    cells = matrix.ravel()
    # Row j of ``offsets`` holds draw position j of every draw, so each
    # gather of the mean reads one contiguous index row.
    offsets = np.ascontiguousarray(rows.T) * n_cols
    lo = np.zeros(len(rows), dtype=np.intp)
    hi = np.full(len(rows), n_cols, dtype=np.intp)
    for _ in range(n_cols.bit_length()):
        mid = (lo + hi) // 2
        # A closed range (lo == hi) keeps its bounds; its read, clipped
        # onto the last column when lo == n_cols, is not used.
        read = _mean_over_draws(cells, (offsets + np.minimum(mid, n_cols - 1)).T)
        within = (read <= budget) | (lo == hi)
        hi = np.where(within, mid, hi)
        lo = np.where(within, lo, mid + 1)
    return np.where(lo < n_cols, lo, -1)


def _guarantee_report(
    budget: RiskBudget,
    generator: ExchangeablePool,
    n_cal: int,
    seed: int,
    *,
    resolution: float,
    slack: float,
    lambda_hats: np.ndarray,
    target_losses: np.ndarray,
    fallbacks: np.ndarray,
) -> GuaranteeReport:
    """Summary of the trials: per-trial combined thresholds, (trials, criteria)
    target losses and per-criterion fallback counts."""
    n_trials = len(lambda_hats)
    targets_separate = not generator.exchangeable

    per_criterion: dict[str, CriterionCoverage] = {}
    covered = True
    for j, k in enumerate(CRITERIA):
        mean = float(np.mean(target_losses[:, j]))
        std = float(np.std(target_losses[:, j], ddof=1))
        per_criterion[k] = CriterionCoverage(
            criterion=k,
            alpha=budget.alpha_for(k),
            mean_target_loss=mean,
            std_target_loss=std,
            mc_stderr=std / float(np.sqrt(n_trials)),
            fallback_rate=float(fallbacks[j]) / n_trials,
        )
        covered = covered and mean <= budget.alpha_for(k) + slack

    notes: list[str] = []
    fallback_notes = [
        f"{k} fell back to lambda=1 in {per_criterion[k].fallback_rate:.0%} of trials"
        for k in CRITERIA
        if per_criterion[k].fallback_rate > 0
    ]
    if fallback_notes:
        notes.append(
            "no threshold met the corrected budget for some trials ("
            + ", ".join(fallback_notes)
            + "); the expected-loss bound needs the full concept set to satisfy "
            "the budget, so these risk levels may be unattainable for this source"
        )
    if targets_separate:
        verdict = "not covered by theorem"
        notes.append(
            "target samples come from a different pool than the calibration "
            "samples; exchangeability is broken and the guarantee does not apply, "
            "so observed losses may exceed their risk levels"
        )
    else:
        verdict = "pass" if covered else "fail"
    return GuaranteeReport(
        n_trials=n_trials,
        n_cal=n_cal,
        seed=seed,
        slack=slack,
        resolution=resolution,
        exchangeable=not targets_separate,
        pool_size=len(generator.samples),
        budget=budget,
        per_criterion=per_criterion,
        mean_lambda_hat=float(np.mean(lambda_hats)),
        verdict=verdict,
        notes=notes,
    )
