"""Concept set construction and the three set-quality losses."""

import numpy as np
import pytest

import oracles
from conftest import make_catalog, make_sample, random_instance
from riskcbm.concept_sets import (
    CRITERIA,
    ConceptSet,
    batch_prefix_losses,
    build_concept_set,
    coverage_loss,
    discriminability_loss,
    diversity_loss,
    set_size,
)
from riskcbm.core import DataError, NumericError


def cset_of(concepts):
    return ConceptSet(members=frozenset(concepts), lambda_used=None)


class TestBuildConceptSet:
    def test_threshold_selects_high_confidence(self, axis_catalog):
        c0, c1 = axis_catalog.concepts_for(0)
        c2 = axis_catalog.concepts_for(1)[0]
        # same shape as the running example: 0.85 / 0.65 / 0.40 at lam=0.3
        sample = make_sample("a", 0, [1, 0, 0], [(c0, 0.85), (c1, 0.65)])
        got = build_concept_set(sample, 0.3)
        assert got.members == {c0}
        assert got.lambda_used == 0.3

    def test_lambda_one_admits_everything(self, axis_catalog):
        c0, c1 = axis_catalog.concepts_for(0)
        sample = make_sample("a", 0, [1, 0, 0], [(c0, 0.85), (c1, 0.0)])
        assert build_concept_set(sample, 1.0).members == {c0, c1}

    def test_empty_detections_give_empty_set(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        for lam in (0.0, 0.5, 1.0):
            assert build_concept_set(sample, lam).members == frozenset()

    def test_inclusive_boundary(self, axis_catalog):
        c0 = axis_catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1, 0, 0], [(c0, 0.7)])
        assert build_concept_set(sample, 0.3).members == {c0}

    def test_duplicate_detections_deduplicate(self, axis_catalog):
        c0 = axis_catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1, 0, 0], [(c0, 0.2), (c0, 0.9)])
        got = build_concept_set(sample, 0.3)
        assert got.members == {c0}

    def test_lambda_out_of_range(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        with pytest.raises(ValueError):
            build_concept_set(sample, 1.5)
        with pytest.raises(ValueError):
            build_concept_set(sample, -0.1)

    def test_set_size(self, axis_catalog):
        c0, c1 = axis_catalog.concepts_for(0)
        assert set_size(cset_of([])) == 0
        assert set_size(cset_of([c0])) == 1
        assert set_size(cset_of([c0, c1])) == 2


class TestDiscriminability:
    """Image at (1,0,0) against the axis catalog: own sims (2,1), competing mass 3."""

    def test_half_ratio(self, axis_catalog):
        # Selected mass 2.0 (t0 parallel), competing mass 3.0 -> 1 - 2/3.
        c0 = axis_catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1, 0, 0], [])
        got = discriminability_loss(cset_of([c0]), sample, axis_catalog)
        assert got == pytest.approx(1.0 - 2.0 / 3.0, abs=1e-15)

    def test_full_mass_cancels(self, axis_catalog):
        # Selected mass 2 + 1 = 3 equals competing mass 3 -> exactly 0.
        sample = make_sample("a", 0, [1, 0, 0], [])
        got = discriminability_loss(
            cset_of(axis_catalog.concepts_for(0)), sample, axis_catalog
        )
        assert got == 0.0

    def test_empty_set_scores_one(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        assert discriminability_loss(cset_of([]), sample, axis_catalog) == 1.0

    def test_degenerate_competing_mass(self):
        # Single competing concept exactly opposite the image: Sim = 0.
        catalog = make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, 0]]})
        sample = make_sample("a", 0, [1.0, 0.0], [])
        with pytest.raises(NumericError):
            discriminability_loss(
                cset_of(catalog.concepts_for(0)), sample, catalog
            )


class TestDiscriminabilityBatch:
    """Image (1, 0) of class 0 is opposite the one competing concept, so its
    competing mass is 0; the other images are faulty on their own."""

    CATALOG = make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, 0]]})
    FAULTS = {
        "degenerate": ([1.0, 0.0], NumericError, "degenerate competing-class similarity"),
        "zero": ([0.0, 0.0], NumericError, "cosine undefined for (near-)zero image embedding"),
        "dimension": (
            [1.0, 0.0, 0.0], DataError,
            "embedding dimension mismatch: sample has 3, catalog has 2",
        ),
    }

    def sample(self, fault):
        return make_sample(fault, 0, self.FAULTS[fault][0], [])

    def test_a_sample_with_an_empty_list_is_never_embedded(self):
        c0 = self.CATALOG.concepts_for(0)[0]
        good = make_sample("good", 0, [1.0, 1.0], [])
        samples = [self.sample("zero"), good, self.sample("dimension")]
        losses = batch_prefix_losses(samples, self.CATALOG, [[], [c0], []], CRITERIA)
        assert np.all(losses[:, [0, 2]] == 1.0)
        alone = batch_prefix_losses([good], self.CATALOG, [[c0]], CRITERIA)
        assert np.array_equal(losses[:, 1], alone[:, 0])

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_faulty_sample_raises_its_error(self, fault):
        _, error, message = self.FAULTS[fault]
        with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
            batch_prefix_losses(
                [self.sample(fault)], self.CATALOG, [self.CATALOG.concepts_for(0)], ("dis",)
            )

    @pytest.mark.parametrize(
        "faults",
        [("zero", "dimension"), ("dimension", "zero"), ("degenerate", "zero"),
         ("zero", "degenerate"), ("dimension", "degenerate")],
    )
    def test_the_first_faulty_sample_raises(self, faults):
        good = make_sample("good", 0, [1.0, 1.0], [])
        samples = [good] + [self.sample(fault) for fault in faults]
        _, error, message = self.FAULTS[faults[0]]
        with pytest.raises(error) as raised:
            batch_prefix_losses(
                samples, self.CATALOG, [self.CATALOG.concepts_for(0)] * 3, ("dis",)
            )
        assert str(raised.value).startswith(message)


class TestCoverage:
    def test_half_pool_selected(self):
        # S_y = {s1, s2} orthogonal (phi = 0.5), cset = {s1}: (0 + 0.5)/2.
        catalog = make_catalog({0: [[1, 0], [0, 1]], 1: [[-1, -1]]})
        s1 = catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1.0, 1.0], [])
        got = coverage_loss(cset_of([s1]), sample, catalog)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_full_pool_scores_zero(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        got = coverage_loss(cset_of(axis_catalog.concepts_for(0)), sample, axis_catalog)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_empty_set_scores_one(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        assert coverage_loss(cset_of([]), sample, axis_catalog) == 1.0


class TestDiversity:
    def test_two_of_three_orthogonal(self):
        # Three pairwise-orthogonal concepts: every pair has phi 0.5.
        catalog = make_catalog(
            {0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1: [[-1, 0, 0]]}
        )
        pair = catalog.concepts_for(0)[:2]
        sample = make_sample("a", 0, [1, 1, 1], [])
        got = diversity_loss(cset_of(pair), sample, catalog)
        assert got == pytest.approx(1.0 - 0.5 / 1.5, abs=1e-15)

    def test_full_pool_scores_zero_exactly(self, axis_catalog):
        sample = make_sample("a", 0, [1, 0, 0], [])
        got = diversity_loss(cset_of(axis_catalog.concepts_for(0)), sample, axis_catalog)
        assert got == 0.0

    def test_singleton_scores_one(self, axis_catalog):
        c0 = axis_catalog.concepts_for(0)[0]
        sample = make_sample("a", 0, [1, 0, 0], [])
        assert diversity_loss(cset_of([c0]), sample, axis_catalog) == 1.0
        assert diversity_loss(cset_of([]), sample, axis_catalog) == 1.0

    def test_single_candidate_pool_is_an_error(self):
        catalog = make_catalog({0: [[1, 0]], 1: [[-1, 0], [0, 1]]})
        sample = make_sample("a", 0, [1.0, 0.0], [])
        with pytest.raises(DataError):
            diversity_loss(cset_of(catalog.concepts_for(0)), sample, catalog)

    def test_identical_candidate_pool_is_degenerate(self):
        catalog = make_catalog({0: [[1, 0], [2, 0]], 1: [[0, 1]]})
        sample = make_sample("a", 0, [1.0, 1.0], [])
        with pytest.raises(NumericError):
            diversity_loss(cset_of(catalog.concepts_for(0)), sample, catalog)


class TestInvariants:
    def test_nestedness_along_lambda(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            sample, _ = random_instance(rng)
            grid = np.sort(rng.uniform(0, 1, size=12))
            previous = frozenset()
            for lam in grid:
                members = build_concept_set(sample, float(lam)).members
                assert previous <= members
                previous = members

    def test_losses_monotone_and_size_nondecreasing(self):
        rng = np.random.default_rng(22)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            sample, catalog = random_instance(rng)
            last = {"dis": np.inf, "cov": np.inf, "div": np.inf, "size": -1}
            for lam in grid:
                cset = build_concept_set(sample, float(lam))
                values = {
                    "dis": discriminability_loss(cset, sample, catalog),
                    "cov": coverage_loss(cset, sample, catalog),
                    "div": diversity_loss(cset, sample, catalog),
                    "size": set_size(cset),
                }
                assert values["dis"] <= last["dis"]
                assert values["cov"] <= last["cov"]
                assert values["div"] <= last["div"]
                assert values["size"] >= last["size"]
                last = values

    def test_upper_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            sample, catalog = random_instance(rng)
            lam = float(rng.uniform(0, 1))
            cset = build_concept_set(sample, lam)
            assert discriminability_loss(cset, sample, catalog) <= 1.0
            assert 0.0 <= coverage_loss(cset, sample, catalog) <= 1.0
            assert 0.0 <= diversity_loss(cset, sample, catalog) <= 1.0

    def test_brute_force_equivalence_small_instances(self):
        """Vectorized losses match the independent evaluators to 1e-12."""
        rng = np.random.default_rng(24)
        for _ in range(50):
            per_class = int(rng.integers(2, 7))  # at most 6 candidate concepts
            sample, catalog = random_instance(rng, per_class=per_class)
            lam = float(rng.uniform(0, 1))
            cset = build_concept_set(sample, lam)
            assert cset.members == oracles.concept_set(sample, lam)
            assert discriminability_loss(cset, sample, catalog) == pytest.approx(
                oracles.loss_dis(cset.members, sample, catalog), abs=1e-12
            )
            assert coverage_loss(cset, sample, catalog) == pytest.approx(
                oracles.loss_cov(cset.members, sample, catalog), abs=1e-12
            )
            assert diversity_loss(cset, sample, catalog) == pytest.approx(
                oracles.loss_div(cset.members, sample, catalog), abs=1e-12
            )
