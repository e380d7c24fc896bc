"""Property tests of the nested-prefix loss kernel on random small catalogs.

Confidences carry two or three decimals, as detector exports usually do, so
many of them sit exactly on a threshold ``1 - conf`` where float round-trip
error decides membership unless the boundary guard absorbs it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_catalog, make_sample
from riskcbm.calibration import build_loss_profiles, empirical_risk
from riskcbm.concept_sets import CRITERIA, prefix_losses


@st.composite
def instances(draw):
    """A random catalog, plus samples detecting random concepts at decimal confidences."""
    n_classes = draw(st.integers(2, 3))
    per_class = draw(st.integers(2, 4))
    dim = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    catalog = make_catalog(
        {label: [rng.normal(size=dim) for _ in range(per_class)] for label in range(n_classes)}
    )
    concepts = catalog.all_concepts()
    scale = 10 ** draw(st.sampled_from([2, 3]))
    samples = []
    for i in range(draw(st.integers(1, 4))):
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


@settings(max_examples=60, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_prefix_columns_match_brute_force_and_never_increase(instance, random):
    samples, catalog = instance
    for sample in samples:
        order = list(catalog.all_concepts())
        random.shuffle(order)
        losses = prefix_losses(sample, catalog, order)
        assert losses.shape == (len(CRITERIA), len(order) + 1)
        for j, k in enumerate(CRITERIA):
            for p in range(len(order) + 1):
                expected = oracles.LOSSES[k](set(order[:p]), sample, catalog)
                assert abs(losses[j, p] - expected) <= 1e-12, (k, p)
        assert np.all(np.diff(losses, axis=1) <= 0.0)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_profile_risk_equals_empirical_risk_at_guard_edges(instance):
    samples, catalog = instance
    profiles = build_loss_profiles(samples, catalog)
    edges = sorted({1.0 - d.confidence for s in samples for d in s.detections} | {0.0, 1.0})
    for k in CRITERIA:
        risks = profiles.risk_on_grid(k, np.asarray(edges))
        for lam, risk in zip(edges, risks):
            assert abs(risk - empirical_risk(k, lam, samples, catalog)) <= 1e-12, (k, lam)
