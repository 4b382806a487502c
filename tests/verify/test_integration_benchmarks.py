"""Integration tests: the full verification pipeline on every benchmark dataset.

These exercise dataset generation → trace learning → abstract verification in
one pass per registered benchmark, checking the cross-cutting invariants that
hold regardless of whether any particular point is certified:

* the reported concrete prediction matches ``DTrace`` on the unpoisoned set;
* the abstract class intervals contain the unpoisoned class probabilities
  (the unpoisoned set is itself a member of ``Δn(T)``);
* a certified result's class equals the concrete prediction.
"""

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.core.trace_learner import TraceLearner
from repro.datasets.registry import list_datasets, load_dataset
from repro.verify.result import VerificationStatus

TINY_SCALES = {
    "iris": 0.3,
    "mammography": 0.15,
    "wdbc": 0.2,
    "mnist17-binary": 0.01,
    "mnist17-real": 0.01,
}


@pytest.mark.parametrize("dataset_name", list_datasets())
@pytest.mark.parametrize("depth", [1, 2])
def test_pipeline_invariants_per_dataset(dataset_name, depth):
    split = load_dataset(dataset_name, scale=TINY_SCALES[dataset_name], seed=9)
    engine = CertificationEngine(
        max_depth=depth, domain="either", timeout_seconds=30.0, max_disjuncts=4096
    )
    trace_learner = TraceLearner(max_depth=depth)
    for x in split.test.X[:3]:
        result = engine.certify_point(split.train, x, 1)
        assert result.status in list(VerificationStatus)
        concrete = trace_learner.run(split.train, x)
        assert result.predicted_class == concrete.prediction
        if result.class_intervals:
            assert len(result.class_intervals) == split.train.n_classes
            for interval, probability in zip(
                result.class_intervals, concrete.class_probabilities
            ):
                assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9
        if result.is_certified:
            assert result.certified_class == concrete.prediction


@pytest.mark.parametrize("dataset_name", ["mnist17-binary", "wdbc"])
def test_large_separable_datasets_certify_at_small_budget(dataset_name):
    """The well-separated benchmarks certify at least one point at n = 1."""
    split = load_dataset(dataset_name, scale=0.2, seed=3)
    engine = CertificationEngine(max_depth=1, domain="either", timeout_seconds=30.0)
    results = [engine.certify_point(split.train, x, 1) for x in split.test.X[:5]]
    assert any(result.is_certified for result in results)


def test_verification_is_deterministic():
    split = load_dataset("iris", scale=0.3, seed=5)
    engine = CertificationEngine(max_depth=2, domain="either", timeout_seconds=30.0)
    x = split.test.X[0]
    first = engine.certify_point(split.train, x, 2)
    second = engine.certify_point(split.train, x, 2)
    assert first.status == second.status
    assert first.certified_class == second.certified_class
    assert np.allclose(
        [interval.lo for interval in first.class_intervals],
        [interval.lo for interval in second.class_intervals],
    )
