"""Per-point certification through the engine: verdicts, metadata, serialization."""

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset
from repro.verify.result import VerificationStatus
from tests.conftest import well_separated_dataset


class TestConfiguration:
    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            CertificationEngine(domain="magic")

    def test_rejects_negative_budget(self):
        engine = CertificationEngine(max_depth=1)
        with pytest.raises(ValueError):
            engine.certify_point(figure2_dataset(), [5.0], -1)


class TestVerification:
    def test_zero_poisoning_always_robust(self):
        engine = CertificationEngine(max_depth=2, domain="box")
        result = engine.certify_point(figure2_dataset(), [5.0], 0)
        assert result.status is VerificationStatus.ROBUST
        assert result.certified_class == result.predicted_class == 0

    def test_certified_class_matches_concrete_prediction(self):
        engine = CertificationEngine(max_depth=1, domain="either")
        result = engine.certify_point(well_separated_dataset(), [0.5], 2)
        assert result.status is VerificationStatus.ROBUST
        assert result.certified_class == result.predicted_class == 0

    def test_unknown_when_budget_overwhelms(self):
        engine = CertificationEngine(max_depth=1, domain="either")
        result = engine.certify_point(figure2_dataset(), [5.0], 8)
        assert result.status is VerificationStatus.UNKNOWN
        assert result.certified_class is None
        assert "dominating" in result.message

    def test_either_falls_back_to_disjuncts(self):
        dataset = tiny_boolean_dataset()
        engine = CertificationEngine(max_depth=2, domain="either")
        result = engine.certify_point(dataset, [1.0, 1.0], 1)
        assert result.domain in ("box", "disjuncts")
        if result.is_certified:
            assert result.certified_class == result.predicted_class

    def test_result_metadata(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(figure2_dataset(), [5.0], 2)
        assert result.poisoning_amount == 2
        assert result.elapsed_seconds >= 0.0
        assert result.peak_memory_bytes >= 0
        assert result.log10_num_datasets == pytest.approx(np.log10(92), abs=1e-6)
        assert len(result.class_intervals) == 2
        assert "n=2" in result.describe()

    def test_resource_exhaustion_reported(self):
        engine = CertificationEngine(max_depth=3, domain="disjuncts", max_disjuncts=2)
        result = engine.certify_point(figure2_dataset(), [5.0], 3)
        assert result.status is VerificationStatus.RESOURCE_EXHAUSTED
        assert not result.is_certified

    def test_timeout_reported(self):
        engine = CertificationEngine(
            max_depth=4, domain="disjuncts", timeout_seconds=1e-9
        )
        result = engine.certify_point(figure2_dataset(), [5.0], 2)
        assert result.status is VerificationStatus.TIMEOUT

    def test_verify_batch_and_fraction(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        X_test = np.array([[0.5], [11.0], [1.0]])
        report = engine.certify_batch(dataset, X_test, 1)
        results = report.results
        assert len(results) == 3
        fraction = report.certified_fraction
        assert 0.0 <= fraction <= 1.0
        assert fraction == pytest.approx(
            sum(r.is_certified for r in results) / 3.0
        )

    def test_batch_results_equal_per_point_results_in_order(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        X_test = np.array([[0.5], [11.0], [1.0]])
        batched = engine.certify_batch(dataset, X_test, 1).results
        singles = [engine.certify_point(dataset, x, 1) for x in X_test]
        assert [r.predicted_class for r in batched] == [0, 1, 0]
        for got, want in zip(batched, singles, strict=True):
            assert got.status == want.status
            assert got.certified_class == want.certified_class
            assert got.class_intervals == want.class_intervals


class TestResultSerialization:
    def test_to_dict_roundtrips_through_json(self):
        import json

        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(figure2_dataset(), [5.0], 1)
        payload = result.to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["status"] == result.status.value
        assert decoded["poisoning_amount"] == 1
        assert len(decoded["class_intervals"]) == 2
        assert decoded["predicted_class"] == result.predicted_class


class TestStatusHelpers:
    def test_is_certified_flag(self):
        assert VerificationStatus.ROBUST.is_certified
        assert not VerificationStatus.UNKNOWN.is_certified
        assert not VerificationStatus.TIMEOUT.is_certified
        assert not VerificationStatus.RESOURCE_EXHAUSTED.is_certified
