"""Tests for the JSON-lines wire protocol (framing + wire forms)."""

import base64
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.dataset import Dataset, FeatureKind
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.runtime import fingerprint_dataset
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    dataset_from_wire,
    dataset_to_wire,
    encode_frame,
    engine_config_from_wire,
    engine_config_to_wire,
    model_from_wire,
    model_to_wire,
    points_from_wire,
    read_frame,
)

#: Finite float64 cells, weighted towards the edges of the format.
_EDGE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _inline(dataset):
    """The inline wire payload of ``dataset``, re-parsed as a peer sees it."""
    return json.loads(encode_frame(dataset_to_wire(dataset)))


class TestFraming:
    def test_round_trip(self):
        frame = {"id": 1, "op": "ping", "params": {"x": [1.5, None, "s"]}}
        reader = io.BytesIO(encode_frame(frame))
        assert read_frame(reader) == frame

    def test_multiple_frames_in_sequence(self):
        buffer = encode_frame({"id": 1}) + encode_frame({"id": 2})
        reader = io.BytesIO(buffer)
        assert read_frame(reader)["id"] == 1
        assert read_frame(reader)["id"] == 2
        assert read_frame(reader) is None  # clean EOF

    def test_truncated_frame_rejected(self):
        reader = io.BytesIO(b'{"id": 1}')  # no newline: cut mid-frame
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(reader)

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frame(io.BytesIO(b"not json\n"))
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(io.BytesIO(b"[1, 2]\n"))

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})


class TestDatasetWire:
    def test_inline_round_trip_preserves_content_identity(self):
        dataset = Dataset(
            X=np.array([[0.0, 1.0], [1.0, 0.0], [2.5, 1.0]]),
            y=np.array([0, 1, 1]),
            n_classes=2,
            feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN),
            name="wire-test",
        )
        decoded = dataset_from_wire(dataset_to_wire(dataset))
        assert decoded.name == "wire-test"
        assert decoded.feature_kinds == dataset.feature_kinds
        # The content fingerprint — the cache identity — survives the wire.
        assert fingerprint_dataset(decoded) == fingerprint_dataset(dataset)

    def test_registry_reference_resolves_to_the_same_training_set(self):
        from repro.datasets.registry import load_dataset

        ref = {"name": "iris", "scale": 0.3, "seed": 1}
        decoded = dataset_from_wire(dataset_to_wire(ref))
        local = load_dataset("iris", scale=0.3, seed=1).train
        assert fingerprint_dataset(decoded) == fingerprint_dataset(local)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 4)),
            elements=_EDGE_CELLS,
        )
    )
    @example(np.zeros((0, 3)))
    @example(np.array([[-0.0], [5e-324], [1e308], [-1e308]]))
    def test_inline_round_trip_is_bit_exact(self, X):
        dataset = Dataset(X=X, y=np.arange(len(X)) % 2, n_classes=2)
        decoded = dataset_from_wire(_inline(dataset))
        assert decoded.X.shape == X.shape
        assert decoded.X.tobytes() == X.tobytes()  # keeps -0.0 and subnormals
        assert decoded.y.tobytes() == dataset.y.tobytes()

    def test_inline_arrays_travel_as_base64(self):
        payload = _inline(Dataset(X=np.eye(3), y=np.array([0, 1, 1])))["inline"]
        assert payload["X"]["shape"] == [3, 3]
        assert isinstance(payload["X"]["f8"], str)
        assert payload["y"]["shape"] == [3]
        assert isinstance(payload["y"]["i8"], str)

    def test_non_finite_cells_rejected_on_encode(self):
        for bad in (np.nan, np.inf, -np.inf):
            X = np.array([[0.0], [bad]])
            with pytest.raises(ProtocolError, match="finite"):
                dataset_to_wire(Dataset(X=X, y=np.array([0, 1])))

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda X: X.update(f8="not*base64!"), "base64"),
            (lambda X: X.update(f8=X["f8"][:-4]), "bytes"),
            (lambda X: X.update(shape=[4, 2]), "bytes"),
            (lambda X: X.update(shape=[3, -2]), "shape"),
            (lambda X: X.pop("f8"), "base64"),
            (lambda X: X.pop("shape"), "shape"),
        ],
        ids=["bad-base64", "short-bytes", "shape-mismatch", "negative-extent",
             "missing-data", "missing-shape"],
    )
    def test_malformed_inline_arrays_rejected(self, mutate, match):
        payload = _inline(Dataset(X=np.arange(6.0).reshape(3, 2), y=np.array([0, 1, 1])))
        mutate(payload["inline"]["X"])
        with pytest.raises(ProtocolError, match=match):
            dataset_from_wire(payload)

    def test_list_valued_inline_arrays_rejected(self):
        # Protocol 1's form: JSON number lists.  There is no fallback.
        payload = _inline(Dataset(X=np.eye(2), y=np.array([0, 1])))
        payload["inline"]["X"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ProtocolError, match="objects"):
            dataset_from_wire(payload)

    def test_non_finite_cells_rejected_on_decode(self):
        # json.loads accepts NaN/Infinity tokens; a hand-built frame can
        # therefore carry them even though encode_frame never would.
        payload = _inline(Dataset(X=np.eye(2), y=np.array([0, 1])))
        nan_bytes = np.array([[np.nan, 0.0], [0.0, 1.0]]).astype("<f8").tobytes()
        payload["inline"]["X"]["f8"] = base64.b64encode(nan_bytes).decode()
        with pytest.raises(ProtocolError, match="finite"):
            dataset_from_wire(payload)

    def test_rejects_unknown_shapes(self):
        with pytest.raises(ProtocolError):
            dataset_to_wire({"no_name": True})
        with pytest.raises(ProtocolError):
            dataset_from_wire({"neither": {}})


class TestPointsWire:
    def test_finite_points_decode(self):
        assert points_from_wire([[0.5, -0.0], [1e308, 2.0]]).shape == (2, 2)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_points_rejected(self, token):
        points = json.loads(f"[[0.5, {token}]]")
        with pytest.raises(ProtocolError, match="finite"):
            points_from_wire(points)


class TestModelWire:
    @pytest.mark.parametrize(
        "model",
        [
            RemovalPoisoningModel(3),
            FractionalRemovalModel(0.05),
            LabelFlipModel(2),
            LabelFlipModel(2, n_classes=3),
            CompositePoisoningModel(1, 2),
            CompositePoisoningModel(1, 2, n_classes=4),
        ],
    )
    def test_round_trip(self, model):
        assert model_from_wire(model_to_wire(model)) == model

    def test_none_template_passes_through(self):
        assert model_to_wire(None) is None
        assert model_from_wire(None) is None

    def test_unknown_family_rejected(self):
        with pytest.raises(ProtocolError, match="unknown threat-model family"):
            model_from_wire({"family": "gradient-ascent"})


class TestEngineConfigWire:
    def test_round_trip(self):
        config = engine_config_to_wire(max_depth=3, domain="box", timeout_seconds=5.0)
        assert engine_config_from_wire(config) == {
            "max_depth": 3,
            "domain": "box",
            "timeout_seconds": 5.0,
        }

    def test_none_values_mean_defaults(self):
        assert engine_config_to_wire(max_depth=2, timeout_seconds=None) == {
            "max_depth": 2
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="predicate_pool"):
            engine_config_to_wire(predicate_pool=[1, 2])
